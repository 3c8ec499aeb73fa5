"""Random and mutated input files through every command that reads one.

Whatever the file holds, `main` returns 0, 1 or 2, nothing but argparse's
SystemExit(2) escapes it, and stderr never shows a traceback.  Exponents and
the sampling grid stay small and `d` is small or 10**30, so each command is
quick; coefficients may have a few thousand digits.  A document of the kind
a command reads, with one term of one polynomial spoiled, exits 2 with one
`error:` line through every command.
"""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction as F
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slab_harmonics.cli import main
from slab_harmonics.diffeq import DiffEqProblem, solve
from slab_harmonics.randgen import random_harmonic_poly, random_tfree_poly
from slab_harmonics.slab import SlabProblem, solve_slab

COMMANDS = ["solve-slab", "solve-diffeq", "verify", "oracle-compare", "eval"]

big_int = st.integers(-(10**3000), 10**3000)
rational = st.one_of(
    st.fractions(max_denominator=50).map(str),
    st.tuples(big_int, st.integers(1, 10**40)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)

# JSON junk with no large integers: a large exponent or d is a degree or
# size the solver would spend its time on, not malformed input
junk = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 9), st.floats(allow_nan=False),
        st.text(alphabet="0123456789/-. abtyd", max_size=6),
        st.sampled_from(["1/0", "-0/5", " 3 ", "1.5", "2e3", "1_000", "", "x", "--1"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["d", "terms", "coeff", "exps", "a", "b", "g", "h", "x"]), inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def polynomial(draw, d, t_free=False):
    def exps():
        es = draw(st.lists(st.integers(0, 4), min_size=d + 1, max_size=d + 1))
        return [0] + es[1:] if t_free else es

    return {"d": d, "terms": [{"coeff": draw(rational), "exps": exps()} for _ in range(draw(st.integers(0, 3)))]}


seeded = st.integers(0, 10**6).map(random.Random)


@st.composite
def slab(draw, d):
    return {
        "a": draw(rational), "b": draw(rational), "d": d,
        "f0": draw(polynomial(d, t_free=True)), "f1": draw(polynomial(d, t_free=True)),
    }


@st.composite
def diffeq(draw, d):
    if draw(st.booleans()):  # a random g is rarely harmonic
        return {"d": d, "g": draw(polynomial(d))}
    return DiffEqProblem(random_harmonic_poly(draw(seeded), d, 4), d).to_json_dict()


@st.composite
def bundle(draw, d):
    """A problem with its solution, or with some other h."""
    rng = draw(seeded)
    kind = draw(st.sampled_from(["slab", "diffeq"]))
    if kind == "slab":
        prob = SlabProblem(F(0), F(rng.randint(1, 3)), d, random_tfree_poly(rng, d, 4), random_tfree_poly(rng, d, 4))
        h = solve_slab(prob)
    else:
        prob = DiffEqProblem(random_harmonic_poly(rng, d, 4), d)
        h = solve(prob)
    h = draw(st.one_of(st.just(h.to_json_dict()), polynomial(d)))
    return {"kind": draw(st.sampled_from([kind, kind, "other"])), "problem": prob.to_json_dict(), "h": h}


DOCUMENTS = {
    "solve-slab": slab, "solve-diffeq": diffeq, "oracle-compare": diffeq, "verify": bundle, "eval": polynomial,
}


def _mutate(draw, doc):
    """Replace, delete or add one value somewhere in doc."""
    path = []
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append((node, key))
        node = node[key]
    if not path:
        return draw(junk) if draw(st.booleans()) else doc
    parent, key = path[-1]
    action = draw(st.sampled_from(["replace", "delete", "add", "d"]))
    if action == "replace":
        parent[key] = draw(junk)
    elif action == "delete":
        del parent[key]
    elif action == "add" and isinstance(parent, dict):
        parent["unknown"] = draw(junk)
    elif isinstance(parent, dict) and "d" in parent:
        parent["d"] = draw(st.sampled_from([0, -1, 2, 4, 10**30, True, "1", 1.0, None]))
    return doc


@st.composite
def case(draw):
    """A command and the text of its input file: mostly a document of the
    kind the command reads, then up to two mutations, sometimes cut short."""
    command = draw(st.sampled_from(COMMANDS))
    d = draw(st.integers(1, 3))
    source = draw(st.sampled_from(["own"] * 3 + ["other", "junk"]))
    if source == "junk":
        doc = draw(junk)
    else:
        kind = command if source == "own" else draw(st.sampled_from(sorted(DOCUMENTS)))
        doc = draw(DOCUMENTS[kind](d))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        doc = _mutate(draw, doc)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:  # a cut or damaged file
        text = text[: draw(st.integers(0, len(text)))]
    return command, text, _grid(d)


def _run(command, text, grid):
    """main's exit code and stderr on an input file holding `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.json", Path(tmp) / "out"
        path.write_text(text, encoding="utf-8")
        argv = [command, "--input", str(path), "--output", str(out)]
        if command == "eval":
            argv += ["--grid", grid]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse only
                code = exc.code
                assert code == 2
    return code, stderr.getvalue()


def _grid(d):
    return ",".join(["t=0:1:0.5"] + [f"y{j}=-1:1:1" for j in range(1, d + 1)])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case())
def test_cli_never_crashes(case):
    code, err = _run(*case)
    assert code in (0, 1, 2), code
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def _term_lists(node):
    """Every "terms" list of a polynomial in a JSON document."""
    if isinstance(node, dict):
        if isinstance(node.get("terms"), list):
            yield node["terms"]
        for value in node.values():
            yield from _term_lists(value)


@st.composite
def bad_term_case(draw):
    """A command and a document of the kind it reads, with one term of one
    of its polynomials spoiled: a coefficient off the grammar, an exponent
    that is a bool, a float or negative, or a third key."""
    command = draw(st.sampled_from(COMMANDS))
    d = draw(st.integers(1, 3))
    doc = draw(DOCUMENTS[command](d))
    terms = draw(st.sampled_from(list(_term_lists(doc))))
    if not terms:
        terms.append({"coeff": "1", "exps": [0] * (d + 1)})
    term = draw(st.sampled_from(terms))
    spoil = draw(st.sampled_from(["coeff", "exps", "key"]))
    if spoil == "coeff":
        term["coeff"] = draw(st.sampled_from(["+1", " 1", "1.5", "1\n2", "\u0663", "1/0", "1/", "2e3", "0x1", "--1", ""]))
    elif spoil == "exps":
        term["exps"][draw(st.integers(0, d))] = draw(st.sampled_from([True, False, 1.0, -1]))
    else:
        term[draw(st.sampled_from(["x", "coeffs", "d"]))] = draw(junk)
    return command, json.dumps(doc), _grid(d)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bad_term_case())
def test_a_malformed_term_exits_2_in_one_line(case):
    code, err = _run(*case)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)

"""CLI solutions against the independent checker in `bench/check.py`, which
reads the JSON the CLI wrote and imports nothing from `slab_harmonics`."""

import json
import random
from fractions import Fraction

import check
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slab_harmonics import MultiPoly, variables
from slab_harmonics.cli import main
from slab_harmonics.diffeq import DiffEqProblem
from slab_harmonics.laplace import even_ck_extension
from slab_harmonics.randgen import random_harmonic_poly, random_tfree_poly
from slab_harmonics.slab import SlabProblem

F = Fraction


@st.composite
def poly_and_point(draw):
    d = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 5) for _ in range(d + 1)])
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=40)
    p = MultiPoly(d, dict(draw(st.lists(st.tuples(exps, coeff), max_size=6))))
    point = draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=9), min_size=d + 1, max_size=d + 1))
    return p, point


@settings(max_examples=60, deadline=None)
@given(poly_and_point())
def test_laplacian_at_matches_the_kernel_laplacian(case):
    p, point = case
    assert check.Poly(p.to_json_dict()).laplacian(point) == p.laplacian().eval_exact(point)


def _monomial(d, n):
    return MultiPoly(d, {(0, n) + (0,) * (d - 1): 1})


# (kind, d, degree): acceptance-sized cases at d = 1..4 and one d = 1 case
# of degree 90 each; the diffeq h has degree one above g's
CASES = [(kind, d, deg) for kind in ("slab", "diffeq") for d, deg in ((1, 12), (2, 8), (3, 6), (4, 4))]
CASES += [("slab", 1, 90), ("diffeq", 1, 90)]


def _solved(kind, d, deg, tmp_path):
    """Solve one case through the CLI: the problem, the written output, h
    as written, the checker of its kind and h tampered two ways."""
    rng = random.Random(1000 * d + deg)
    t, y1 = variables(d)[:2]
    if kind == "slab":
        a = F(rng.randint(-4, 4), rng.randint(1, 3))
        b = a + F(rng.randint(1, 6), rng.randint(1, 3))
        f0 = random_tfree_poly(rng, d, deg) + _monomial(d, deg)
        f1 = random_tfree_poly(rng, d, deg)
        problem = SlabProblem(a, b, d, f0, f1).to_json_dict()
    else:
        g = random_harmonic_poly(rng, d, deg) + even_ck_extension(_monomial(d, deg))
        problem = DiffEqProblem(g, d).to_json_dict()
    path, out = tmp_path / "problem.json", tmp_path / "out.json"
    path.write_text(json.dumps(problem))
    assert main([f"solve-{kind}", "--input", str(path), "--output", str(out), "--quiet"]) == 0
    solved = json.loads(out.read_text())
    h_json = solved["solution"] if kind == "slab" else solved["h"]
    h = MultiPoly.from_json_dict(h_json)
    assert h.total_degree() >= deg

    if kind == "slab":
        checker = check.check_slab
        a_, b_ = MultiPoly.constant(d, a), MultiPoly.constant(d, b)
        # zero on both walls but not harmonic; harmonic but nonzero at t = b
        tampered = {"h: laplacian": h + (t - a_) * (t - b_), "trace at b": h + (t - a_)}
    else:
        checker = check.check_diffeq
        # t-free, so the difference still holds; harmonic, but 2t + 1 apart
        tampered = {"h: laplacian": h + y1 * y1, "difference": h + t * t - y1 * y1}
    return problem, solved, h_json, checker, tampered


@pytest.mark.parametrize("kind,d,deg", CASES)
def test_cli_solutions_pass_the_independent_check(kind, d, deg, tmp_path):
    problem, _, h_json, checker, tampered = _solved(kind, d, deg, tmp_path)
    assert checker(problem, h_json, random.Random(deg)) == []
    for what, bad in tampered.items():
        failures = checker(problem, bad.to_json_dict(), random.Random(deg))
        assert failures and all(f.startswith(what) for f in failures), (what, failures)


def _assert_verdict_is_read_off_the_residuals(report):
    vanish = all(r["terms"] == [] for r in report["residuals"].values())
    assert report["status"] == ("pass" if vanish else "fail"), report["status"]


@pytest.mark.parametrize("kind,d,deg", CASES)
def test_the_written_verdict_agrees_with_the_written_residuals(kind, d, deg, tmp_path):
    problem, solved, _, checker, tampered = _solved(kind, d, deg, tmp_path)
    _assert_verdict_is_read_off_the_residuals(solved["report"])
    bundle, out = tmp_path / "bundle.json", tmp_path / "report.json"
    for what, bad in tampered.items():
        bundle.write_text(json.dumps({"kind": kind, "problem": problem, "h": bad.to_json_dict()}))
        assert main(["verify", "--input", str(bundle), "--output", str(out), "--quiet"]) == 1
        report = json.loads(out.read_text())
        _assert_verdict_is_read_off_the_residuals(report)
        assert report["status"] == "fail", what
        assert checker(problem, bad.to_json_dict(), random.Random(deg)), what

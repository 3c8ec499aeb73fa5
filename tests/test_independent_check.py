"""CLI solutions against the independent check in `independent_check.py`,
which evaluates polynomials only through `eval_exact`."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from independent_check import (
    check_difference,
    check_slab,
    laplacian_at,
    second_derivative_weights,
)
from slab_harmonics import MultiPoly, variables
from slab_harmonics.cli import main
from slab_harmonics.diffeq import DiffEqProblem
from slab_harmonics.laplace import even_ck_extension
from slab_harmonics.randgen import random_harmonic_poly, random_tfree_poly
from slab_harmonics.slab import SlabProblem

F = Fraction


def test_second_derivative_weights_are_exact():
    # sum_j w_j j^k is the second derivative of s^k at 0: 2 for k = 2, else 0
    for m in range(1, 12):
        w = second_derivative_weights(m)
        for k in range(m + 1):
            assert sum(wj * j**k for j, wj in enumerate(w)) == (2 if k == 2 else 0)


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
    assert laplacian_at(p, point) == p.laplacian().eval_exact(point)


def _monomial(d, n):
    return MultiPoly(d, {(0, n) + (0,) * (d - 1): 1})


# (kind, d, degree): acceptance-sized cases at d = 1..4 and one d = 1 case
# of degree 90 each; the diffeq h has degree one above g's
CASES = [(kind, d, deg) for kind in ("slab", "diffeq") for d, deg in ((1, 12), (2, 8), (3, 6), (4, 4))]
CASES += [("slab", 1, 90), ("diffeq", 1, 90)]


@pytest.mark.parametrize("kind,d,deg", CASES)
def test_cli_solutions_pass_the_independent_check(kind, d, deg, tmp_path):
    rng = random.Random(1000 * d + deg)
    high = deg >= 90  # one point and no tampering: each check takes about 1 s
    points = 1 if high else 3
    t, y1 = variables(d)[:2]
    if kind == "slab":
        a = F(rng.randint(-4, 4), rng.randint(1, 3))
        b = a + F(rng.randint(1, 6), rng.randint(1, 3))
        f0 = random_tfree_poly(rng, d, deg) + _monomial(d, deg)
        f1 = random_tfree_poly(rng, d, deg)
        problem = SlabProblem(a, b, d, f0, f1)
    else:
        g = random_harmonic_poly(rng, d, deg) + even_ck_extension(_monomial(d, deg))
        problem = DiffEqProblem(g, d)
    path, out = tmp_path / "problem.json", tmp_path / "out.json"
    path.write_text(json.dumps(problem.to_json_dict()))
    assert main([f"solve-{kind}", "--input", str(path), "--output", str(out), "--quiet"]) == 0
    solved = json.loads(out.read_text())
    h = MultiPoly.from_json_dict(solved["solution"] if kind == "slab" else solved["h"])
    assert h.total_degree() >= deg

    if kind == "slab":
        def check(p):
            return check_slab(p, a, b, f0, f1, seed=deg, points=points)

        a_, b_ = MultiPoly.constant(d, a), MultiPoly.constant(d, b)
        # zero on both walls but not harmonic; harmonic but nonzero at t = b
        tampered = {"laplacian": h + (t - a_) * (t - b_), "trace at b": h + (t - a_)}
    else:
        def check(p):
            return check_difference(p, g, seed=deg, points=points)

        # t-free, so the difference still holds; harmonic, but 2t + 1 apart
        tampered = {"laplacian": h + y1 * y1, "difference": h + t * t - y1 * y1}
    assert check(h) == []
    for what, bad in ({} if high else tampered).items():
        failures = check(bad)
        assert failures and all(f.startswith(what) for f in failures), (what, failures)

"""Bernoulli polynomials, the holomorphic difference equation, and the d=1 oracle."""

import hashlib
import inspect
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from slab_harmonics import (
    ComplexPoly,
    DiffEqProblem,
    MultiPoly,
    bernoulli_polynomial,
    harmonic_conjugate_completion,
    harmonic_part,
    oracle_compare,
    solve,
    solve_complex_difference,
    variables,
)
from slab_harmonics.complex_oracle import oracle_solve
from slab_harmonics.randgen import random_harmonic_poly

F = Fraction

FIXTURES = Path(__file__).parent / "fixtures"


def real_poly(*coeffs):
    return ComplexPoly((F(c), F(0)) for c in coeffs)


def parts(p):
    """Re P and Im P = Re(-iP) of P(t + iy): together they are P, so an
    identity between complex polynomials holds iff it holds for both."""
    return harmonic_part(p), harmonic_part(ComplexPoly((im, -re) for re, im in p.coeffs))


def test_bernoulli_base_cases():
    assert bernoulli_polynomial(0) == real_poly(1)
    assert bernoulli_polynomial(1) == real_poly(F(-1, 2), 1)
    assert bernoulli_polynomial(2) == real_poly(F(1, 6), -1, 1)


def test_bernoulli_difference_identity():
    # B_(n+1)(z+1) - B_(n+1)(z) = (n+1) z^n for n <= 20; z <- z + 1 is
    # t <- t + 1 in P(t + iy)
    for n in range(21):
        b = bernoulli_polynomial(n + 1)
        lhs = [u.shift_t(1) - u for u in parts(b)]
        rhs = ComplexPoly(
            [(F(0), F(0))] * n + [(F(n + 1), F(0))]
        )
        assert lhs == list(parts(rhs))


def test_bernoulli_recurrence_properties():
    bs = [parts(bernoulli_polynomial(n)) for n in range(61)]
    for n in range(1, 61):
        # derivative B_n' = n B_(n-1): d/dz is d/dt on P(t + iy)
        assert [u.derivative(0) for u in bs[n]] == [u.scale(n) for u in bs[n - 1]]
        # int_0^1 B_n(z) dz = 0, on the real axis y = 0
        assert [u.integrate_t().eval_exact((1, 0)) for u in bs[n]] == [0, 0]


def test_solve_complex_difference_examples():
    assert solve_complex_difference(real_poly(1)) == real_poly(F(-1, 2), 1)
    assert solve_complex_difference(ComplexPoly()) == ComplexPoly()
    f = solve_complex_difference(real_poly(0, 0, 1))  # G = z^2
    assert f == real_poly(0, F(1, 6), F(-1, 2), F(1, 3))
    assert [u.shift_t(1) - u for u in parts(f)] == list(parts(real_poly(0, 0, 1)))


def test_harmonic_part_examples():
    t, y1 = variables(1)
    assert harmonic_part(real_poly(0, 0, 1)) == t * t - y1 * y1
    assert parts(real_poly(0, 1)) == (t, y1)
    p = real_poly(0, F(1, 6), F(-1, 2), F(1, 3))
    expected = (
        (t ** 3).scale(F(1, 3))
        - t * y1 * y1
        - (t * t).scale(F(1, 2))
        + (y1 * y1).scale(F(1, 2))
        + t.scale(F(1, 6))
    )
    assert harmonic_part(p) == expected


def test_harmonic_part_cauchy_riemann():
    rng = random.Random(79)
    for _ in range(15):
        coeffs = [
            (F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-6, 6), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 8))
        ]
        p = ComplexPoly(coeffs)
        re, im = parts(p)
        assert re.laplacian().is_zero
        assert im.laplacian().is_zero
        assert re.derivative(0) == im.derivative(1)
        assert re.derivative(1) == -im.derivative(0)


def test_conjugate_completion_examples():
    t, y1 = variables(1)
    assert harmonic_conjugate_completion(t * t - y1 * y1) == real_poly(0, 0, 1)
    assert harmonic_conjugate_completion(MultiPoly.constant(1, 1)) == real_poly(1)
    assert harmonic_conjugate_completion(t * y1) == ComplexPoly(
        [(F(0), F(0)), (F(0), F(0)), (F(0), F(-1, 2))]
    )


def test_conjugate_completion_round_trip():
    rng = random.Random(83)
    for _ in range(20):
        g = random_harmonic_poly(rng, 1, 10)
        p = harmonic_conjugate_completion(g)
        assert harmonic_part(p) == g
        # normalization: imaginary part of P(0) vanishes
        assert parts(p)[1].eval_exact((0, 0)) == 0


def test_conjugate_completion_rejects_bad_input():
    t, _ = variables(1)
    with pytest.raises(ValueError):
        harmonic_conjugate_completion(t * t)
    with pytest.raises(ValueError):
        harmonic_conjugate_completion(MultiPoly.zero(2))


def test_oracle_compare_examples():
    t, y1 = variables(1)
    g = t * t - y1 * y1
    rep = oracle_compare(g, solve(DiffEqProblem(g, 1)))
    assert rep.passed
    assert rep.extras["r"].is_zero

    zero = MultiPoly.zero(1)
    rep = oracle_compare(zero, solve(DiffEqProblem(zero, 1)))
    assert rep.passed and rep.extras["r"].is_zero

    rep = oracle_compare(t, solve(DiffEqProblem(t, 1)))
    assert rep.passed
    assert rep.extras["r"].degree_in(0) <= 0  # t-free


def test_oracle_solve_is_valid_solution_random():
    rng = random.Random(89)
    for _ in range(15):
        g = random_harmonic_poly(rng, 1, 8)
        h_oracle = oracle_solve(g)
        assert h_oracle.shift_t(1) - h_oracle == g
        assert h_oracle.laplacian().is_zero
        rep = oracle_compare(g, solve(DiffEqProblem(g, 1)))
        assert rep.passed


def test_oracle_solve_golden_digest():
    # sha256 of the canonical JSON of the oracle's h, pinned from the oracle
    # that kept its coefficients as Fraction pairs: the fixture's g and seeded
    # d = 1 data up to degree 36
    fixture = json.loads((FIXTURES / "diffeq_oracle.json").read_text())
    gs = [DiffEqProblem.from_json_dict(fixture).g]
    rng = random.Random(97)
    gs += [random_harmonic_poly(rng, 1, deg, max_terms=6) for deg in [*range(0, 37, 2), 36, 36, 36]]
    sols = [oracle_solve(g).to_json_dict() for g in gs]
    digest = hashlib.sha256(json.dumps(sols, sort_keys=True).encode()).hexdigest()
    assert digest == "3fa473e8e8df2094e791bcd7721e2153172ac45d0b5b0663b902c9190eccf298"


def test_oracle_compare_reports_wrong_solution():
    t, _ = variables(1)
    h = solve(DiffEqProblem(t, 1))
    rep = oracle_compare(t, h + t * t)
    assert rep.status == "fail"
    # (t+1)^2 - t^2 = 2t + 1 and Lap(t^2) = 2
    assert rep.nonzero_residuals() == {
        "general_difference": t.scale(2) + MultiPoly.constant(1, 1),
        "general_laplacian": MultiPoly.constant(1, 2),
    }
    assert "r" not in rep.extras


def test_oracle_route_calls_nothing_in_laplace(monkeypatch):
    # the oracle is an independent check only while it shares no code with
    # the general solver's operators: with every function of laplace made to
    # raise, wherever the package binds it, the oracle gives the same h
    fixture = json.loads((FIXTURES / "diffeq_oracle.json").read_text())
    rng = random.Random(101)
    gs = [DiffEqProblem.from_json_dict(fixture).g]
    gs += [random_harmonic_poly(rng, 1, deg, max_terms=6) for deg in (0, 3, 8, 15)]
    before = [(solve(DiffEqProblem(g, 1)), oracle_solve(g)) for g in gs]

    laplace = sys.modules["slab_harmonics.laplace"]
    package = [m for name, m in sys.modules.items() if name.partition(".")[0] == "slab_harmonics"]
    for name, func in list(vars(laplace).items()):
        if not (inspect.isfunction(func) and func.__module__ == laplace.__name__):
            continue

        def trap(*args, _name=name, **kwargs):
            raise AssertionError(f"the oracle route called laplace.{_name}")

        for module in package:
            for key, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, key, trap)

    with pytest.raises(AssertionError, match="laplace"):  # the traps are live
        solve(DiffEqProblem(gs[0], 1))
    for g, (h, h_oracle) in zip(gs, before):
        assert oracle_solve(g) == h_oracle
        assert oracle_compare(g, h).passed

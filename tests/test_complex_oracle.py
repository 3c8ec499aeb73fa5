"""Bernoulli polynomials, the CK extension in y1, and the Bernoulli-route oracle."""

import hashlib
import inspect
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from slab_harmonics import (
    DiffEqProblem,
    MultiPoly,
    bernoulli_polynomial,
    harmonic_part,
    oracle_compare,
    solve,
    variables,
)
from slab_harmonics.complex_oracle import oracle_solve
from slab_harmonics.randgen import random_harmonic_poly

F = Fraction

FIXTURES = Path(__file__).parent / "fixtures"


def on_line(p):
    """p restricted to the line y1 = 0."""
    return MultiPoly(p.d, {e: c for e, c in p.terms.items() if not e[1]})


def random_line_poly(rng, d, max_degree):
    """A random polynomial in t, y2, ..., yd, free of y1."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = [0] * (d + 1)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.choice([0, *range(2, d + 1)])] += 1
        terms[tuple(exps)] = F(rng.randint(-6, 6), rng.randint(1, 3))
    return MultiPoly(d, terms)


def test_bernoulli_base_cases():
    t, _ = variables(1)
    one = MultiPoly.constant(1, 1)
    assert bernoulli_polynomial(0) == one
    assert bernoulli_polynomial(1) == t - one.scale(F(1, 2))
    assert bernoulli_polynomial(2) == t * t - t + one.scale(F(1, 6))
    with pytest.raises(ValueError):
        bernoulli_polynomial(-1)


def test_bernoulli_difference_identity():
    # B_(n+1)(t+1) - B_(n+1)(t) = (n+1) t^n (DLMF 24.2)
    t, _ = variables(1)
    for n in range(41):
        b = bernoulli_polynomial(n + 1)
        assert b.shift_t(1) - b == (t ** n).scale(n + 1), n


def test_bernoulli_recurrence_properties():
    bs = [bernoulli_polynomial(n) for n in range(61)]
    for n in range(1, 61):
        assert bs[n].derivative(0) == bs[n - 1].scale(n)  # B_n' = n B_(n-1)
        assert bs[n].integrate_t().eval_exact((1, 0)) == 0  # int_0^1 B_n = 0


def test_oracle_solve_bernoulli_examples():
    t, y1 = variables(1)
    one = MultiPoly.constant(1, 1)
    assert oracle_solve(one) == bernoulli_polynomial(1)
    assert oracle_solve(MultiPoly.zero(2)) == MultiPoly.zero(2)
    # g = t^2 - y1^2: Re(B_3(t + i y1)/3)
    g = t * t - y1 * y1
    h = oracle_solve(g)
    assert h == (
        (t ** 3).scale(F(1, 3))
        - t * y1 * y1
        - (t * t).scale(F(1, 2))
        + (y1 * y1).scale(F(1, 2))
        + t.scale(F(1, 6))
    )
    assert h.shift_t(1) - h == g


def test_oracle_solve_examples():
    t, y1 = variables(1)
    # g = t y1: Im(B_3(t + i y1))/6
    assert oracle_solve(t * y1) == (
        (t * t * y1).scale(F(1, 2))
        - (y1 ** 3).scale(F(1, 6))
        - (t * y1).scale(F(1, 2))
        + y1.scale(F(1, 12))
    )
    # d = 2, g = t y2: B_2(t)/2 y2 on the line, extended by -y1^2/2 L
    t, y1, y2 = variables(2)
    assert oracle_solve(t * y2) == (
        (t * t * y2 - t * y2 + y2.scale(F(1, 6))).scale(F(1, 2)) - (y1 * y1 * y2).scale(F(1, 2))
    )


def test_harmonic_part_examples():
    t, y1 = variables(1)
    zero, one = MultiPoly.zero(1), MultiPoly.constant(1, 1)
    assert harmonic_part(zero, zero) == zero
    assert harmonic_part(t * t, zero) == t * t - y1 * y1
    assert harmonic_part(zero, one) == y1
    assert harmonic_part(zero, t) == t * y1
    # d = 2: L = d2/dt2 + d2/dy2^2 sends t^2 + y2^2 to 4
    t, y1, y2 = variables(2)
    assert harmonic_part(t * t + y2 * y2, MultiPoly.zero(2)) == (
        t * t + y2 * y2 - (y1 * y1).scale(2)
    )


def test_harmonic_part_cauchy_riemann():
    # at d = 1, the harmonic conjugate v of h = harmonic_part(u0, u1) has
    # v = -int_0^t u1 and dv/dy1 = du0/dt on y1 = 0
    rng = random.Random(79)
    for _ in range(15):
        u0, u1 = random_line_poly(rng, 1, 8), random_line_poly(rng, 1, 8)
        re = harmonic_part(u0, u1)
        im = harmonic_part(-u1.integrate_t(), u0.derivative(0))
        assert re.laplacian().is_zero
        assert im.laplacian().is_zero
        assert re.derivative(0) == im.derivative(1)
        assert re.derivative(1) == -im.derivative(0)


def test_harmonic_part_round_trip():
    # a harmonic h is the CK extension in y1 of its Cauchy data on y1 = 0
    rng = random.Random(83)
    for d in (1, 2, 3):
        for _ in range(10):
            h = random_harmonic_poly(rng, d, 8)
            assert harmonic_part(on_line(h), on_line(h.derivative(1))) == h
        u0, u1 = random_line_poly(rng, d, 6), random_line_poly(rng, d, 6)
        h = harmonic_part(u0, u1)
        assert h.laplacian().is_zero
        assert (on_line(h), on_line(h.derivative(1))) == (u0, u1)


def test_oracle_route_rejects_bad_input():
    t, y1 = variables(1)
    with pytest.raises(ValueError, match="harmonic"):
        oracle_solve(t * t)
    with pytest.raises(ValueError, match="free of y1"):
        harmonic_part(y1, MultiPoly.zero(1))
    with pytest.raises(ValueError, match="dimension"):
        harmonic_part(MultiPoly.zero(1), MultiPoly.zero(2))


def test_oracle_solve_normal_form():
    # the oracle's h is the solution whose period average A = int_0^1 h dt
    # vanishes to second order on y1 = 0: every B_(j+1) has zero mean on
    # (0, 1).  At d = 1 the general solver gives the same h.
    rng = random.Random(87)
    for d in (1, 2, 3, 4):
        for _ in range(10):
            g = random_harmonic_poly(rng, d, 8)
            h = oracle_solve(g)
            average = h.integrate_t().trace(1)
            assert all(e[1] > 1 for e in average.terms), (d, average)
            if d == 1:
                assert h == solve(DiffEqProblem(g, 1))


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
    assert rep.extras["r"].is_t_free

    t, y1, y2 = variables(2)
    g = t * y2 + y1 * y2 + t * t - y2 * y2
    rep = oracle_compare(g, solve(DiffEqProblem(g, 2)))
    assert rep.passed
    assert rep.extras["r"].is_t_free and rep.extras["r"].laplacian_y().is_zero


def test_oracle_solve_is_valid_solution_random():
    rng = random.Random(89)
    for d in (1, 1, 2, 3):
        for _ in range(5):
            g = random_harmonic_poly(rng, d, 8)
            h_oracle = oracle_solve(g)
            assert h_oracle.shift_t(1) - h_oracle == g
            assert h_oracle.laplacian().is_zero
            rep = oracle_compare(g, solve(DiffEqProblem(g, d)))
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
    gs += [random_harmonic_poly(rng, d, deg, max_terms=6) for d in (2, 3) for deg in (3, 8)]
    before = [(solve(DiffEqProblem(g, g.d)), oracle_solve(g)) for g in gs]

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

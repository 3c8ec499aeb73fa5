"""Difference-equation pipeline: the one-slab solver, its even/odd entry points
and the half-slab construction it replaced, verification, uniqueness residue."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slab_harmonics import (
    DiffEqProblem,
    MultiPoly,
    SlabProblem,
    compare_solutions,
    even_ck_extension,
    harmonic_t_antiderivative,
    odd_ck_extension,
    poisson_solve,
    solve,
    solve_even,
    solve_odd,
    solve_slab,
    variables,
    verify_difference,
)
from slab_harmonics.diffeq import _cauchy_residuals_vanish
from slab_harmonics.randgen import (
    random_harmonic_poly,
    random_rational,
    random_tfree_poly,
    random_y_harmonic,
)

F = Fraction


def test_problem_rejects_non_harmonic_rhs():
    t, _ = variables(1)
    with pytest.raises(ValueError):
        DiffEqProblem(t * t, 1)


def test_solve_even_worked_example():
    t, y1 = variables(1)
    g = t * t - y1 * y1
    h = solve_even(g)
    assert h == (
        (y1 * y1).scale(F(1, 2))
        - (t * t).scale(F(1, 2))
        - t * y1 * y1
        + t.scale(F(1, 6))
        + (t ** 3).scale(F(1, 3))
    )
    assert h.shift_t(1) - h == g
    assert h.laplacian().is_zero
    assert h.trace(0) == (y1 * y1).scale(F(1, 2))
    assert h.trace(F(1, 2)).is_zero


def test_solve_even_constant():
    t, _ = variables(1)
    h = solve_even(MultiPoly.constant(1, 1))
    assert h == t - MultiPoly.constant(1, F(1, 2))


def test_solve_even_zero():
    assert solve_even(MultiPoly.zero(2)) == MultiPoly.zero(2)


def test_solve_even_rejects_odd_or_nonharmonic():
    t, _ = variables(1)
    with pytest.raises(ValueError):
        solve_even(t)
    with pytest.raises(ValueError):
        solve_even(t * t)


def test_antiderivative_examples():
    t, y1 = variables(1)
    assert harmonic_t_antiderivative(t) == (t * t).scale(F(1, 2)) - (y1 * y1).scale(F(1, 2))
    assert harmonic_t_antiderivative(MultiPoly.constant(1, 1)) == t
    g = t ** 3 - (t * y1 * y1).scale(3)  # odd harmonic
    u = harmonic_t_antiderivative(g)
    assert u.derivative(0) == g
    assert u.laplacian().is_zero
    assert u.negate_t() == u


def test_antiderivative_parity_claim_random():
    rng = random.Random(61)
    for _ in range(20):
        d = rng.randint(1, 3)
        _, g_odd = random_harmonic_poly(rng, d, 8).parity_split_t()
        u = harmonic_t_antiderivative(g_odd)
        assert u.derivative(0) == g_odd
        assert u.laplacian().is_zero
        assert u.negate_t() == u


def test_antiderivative_correction_is_the_normal_trace_random():
    # Lap_y(int_0^t g) + dg/dt is t-free for harmonic g: it is dg/dt(0,y)
    rng = random.Random(89)
    for i in range(24):
        d = 1 + i % 4
        g = random_harmonic_poly(rng, d, (14, 9, 7, 5)[d - 1])
        p = g.derivative(0)
        assert g.integrate_t().laplacian_y() + p == p.trace(0)


def test_solve_output_golden_digest():
    # sha256 of the canonical JSON of h, pinned from the parity-split pipeline
    # this construction replaced
    rng = random.Random(83)
    sols = []
    for i in range(20):
        d = 1 + i % 4
        g = random_harmonic_poly(rng, d, (16, 9, 6, 5)[d - 1], max_terms=5)
        sols.append(solve(DiffEqProblem(g, d)).to_json_dict())
    digest = hashlib.sha256(json.dumps(sols, sort_keys=True).encode()).hexdigest()
    assert digest == "fb55e3cebcbe251f19fb641acc6290deb2da15f5d167dcad37824f5da1102ebb"


def test_solve_takes_one_full_laplacian(monkeypatch):
    # the only full Laplacian is the harmonicity check on the input g
    calls = []
    laplacian = MultiPoly.laplacian
    monkeypatch.setattr(MultiPoly, "laplacian", lambda p: calls.append(p) or laplacian(p))
    t, y1, y2 = variables(2)
    g = t ** 3 - (t * y1 * y1).scale(3) + y1 * y2 + t
    solve(DiffEqProblem(g, 2))
    assert calls == [g]


def _half_slab_construction(g):
    """h = S(-f/2) + d/dt S(G/2), with S(phi) the slab solution on (0, 1/2)
    with data (phi, 0), f = g(0,y) and Lap_y G = dg/dt(0,y): the two
    half-slab solves that solve replaced, kept as a reference."""
    def half_slab(phi):
        return solve_slab(SlabProblem(F(0), F(1, 2), g.d, phi, MultiPoly.zero(g.d)))

    potential = poisson_solve(g.derivative(0).trace(0))
    return half_slab(g.trace(0).scale(F(-1, 2))) + half_slab(potential.scale(F(1, 2))).derivative(0)


def test_solve_equals_the_half_slab_construction():
    rng = random.Random(89)
    for i in range(40):
        d = 1 + i % 4
        g = random_harmonic_poly(rng, d, (12, 8, 6, 5)[d - 1], max_terms=5)
        assert solve(DiffEqProblem(g, d)) == _half_slab_construction(g)  # numerators and denominator


def test_solve_equals_the_half_slab_construction_dense_high_degree():
    # dense d = 1 data of degree 64, past the goldens' degree 16
    rng = random.Random(91)
    f = MultiPoly(1, {(0, j): random_rational(rng) for j in range(65)})
    p = MultiPoly(1, {(0, j): random_rational(rng) for j in range(64)})
    g = even_ck_extension(f) + odd_ck_extension(p)
    assert g.total_degree() == 64 and len(g.terms) > 1000
    assert solve(DiffEqProblem(g, 1)) == _half_slab_construction(g)


def test_solve_odd_worked_example():
    t, y1 = variables(1)
    h = solve_odd(t)
    assert h == (
        (t * t).scale(F(1, 2))
        - t.scale(F(1, 2))
        - (y1 * y1).scale(F(1, 2))
        + MultiPoly.constant(1, F(1, 12))
    )
    assert h.shift_t(1) - h == t


def test_solve_odd_zero_and_ty():
    t, y1 = variables(1)
    assert solve_odd(MultiPoly.zero(1)) == MultiPoly.zero(1)
    g = t * y1
    h = solve_odd(g)
    assert h.shift_t(1) - h == g
    assert h.laplacian().is_zero


def test_solve_odd_rejects_even_input():
    t, y1 = variables(1)
    with pytest.raises(ValueError):
        solve_odd(t * t - y1 * y1)


def test_solve_assembles_parity_parts():
    t, y1 = variables(1)
    g = t * t - y1 * y1 + t
    h = solve(DiffEqProblem(g, 1))
    assert h == solve_even(t * t - y1 * y1) + solve_odd(t)
    assert verify_difference(h, g).passed


def test_solve_zero():
    assert solve(DiffEqProblem(MultiPoly.zero(3), 3)) == MultiPoly.zero(3)


def test_solve_matches_bernoulli_expansion():
    t, y1 = variables(1)
    g = t * t - y1 * y1
    # Re(B_3(t+iy)/3) = t^3/3 - t y^2 - t^2/2 + y^2/2 + t/6
    expected = (
        (t ** 3).scale(F(1, 3))
        - t * y1 * y1
        - (t * t).scale(F(1, 2))
        + (y1 * y1).scale(F(1, 2))
        + t.scale(F(1, 6))
    )
    assert solve(DiffEqProblem(g, 1)) == expected


def test_solve_random_contract_and_telescoping():
    rng = random.Random(67)
    for _ in range(15):
        d = rng.randint(1, 3)
        g = random_harmonic_poly(rng, d, 8)
        h = solve(DiffEqProblem(g, d))
        assert h.laplacian().is_zero
        assert h.shift_t(1) - h == g
        partial = MultiPoly.zero(d)
        for n in range(1, 6):
            partial = partial + g.shift_t(n - 1)
            assert h.shift_t(n) - h == partial


def test_verify_difference_reports():
    t, y1 = variables(1)
    g = t * t - y1 * y1 + t
    h = solve(DiffEqProblem(g, 1))
    assert verify_difference(h, g).passed
    rep = verify_difference(h + t, g)
    assert not rep.passed
    assert rep.residuals["difference"] == MultiPoly.constant(1, 1)
    # a y-harmonic t-free addend keeps the solution valid
    assert verify_difference(h + y1.scale(F(5, 7)), g).passed


def test_verify_difference_catches_a_harmonic_t_dependent_tamper():
    # h + (t^2 - y1^2) is harmonic, and its residual 2t + 1 is seen in the
    # Cauchy data at t = 0
    t, y1 = variables(1)
    g = t * t - y1 * y1 + t
    h = solve(DiffEqProblem(g, 1)) + t * t - y1 * y1
    rep = verify_difference(h, g)
    assert not rep.passed
    assert rep.residuals["difference"] == t.scale(2) + MultiPoly.constant(1, 1)
    assert rep.residuals["laplacian"].is_zero


def test_verify_difference_checks_that_g_is_harmonic():
    # r = -t^2 has zero Cauchy data at t = 0 but is not harmonic, so the
    # check on the traces alone would pass it
    t, y1 = variables(1)
    g = t * t - y1 * y1 + t
    h = solve(DiffEqProblem(g, 1))
    rep = verify_difference(h, g + t * t)
    assert not rep.passed
    assert rep.residuals["difference"] == -(t * t)


@st.composite
def difference_cases(draw):
    """(h, g): a solution for a harmonic g, tampered or not, or polynomials
    drawn at random; g is made non-harmonic in some cases."""
    d = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    t, y1 = variables(d)[:2]
    g = random_harmonic_poly(rng, d, 6)
    h = solve(DiffEqProblem(g, d))
    tampers = {
        "none": MultiPoly.zero(d),
        "harmonic": (t * t - y1 * y1).scale(F(rng.randint(1, 5), rng.randint(1, 3))),
        "y_harmonic": random_y_harmonic(rng, d, 4),
        "non_harmonic": random_tfree_poly(rng, d, 5),
        "t_cubed": t ** 3,
    }
    h = h + tampers[draw(st.sampled_from(sorted(tampers)))]
    if draw(st.booleans()):
        h = random_harmonic_poly(rng, d, 6) + h.scale(draw(st.sampled_from([0, 1])))
    if draw(st.booleans()):
        g = g + draw(st.sampled_from([t * t, t * t * y1, random_tfree_poly(rng, d, 4)]))
    return h, g


@settings(max_examples=150, deadline=None)
@given(difference_cases())
def test_verify_difference_reports_the_full_residuals(case):
    h, g = case
    rep = verify_difference(h, g)
    difference = h.shift_t(1) - h - g
    assert rep.residuals["difference"] == difference
    assert rep.residuals["laplacian"] == h.laplacian()
    assert rep.passed == (difference.is_zero and h.laplacian().is_zero)


def _cauchy_reference(h, g):
    # the single dict pass over the terms of h and g that the check on the
    # y-monomial groupings replaced
    h_num, h_den = h.as_integer_ratio()
    g_num, g_den = g.as_integer_ratio()
    sums = {}  # (order, y-exponents) -> numerator
    for exps, v in h_num.items():
        k = exps[0]
        if k:
            v *= g_den
            key = (0,) + exps[1:]
            sums[key] = sums.get(key, 0) + v
            if k > 1:
                key = (1,) + exps[1:]
                sums[key] = sums.get(key, 0) + k * v
    for exps, v in g_num.items():
        if exps[0] < 2:
            sums[exps] = sums.get(exps, 0) - v * h_den
    return not any(sums.values())


@st.composite
def cauchy_cases(draw):
    """(h, g) of one dimension: a solution and its g, either tampered by a
    harmonic t-dependent or a y-only addend, or by a monomial in a
    y-monomial that the other polynomial lacks."""
    h, g = draw(difference_cases())
    d = h.d
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    b = tuple(rng.randint(0, 2) for _ in range(d))
    fresh = (7,) * d  # above every degree drawn here
    k = draw(st.integers(0, 3))
    c = F(rng.randint(-5, 5) or 1, rng.randint(1, 3))
    tampers = {
        "none": (MultiPoly.zero(d), MultiPoly.zero(d)),
        "h, y-only": (random_y_harmonic(rng, d, 4), MultiPoly.zero(d)),
        "h, t^k y^fresh": (MultiPoly(d, {(k,) + fresh: c}), MultiPoly.zero(d)),
        "g, t^k y^fresh": (MultiPoly.zero(d), MultiPoly(d, {(k,) + fresh: c})),
        "g, t^k y^b": (MultiPoly.zero(d), MultiPoly(d, {(k,) + b: c})),
        "h, t^k y^b": (MultiPoly(d, {(k,) + b: c}), MultiPoly.zero(d)),
    }
    dh, dg = tampers[draw(st.sampled_from(sorted(tampers)))]
    return h + dh, g + dg


@settings(max_examples=300, deadline=None)
@given(cauchy_cases())
def test_cauchy_residuals_match_the_per_term_pass(case):
    h, g = case
    got = _cauchy_residuals_vanish(h, g)
    assert got == _cauchy_reference(h, g)
    r = h.shift_t(1) - h - g
    assert got == (r.trace(0).is_zero and r.derivative(0).trace(0).is_zero)


def test_compare_solutions():
    t, y1 = variables(1)
    g = t * t - y1 * y1 + t
    h = solve(DiffEqProblem(g, 1))
    assert compare_solutions(h, h, g) == MultiPoly.zero(1)
    assert compare_solutions(h + y1, h, g) == y1
    with pytest.raises(ValueError):
        compare_solutions(h + t, h, g)


def test_compare_solutions_random_planted_residue():
    rng = random.Random(71)
    for _ in range(15):
        d = rng.randint(1, 3)
        g = random_harmonic_poly(rng, d, 7)
        h = solve(DiffEqProblem(g, d))
        r = random_y_harmonic(rng, d, 6)
        assert compare_solutions(h + r, h, g) == r


def test_degree_growth_observed_bound():
    # observed: deg(h) <= deg(g) + 1 through the whole pipeline
    rng = random.Random(73)
    for _ in range(15):
        d = rng.randint(1, 3)
        g = random_harmonic_poly(rng, d, 8)
        h = solve(DiffEqProblem(g, d))
        if not g.is_zero:
            assert h.total_degree() <= g.total_degree() + 1

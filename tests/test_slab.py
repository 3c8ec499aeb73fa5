"""Slab Dirichlet solver and the reflection identity checks."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slab_harmonics import (
    DiffEqProblem,
    MultiPoly,
    SlabProblem,
    VerificationReport,
    even_ck_extension,
    even_reflection_identity,
    invert_trace_operator,
    odd_ck_extension,
    odd_wall_reflection,
    solve,
    solve_slab,
    trace_operator,
    variables,
    verify_boundary,
)
from slab_harmonics import diffeq, laplace, slab
from slab_harmonics.randgen import random_harmonic_poly, random_tfree_poly

F = Fraction


def _random_slab_problem(rng, d, max_degree=8):
    a = F(rng.randint(-6, 6), rng.randint(1, 4))
    b = a + F(rng.randint(1, 6), rng.randint(1, 4))
    return SlabProblem(a, b, d, random_tfree_poly(rng, d, max_degree),
                       random_tfree_poly(rng, d, max_degree))


def test_problem_invariants():
    _, y1 = variables(1)
    with pytest.raises(ValueError):
        SlabProblem(F(1), F(0), 1, y1, y1)
    with pytest.raises(ValueError):
        SlabProblem(F(0), F(1), 1, variables(1)[0], y1)  # t-dependent data
    with pytest.raises(ValueError):
        SlabProblem(F(0), F(1), 2, y1, y1)  # dimension mismatch


def test_solve_slab_worked_example():
    t, y1 = variables(1)
    prob = SlabProblem(F(0), F(1), 1, MultiPoly.zero(1), y1 * y1)
    h = solve_slab(prob)
    assert h == t * y1 * y1 + t.scale(F(1, 3)) - (t ** 3).scale(F(1, 3))
    assert verify_boundary(h, prob).passed


def test_solve_slab_zero_data():
    prob = SlabProblem(F(0), F(1), 1, MultiPoly.zero(1), MultiPoly.zero(1))
    assert solve_slab(prob) == MultiPoly.zero(1)


def test_solve_slab_matching_harmonic_data():
    _, y1 = variables(1)
    prob = SlabProblem(F(0), F(1), 1, y1, y1)
    assert solve_slab(prob) == y1


def _harmonic_sextics(d):
    # the real and imaginary parts of (y1 + i y2)^6: y-harmonic, so each
    # y-chain has 1 step, though degree 6 allows 6 // 2 + 1 = 4
    y1, y2 = variables(d)[1:3]
    re = im = MultiPoly.zero(d)
    for k in range(7):
        term = (y1 ** (6 - k) * y2 ** k).scale(math.comb(6, k) * (-1) ** (k // 2))
        if k % 2:
            im = im + term
        else:
            re = re + term
    return re, im


def test_solve_slab_on_data_whose_chain_is_shorter_than_its_degree_allows():
    for d in (2, 3):
        re, im = _harmonic_sextics(d)
        t = variables(d)[0]
        assert re.laplacian().is_zero and im.laplacian().is_zero
        # on a copy, so that the first solve below walks re's chain on its index
        assert len(MultiPoly(d, re.terms)._y_chain()) == 1
        for a, b in ((F(0), F(1)), (F(-1, 2), F(2, 3)), (F(-3), F(-5, 4))):
            h = solve_slab(SlabProblem(a, b, d, re, im))
            # ((b - t) f0 + (t - a) f1) / (b - a)
            line = re.scale(b) - t * re + t * im - im.scale(a)
            assert h == line.scale(1 / (b - a))
        for c in (F(3, 2), F(-2, 7)):
            assert trace_operator(c, re) == re.scale(c)
            assert invert_trace_operator(c, im) == im.scale(1 / c)
        # a harmonic f0 beside a non-harmonic f1: the inverse is sized by f1
        y1 = variables(d)[1]
        prob = SlabProblem(F(-1, 3), F(2), d, re, y1 ** 6 + im)
        assert verify_boundary(solve_slab(prob), prob).passed


def test_every_series_on_a_solve_path_is_as_long_as_its_chain(monkeypatch):
    # a Lap_y-series stops where the chain it meets stops: each _series call
    # of the slab solve, the diffeq's K and the trace operators gets exactly
    # as many coefficients as its datum's chain has steps
    sizes = []
    series = laplace._series

    def sized(f, s):
        out = series(f, s)
        sizes.append((len(s[0]), len(f._y_chain())))
        return out

    for module in (laplace, slab, diffeq):
        monkeypatch.setattr(module, "_series", sized)
    rng = random.Random(43)
    for d in (1, 2, 3):
        re, im = _harmonic_sextics(max(d, 2))
        for prob in (
            _random_slab_problem(rng, d),
            SlabProblem(F(1, 3), F(2), d, MultiPoly.zero(d), random_tfree_poly(rng, d, 7)),
            SlabProblem(F(-1), F(1), max(d, 2), re, im),
        ):
            solve_slab(prob)
            trace_operator(F(2, 5), prob.f1)
            invert_trace_operator(F(2, 5), prob.f1)
        solve(DiffEqProblem(random_harmonic_poly(rng, d, 9, max_terms=5), d))
    assert sizes and all(n == steps for n, steps in sizes), sizes


def test_solve_slab_random_contract():
    rng = random.Random(31)
    for _ in range(25):
        d = rng.randint(1, 3)
        prob = _random_slab_problem(rng, d)
        h = solve_slab(prob)
        assert h.laplacian() == MultiPoly.zero(d)
        assert h.trace(prob.a) == prob.f0
        assert h.trace(prob.b) == prob.f1


def _shifted_composition(prob):
    # the construction solve_slab replaced: even CK extension of f0 in
    # s = t - a, an odd one fitted to f1 at s = b - a, then t <- t - a
    c = prob.b - prob.a
    base = even_ck_extension(prob.f0)
    g = invert_trace_operator(c, prob.f1 - base.trace(c))
    return (base + odd_ck_extension(g)).shift_t(-prob.a)


@st.composite
def slab_problems(draw):
    d = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    walls = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    a = draw(st.one_of(st.just(F(0)), st.just(F(-3, 2)), walls))
    b = a + draw(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4))
    f0, f1 = (
        draw(st.sampled_from([
            MultiPoly.zero(d),
            MultiPoly.constant(d, draw(walls)),
            random_tfree_poly(rng, d, (10, 8, 6, 5)[d - 1]),
        ]))
        for _ in range(2)
    )
    return SlabProblem(a, b, d, f0, f1)


@settings(max_examples=120, deadline=None)
@given(slab_problems())
def test_solve_slab_equals_the_shifted_composition(prob):
    assert solve_slab(prob) == _shifted_composition(prob)


def test_solve_slab_linearity():
    rng = random.Random(37)
    for _ in range(10):
        d = rng.randint(1, 3)
        a, b = F(-1, 2), F(5, 3)
        f0, f0p = random_tfree_poly(rng, d, 7), random_tfree_poly(rng, d, 7)
        f1, f1p = random_tfree_poly(rng, d, 7), random_tfree_poly(rng, d, 7)
        lhs = solve_slab(SlabProblem(a, b, d, f0 + f0p, f1 + f1p))
        rhs = solve_slab(SlabProblem(a, b, d, f0, f1)) + solve_slab(
            SlabProblem(a, b, d, f0p, f1p)
        )
        assert lhs == rhs


def test_solve_slab_translation_covariance():
    rng = random.Random(41)
    for _ in range(10):
        d = rng.randint(1, 3)
        prob = _random_slab_problem(rng, d)
        s = F(rng.randint(-5, 5), rng.randint(1, 3))
        shifted = SlabProblem(prob.a + s, prob.b + s, d, prob.f0, prob.f1)
        # h solves on (a,b); h(t+s) has walls at a-s, b-s, so shift by -s
        assert solve_slab(prob).shift_t(-s) == solve_slab(shifted)


def test_solve_slab_degree_bound():
    # conjectured bound deg(h) <= max(deg f0, deg f1) + 1; holds empirically
    rng = random.Random(43)
    for _ in range(25):
        d = rng.randint(1, 3)
        prob = _random_slab_problem(rng, d, max_degree=9)
        h = solve_slab(prob)
        bound = max(prob.f0.total_degree(), prob.f1.total_degree()) + 1
        assert h.total_degree() <= bound


def test_verify_boundary_flags_perturbations():
    t, y1 = variables(1)
    prob = SlabProblem(F(0), F(1), 1, MultiPoly.zero(1), y1 * y1)
    h = solve_slab(prob)
    # non-harmonic perturbation: Delta((t-a)(t-b)) = 2
    bad = verify_boundary(h + t * (t - MultiPoly.constant(1, 1)), prob)
    assert not bad.passed
    assert bad.residuals["laplacian"] == MultiPoly.constant(1, 2)
    # harmonic t-free addend shows up at both walls
    r = y1.scale(F(2, 3))
    rep = verify_boundary(h + r, prob)
    assert rep.residuals["trace_at_a"] == r
    assert rep.residuals["trace_at_b"] == r
    assert rep.residuals["laplacian"].is_zero


def _boundary_reference(h, prob):
    """verify_boundary's residuals as trace - datum, always subtracted."""
    at_a, at_b = MultiPoly(h.d, h.terms).traces(prob.a, prob.b)
    return {"trace_at_a": at_a - prob.f0, "trace_at_b": at_b - prob.f1, "laplacian": h.laplacian()}


def _without_elapsed(report):
    obj = json.loads(report.to_json_text())
    del obj["elapsed_seconds"]
    return obj


def test_passing_boundary_check_subtracts_nothing(monkeypatch):
    rng = random.Random(53)
    for d in (1, 2, 3):
        prob = _random_slab_problem(rng, d)
        h = solve_slab(prob)
        reference = VerificationReport("slab_boundary", _boundary_reference(h, prob))
        calls = []
        plus = MultiPoly._plus
        monkeypatch.setattr(MultiPoly, "_plus", lambda *args: calls.append(args) or plus(*args))
        report = verify_boundary(h, prob)
        monkeypatch.undo()
        assert report.passed and calls == []
        for key in ("trace_at_a", "trace_at_b"):
            assert report.residuals[key] == MultiPoly.zero(d)
            assert report.residuals[key].to_json_text() == '{"d": %d, "terms": []}' % d
        # the written report is the one the subtractions gave, but for its time
        assert _without_elapsed(report) == _without_elapsed(reference)


def test_a_solution_wrong_at_one_wall_is_flagged_at_that_wall_only():
    rng = random.Random(54)
    for d in (1, 2, 3):
        prob = _random_slab_problem(rng, d)
        h = solve_slab(prob)
        t, y1 = variables(d)[:2]
        a, b = (MultiPoly.constant(d, c) for c in (prob.a, prob.b))
        r = y1.scale(F(3, 7)) + MultiPoly.constant(d, F(-2, 5))  # harmonic and t-free
        # (t - a) r vanishes at t = a only, (t - b) r at t = b only; both are harmonic
        for wrong, right, wall, bump in (
            ("trace_at_b", "trace_at_a", prob.b, t - a),
            ("trace_at_a", "trace_at_b", prob.a, t - b),
        ):
            bad = h + bump * r
            report = verify_boundary(bad, prob)
            assert not report.passed
            assert report.residuals == _boundary_reference(bad, prob)
            assert report.residuals[wrong] == bump.trace(wall) * r
            assert not report.residuals[wrong].is_zero
            assert report.residuals[right] == MultiPoly.zero(d)
            assert report.residuals["laplacian"].is_zero


def test_even_reflection_identity_examples():
    t, y1 = variables(1)
    odd_h = t * y1 * y1 + t.scale(F(1, 3)) - (t ** 3).scale(F(1, 3))
    assert even_reflection_identity(odd_h).passed
    assert even_reflection_identity(y1 * y1 - t * t).passed
    assert even_reflection_identity(t * y1 + y1 * y1 - t * t).passed
    with pytest.raises(ValueError):
        even_reflection_identity(t * t)  # not harmonic


def test_even_reflection_identity_random():
    rng = random.Random(47)
    for _ in range(20):
        d = rng.randint(1, 3)
        assert even_reflection_identity(random_harmonic_poly(rng, d, 8)).passed


def test_odd_wall_reflection_examples():
    t, y1 = variables(1)
    odd_h = t * y1 * y1 + t.scale(F(1, 3)) - (t ** 3).scale(F(1, 3))
    assert odd_wall_reflection(odd_h, 0).passed
    assert odd_wall_reflection(t - MultiPoly.constant(1, 1), 1).passed
    with pytest.raises(ValueError):
        odd_wall_reflection(y1 * y1 - t * t, 0)  # trace at 0 is y1^2 != 0


def test_odd_wall_reflection_random():
    rng = random.Random(53)
    for _ in range(20):
        d = rng.randint(1, 3)
        c = F(rng.randint(-5, 5), rng.randint(1, 3))
        g = random_tfree_poly(rng, d, 8)
        # odd CK extension recentred at t = c vanishes on that wall
        h = odd_ck_extension(g).shift_t(-c)
        assert h.trace(c).is_zero
        assert odd_wall_reflection(h, c).passed


def test_solver_output_passes_reflection_identities():
    rng = random.Random(59)
    for _ in range(10):
        d = rng.randint(1, 3)
        prob = _random_slab_problem(rng, d)
        h = solve_slab(prob)
        assert even_reflection_identity(h.shift_t(prob.a)).passed
        # with zero data at the left wall the trace vanishes there
        zero_wall = SlabProblem(prob.a, prob.b, d, MultiPoly.zero(d), prob.f1)
        assert odd_wall_reflection(solve_slab(zero_wall), prob.a).passed


def test_high_degree_slab_golden_digest():
    # d = 1, y^200 at t = 1/3 and 0 at t = 2: 101 Laplacian powers and
    # coefficients of hundreds of bits.  sha256 of the canonical JSON of h,
    # pinned from the Fraction-per-term shift_t and trace that the integer
    # kernels, and then the Cauchy data at t = 0, replaced.
    prob = SlabProblem(F(1, 3), F(2), 1, MultiPoly(1, {(0, 200): 1}), MultiPoly.zero(1))
    h = solve_slab(prob)
    assert verify_boundary(h, prob).passed
    digest = hashlib.sha256(json.dumps(h.to_json_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == "aee2f5518f47020d9541faaa56b78ba31a9afa3fe19d18767b76aee99cd0e386"

"""Core polynomial arithmetic: worked examples plus algebraic property tests."""

import gc
import itertools
import json
import math
import random
import sys
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slab_harmonics import (
    DiffEqProblem,
    MultiPoly,
    SlabProblem,
    VerificationReport,
    oracle_compare,
    poly,
    solve,
    solve_slab,
    variables,
    verify_difference,
)
from slab_harmonics.complex_oracle import harmonic_part, oracle_solve
from slab_harmonics.laplace import (
    cauchy_extension,
    even_ck_extension,
    invert_trace_operator,
    odd_ck_extension,
    poisson_solve,
    trace_operator,
)
from slab_harmonics.poly import _int_digits, _laplacian_y_num, _t_fibres
from slab_harmonics.randgen import random_harmonic_poly, random_rational, random_tfree_poly

F = Fraction


def poly_st(d, max_degree=8, max_terms=5):
    exps = st.tuples(*[st.integers(0, 4) for _ in range(d + 1)]).filter(
        lambda e: sum(e) <= max_degree
    )
    coeff = st.fractions(min_value=-10, max_value=10, max_denominator=6)
    return st.lists(st.tuples(exps, coeff), max_size=max_terms).map(
        lambda items: MultiPoly(d, {e: c for e, c in items})
    )


@st.composite
def poly_triple(draw):
    d = draw(st.integers(1, 4))
    strat = poly_st(d)
    return draw(strat), draw(strat), draw(strat)


# -- spec'd examples ---------------------------------------------------------


def test_add_examples():
    t, y1 = variables(1)
    assert y1 * y1 + (y1 * y1).scale(-1) == MultiPoly.zero(1)
    assert t + y1 == MultiPoly(1, {(1, 0): 1, (0, 1): 1})
    assert (t * t - y1 * y1) + (y1 * y1).scale(2) == t * t + y1 * y1
    assert t.scale(F(1, 2)) != t and t.scale(F(2, 4)) == t.scale(F(1, 2))


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        MultiPoly.zero(1) + MultiPoly.zero(2)


def test_mul_examples():
    t, y1 = variables(1)
    p = t * t - y1 + MultiPoly.constant(1, F(1, 3))
    one = MultiPoly.constant(1, 1)
    assert p * one == p
    assert p * MultiPoly.zero(1) == MultiPoly.zero(1)
    assert (t + y1) * (t - y1) == t * t - y1 * y1


def test_mul_degree_additivity():
    t, y1 = variables(1)
    p, q = (t + y1) ** 3, y1 * y1 - t
    assert (p * q).total_degree() == p.total_degree() + q.total_degree()


def test_derivative_examples():
    t, y1 = variables(1)
    assert (t ** 3).derivative(0) == (t * t).scale(3)
    assert (y1 * y1).derivative(0) == MultiPoly.zero(1)
    assert (t * y1 * y1).derivative(1) == (t * y1).scale(2)
    with pytest.raises(IndexError):
        t.derivative(2)


def test_laplacian_examples():
    t, y1 = variables(1)
    assert (t * t - y1 * y1).laplacian() == MultiPoly.zero(1)
    assert (t * t).laplacian() == MultiPoly.constant(1, 2)
    odd_ext = t * y1 * y1 - (t ** 3).scale(F(1, 3))
    assert odd_ext.laplacian() == MultiPoly.zero(1)


def test_laplacian_y_examples():
    t, y1, y2 = variables(2)
    assert (y1 * y1).laplacian_y() == MultiPoly.constant(2, 2)
    assert (t ** 4).laplacian_y() == MultiPoly.zero(2)
    assert (t * y1 * y1 * y2 * y2).laplacian_y() == (t * (y1 * y1 + y2 * y2)).scale(2)


def test_shift_t_examples():
    t, y1 = variables(1)
    assert (t * t).shift_t(1) == t * t + t.scale(2) + MultiPoly.constant(1, 1)
    assert (y1 ** 3).shift_t(5) == y1 ** 3
    assert (t * y1).shift_t(-1) == t * y1 - y1


def test_negate_t_examples():
    t, y1 = variables(1)
    assert (t ** 3).negate_t() == (t ** 3).scale(-1)
    assert (t * t * y1).negate_t() == t * t * y1
    assert (t + t * t).negate_t() == t.scale(-1) + t * t


def test_parity_split_examples():
    t, y1 = variables(1)
    even, odd = (t * t - y1 * y1 + t).parity_split_t()
    assert even == t * t - y1 * y1
    assert odd == t
    assert MultiPoly.zero(1).parity_split_t() == (MultiPoly.zero(1), MultiPoly.zero(1))
    assert (t ** 3).parity_split_t() == (MultiPoly.zero(1), t ** 3)


def test_integrate_t_examples():
    t, y1 = variables(1)
    assert t.integrate_t() == (t * t).scale(F(1, 2))
    assert (y1 * y1).integrate_t() == t * y1 * y1
    assert ((t * t).scale(3) - y1).integrate_t() == t ** 3 - t * y1


def test_trace_examples():
    t, y1 = variables(1)
    assert (t * t - y1 * y1).trace(0) == (y1 * y1).scale(-1)
    h = t * y1 * y1 + t.scale(F(1, 3)) - (t ** 3).scale(F(1, 3))
    assert h.trace(1) == y1 * y1
    c = MultiPoly.constant(1, F(7, 2))
    assert c.trace(F(5, 3)) == c


def test_eval_examples():
    t, y1 = variables(1)
    assert (t * t - y1 * y1).eval_exact((3, 2)) == 5
    assert MultiPoly.zero(1).eval_exact((F(17, 3), 4)) == 0
    assert (t * y1).eval_exact((F(1, 2), F(1, 3))) == F(1, 6)
    assert (t * y1).eval_float((0.5, 0.5)) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        t.eval_exact((1, 2, 3))


def test_zero_degree_sentinel():
    assert MultiPoly.zero(2).total_degree() == -1
    assert MultiPoly.constant(2, 5).total_degree() == 0


# -- the integer shift and trace against the binomial expansion --------------


def _clean(terms):
    return {e: c for e, c in terms.items() if c}


def _shift_reference(terms, s):
    """t <- t + s on a Fraction term map, term by term:
    c t^n y^r -> sum_j c C(n,j) s^(n-j) t^j y^r."""
    out = {}
    for exps, c in terms.items():
        n = exps[0]
        for j in range(n + 1):
            e = (j,) + exps[1:]
            out[e] = out.get(e, 0) + c * math.comb(n, j) * s ** (n - j)
    return _clean(out)


def _trace_reference(terms, t0):
    out = {}
    for exps, c in terms.items():
        e = (0,) + exps[1:]
        out[e] = out.get(e, 0) + c * t0 ** exps[0]
    return _clean(out)


@st.composite
def t_heavy_poly(draw):
    """d = 1..4, t-degree up to 40, terms spread over a few y-monomials, so
    that each y-monomial carries several powers of t."""
    d = draw(st.integers(1, 4))
    rests = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=3))
    exps = st.tuples(st.integers(0, 40), st.sampled_from(rests)).map(lambda e: (e[0],) + e[1])
    coeff = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
    return MultiPoly(d, dict(draw(st.lists(st.tuples(exps, coeff), max_size=14))))


shifts = st.one_of(
    st.integers(-60, 60).map(F),
    st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**4)),
    st.just(F(0)),
)


@settings(max_examples=150, deadline=None)
@given(t_heavy_poly(), shifts)
def test_shift_t_and_trace_match_binomial_expansion(p, s):
    assert p.shift_t(s).terms == _shift_reference(p.terms, s)
    assert p.trace(s).terms == _trace_reference(p.terms, s)


@settings(max_examples=150, deadline=None)
@given(t_heavy_poly(), shifts, st.lists(shifts, min_size=4, max_size=4))
def test_shift_t_and_trace_identities(p, s, ys):
    assert p.shift_t(s).shift_t(-s) == p
    assert p.shift_t(s).trace(0) == p.trace(s)
    y = ys[: p.d]
    assert p.trace(s).eval_exact([0] + y) == p.eval_exact([s] + y)


@settings(max_examples=150, deadline=None)
@given(st.one_of(t_heavy_poly(), st.integers(1, 4).map(MultiPoly.zero)), shifts, shifts)
def test_traces_equal_one_trace_per_point(p, a, b):
    # shifts holds 0 and negative walls; the zero polynomial has no fibres
    for points in ([a, b], [a, a], [0, b], [b, 0, -abs(a)], [0, 0], [a], []):
        got = p.traces(*points)
        assert got == [p.trace(t0) for t0 in points]
        assert [r.terms for r in got] == [_trace_reference(p.terms, t0) for t0 in points]


# walls a = +-p/3, b = a + q/2 with (p, q) in (4, 5), (5, 7), (7, 3): the walls
# of the high-degree benchmark problems
SIZED_WALLS = [
    (s * F(p, 3), s * F(p, 3) + F(q, 2)) for p, q in ((4, 5), (5, 7), (7, 3)) for s in (1, -1)
]


@pytest.mark.parametrize("a, b", SIZED_WALLS, ids=str)
def test_traces_of_long_fibres_match_the_reference(a, b):
    # d = 1 at t-degree 90-100: fibres of many lengths, from 1 to 101, with
    # zero entries, so that every power q^(m-k) and q^(top-m) is read
    rng = random.Random(f"{a}:{b}")
    terms = {}
    for j in range(12):
        m = rng.randint(90, 100) if j % 4 == 1 else rng.choice([0, 1, 2, rng.randint(3, 89)])
        for k in range(m + 1):
            if k == m or rng.random() < 0.7:
                terms[(k, j)] = F(rng.randint(-(10**6), 10**6) or 1, rng.randint(1, 10**4))
    p = MultiPoly(1, terms)
    assert max(e[0] for e in terms) >= 90
    expected = [_trace_reference(p.terms, t0) for t0 in (a, b)]
    assert [r.terms for r in p.traces(a, b)] == expected
    assert [_fresh(p).trace(t0).terms for t0 in (a, b)] == expected
    h = random_harmonic_poly(rng, 1, 96)
    assert [r.terms for r in h.traces(a, b)] == [_trace_reference(h.terms, t0) for t0 in (a, b)]


# -- algebraic properties ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(poly_triple())
def test_ring_axioms(triple):
    p, q, r = triple
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(poly_triple())
def test_parity_split_properties(triple):
    p, _, _ = triple
    even, odd = p.parity_split_t()
    assert even + odd == p
    assert even.negate_t() == even
    assert odd.negate_t() == -odd
    assert even == (p + p.negate_t()).scale(F(1, 2))
    assert odd == (p - p.negate_t()).scale(F(1, 2))


@settings(max_examples=60, deadline=None)
@given(
    poly_triple(),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)
def test_shift_t_composition(triple, s1, s2):
    p, _, _ = triple
    assert p.shift_t(s1 + s2) == p.shift_t(s1).shift_t(s2)
    assert p.shift_t(0) == p
    assert p.shift_t(s1).shift_t(-s1) == p


@settings(max_examples=60, deadline=None)
@given(poly_triple())
def test_integrate_then_differentiate(triple):
    p, _, _ = triple
    assert p.integrate_t().derivative(0) == p
    assert p.integrate_t().trace(0) == MultiPoly.zero(p.d)


@settings(max_examples=60, deadline=None)
@given(poly_triple())
def test_laplacian_splits_into_t_and_y_parts(triple):
    p, _, _ = triple
    assert p.laplacian() == p.derivative(0).derivative(0) + p.laplacian_y()


@settings(max_examples=60, deadline=None)
@given(poly_triple())
def test_json_round_trip(triple):
    p, _, _ = triple
    assert MultiPoly.from_json_dict(p.to_json_dict()) == p


def test_json_reader_accepts_any_term_order():
    obj = {
        "d": 1,
        "terms": [
            {"coeff": "1", "exps": [0, 2]},
            {"coeff": "-1/3", "exps": [3, 0]},
            {"coeff": "2/3", "exps": [0, 2]},
        ],
    }
    p = MultiPoly.from_json_dict(obj)
    assert p == MultiPoly(1, {(0, 2): F(5, 3), (3, 0): F(-1, 3)})
    # writer emits canonical graded-lex order, leading term first
    exps = [tuple(item["exps"]) for item in p.to_json_dict()["terms"]]
    assert exps == [(3, 0), (0, 2)]


def json_reference(p):
    """The JSON object of p built from its Fraction terms: str(Fraction)
    coefficients, leading term first in graded-lexicographic order."""
    order = sorted(p.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
    return {"d": p.d, "terms": [{"coeff": str(c), "exps": list(e)} for e, c in order]}


def report_json_reference(report):
    """The JSON object of a report, its polynomials through json_reference."""
    out = {
        "check": report.name,
        "status": report.status,
        "residuals": {k: json_reference(r) for k, r in report.residuals.items()},
        "elapsed_seconds": report.elapsed,
    }
    if report.extras:
        out["extras"] = {k: json_reference(e) for k, e in report.extras.items()}
    return out


@st.composite
def writer_poly(draw):
    """A polynomial in d = 1..4 whose coefficients have integer, shared or
    mixed denominators, of either sign; the terms may cancel to zero."""
    d = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 5)] * (d + 1))
    dens = draw(st.sampled_from([[1], [6], [1, 2, 3, 4, 6, 7, 12, 2**70 + 1]]))
    coeffs = st.builds(Fraction, st.integers(-10**25, 10**25), st.sampled_from(dens))
    return MultiPoly(d, dict(draw(st.lists(st.tuples(exps, coeffs), max_size=12))))


@settings(max_examples=150, deadline=None)
@given(writer_poly())
@example(MultiPoly.zero(2))
@example(MultiPoly(1, {(0, 3): 4, (2, 0): -5, (1, 1): 7}))  # denominator 1
@example(MultiPoly(2, {(2, 0, 0): F(-3, 4), (0, 3, 0): F(5, 6), (0, 0, 1): F(1, 3), (1, 0, 0): F(-7, 2)}))
def test_json_text_is_json_dumps_of_the_reference(p):
    _assert_writes_the_reference(p)


def _assert_writes_the_reference(p):
    assert p.to_json_text() == json.dumps(json_reference(p))
    assert p.to_json_dict() == json_reference(p)


def test_json_text_writes_a_coefficient_over_4300_digits():
    # the writers need no lifted digit limit; the reference's str(Fraction) does
    p = MultiPoly(1, {(0, 2): F(10**5000 // 9, 3), (1, 1): F(-1, 7)})
    text, obj = p.to_json_text(), p.to_json_dict()
    assert len(text) > 5000
    with _int_digits(0):
        assert text == json.dumps(json_reference(p))
        assert obj == json_reference(p)


def test_text_of_a_coefficient_over_4300_digits_keeps_the_digit_limit():
    # Python refuses int -> str past 4300 digits by default: the writers
    # lift that limit themselves and put it back
    p = MultiPoly(1, {(0, 2): F(10**5000 // 9, 3)})
    limit = sys.get_int_max_str_digits()
    digits = "1" * 5000  # the digits of 10**5000 // 9
    assert str(p) == f"{digits}/3*y1^2"
    assert repr(p) == f"MultiPoly(d=1, {digits}/3*y1^2)"
    assert json.loads(p.to_json_text())["terms"] == [{"coeff": f"{digits}/3", "exps": [0, 2]}]
    assert sys.get_int_max_str_digits() == limit


def test_report_json_text_is_json_dumps_of_the_reference():
    t, y = variables(1)
    g = random_harmonic_poly(random.Random(5), 1, 6) + t * t - y * y
    h = solve(DiffEqProblem(g, 1))
    reports = [
        oracle_compare(g, h),  # passes: extras r and h_oracle
        oracle_compare(g, h + t * y),  # fails: nonzero residuals, extras h_oracle
        verify_difference(h, g),
        VerificationReport(
            'a "quoted" n\u00e4me', {"zero": MultiPoly.zero(1), "x": h - t}, {"e\n": g}, 1e-7
        ),
    ]
    assert reports[0].passed and set(reports[0].extras) == {"r", "h_oracle"}
    assert not reports[1].passed
    for report in reports:
        assert report.to_json_text() == json.dumps(report_json_reference(report))


# -- the canonical integer-numerator form --------------------------------------


def _assert_canonical(r):
    """r is stored in canonical form: nonzero integer numerators on tuple
    exponents of length d+1, over a positive denominator coprime to their
    content (1 for zero), and equals what the public constructor makes of
    its own terms, which are nonzero Fractions."""
    assert isinstance(r, MultiPoly)
    num, den = r.as_integer_ratio()
    assert type(den) is int and den > 0
    for exps, v in num.items():
        assert type(exps) is tuple and len(exps) == r.d + 1
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(v) is int and v != 0
    assert math.gcd(den, *num.values()) == 1
    terms = r.terms
    assert all(type(c) is Fraction and c != 0 for c in terms.values())
    assert r == MultiPoly(r.d, terms)


@st.composite
def kernel_case(draw):
    d = draw(st.integers(1, 4))
    p, q = draw(poly_st(d)), draw(poly_st(d))
    f = draw(poly_st(d)).trace(0)
    g = draw(poly_st(d)).trace(0)
    s = draw(shifts)
    return p, q, f, g, s


@settings(max_examples=60, deadline=None)
@given(kernel_case())
def test_internal_results_are_canonical(case):
    p, q, f, g, s = case
    d = p.d
    zero = MultiPoly.zero(d)
    harmonic = even_ck_extension(f) + odd_ck_extension(g)
    c = s if s else F(1, 2)
    results = [
        p + q, p - q, p - p, p + (-p), -p, p * q, (p + q) * (p - q), p * zero, zero * p, p * 0,
        p.scale(s), p.scale(0), p.integrate_t(), p.shift_t(s), p.negate_t(),
        *p.parity_split_t(), p.trace(s), p.trace(0), p.laplacian(), p.laplacian_y(),
        *(p.derivative(var) for var in range(d + 1)),
        harmonic, harmonic.laplacian(), even_ck_extension(f), odd_ck_extension(g),
        cauchy_extension(f, g), cauchy_extension(zero, zero),
        trace_operator(c, f), trace_operator(0, f), invert_trace_operator(c, f),
        poisson_solve(f),
    ]
    assert harmonic.laplacian().is_zero and (p - p).is_zero and p.scale(0).is_zero
    for r in results:
        _assert_canonical(r)
    # the Bernoulli route, and its CK extension in y1 of data free of y1
    u0, u1 = (MultiPoly(d, {e: c for e, c in r.terms.items() if not e[1]}) for r in (p, q))
    for r in (oracle_solve(harmonic), harmonic_part(u0, u1), harmonic_part(u0.scale(s), u0)):
        _assert_canonical(r)


def _laplacian_reference(terms, axes):
    """The sum of the second partials in the variables of index in axes."""
    out = {}
    for exps, c in terms.items():
        for var in axes:
            n = exps[var]
            if n > 1:
                e = exps[:var] + (n - 2,) + exps[var + 1 :]
                out[e] = out.get(e, Fraction(0)) + c * n * (n - 1)
    return {e: c for e, c in out.items() if c}


# numerators to 10**40 over products of up to four large primes
big_rationals = st.builds(
    lambda n, ps: F(n, math.prod(ps)),
    st.integers(-(10**40), 10**40).filter(bool),
    st.lists(st.sampled_from([1, 2, 3, 7, 2**61 - 1, 10**9 + 7, 998244353]), max_size=4),
)


@st.composite
def big_denominator_poly(draw):
    d = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 5) for _ in range(d + 1)])
    return MultiPoly(d, dict(draw(st.lists(st.tuples(exps, big_rationals), max_size=12))))


@settings(max_examples=100, deadline=None)
@given(big_denominator_poly())
def test_integer_laplacian_matches_fraction_reference(p):
    every = range(p.d + 1)
    for axes, lap in ((every, p.laplacian()), (every[1:], p.laplacian_y())):
        got = lap.terms
        assert got == _laplacian_reference(p.terms, axes)
        assert all(type(c) is Fraction and c for c in got.values())
    # on numerators: the y-Laplacian term by term, and as the second step of
    # a chain walk
    num, den = p.as_integer_ratio()
    got = MultiPoly._reduced(p.d, _laplacian_y_num(num), den).terms
    assert got == _laplacian_reference(p.terms, every[1:])
    steps = poly._chain(num, poly._MonomialIndex())
    lap = {e: c * v for c, step in steps[1:2] for e, v in step.items()}
    got = MultiPoly._reduced(p.d, lap, den).terms
    assert got == _laplacian_reference(p.terms, every[1:])
    # the full Laplacian is computed once and kept
    assert p.laplacian() is p.laplacian()
    # cancellation to zero: t^2 y^2 - (t^4 + y^4)/6 is harmonic at every d
    d = p.d
    h = MultiPoly(d, {(2, 2) + (0,) * (d - 1): 1, (4,) + (0,) * d: F(-1, 6), (0, 4) + (0,) * (d - 1): F(-1, 6)})
    assert h.laplacian().as_integer_ratio() == ({}, 1)


@st.composite
def walk_inputs(draw):
    """A dimension d = 1..5 and a few numerator maps of dimension d in
    drawn order: sparse with large coefficients, dense up to a small degree,
    zero, or a part whose y-Laplacian cancels in full, plus sparse terms
    that keep the chain going."""
    d = draw(st.integers(1, 5))
    axes = range(1, d + 1)
    exps = st.tuples(*[st.integers(0, 5) for _ in range(d + 1)])
    sparse = st.lists(st.tuples(exps, big_rationals), max_size=12).map(dict)

    def dense(seed, n):
        rng = random.Random(seed)
        every = itertools.product(range(n + 1), repeat=d + 1)
        return {e: rng.randint(-9, 9) or 1 for e in every if sum(e) <= n}

    def cancelling(k, extra):
        # t^k (6 a^2 b^2 - a^4 - b^4) for two axes a, b has Lap_y = 0, both
        # of its targets cancelling; at d = 1 there is one axis a, and
        # t^k a has Lap_y = 0
        a, b = axes[0], axes[-1]
        terms = {}
        for ea, eb, c in ((2, 2, 6), (4, 0, -1), (0, 4, -1)) if a != b else ((1, 1, 1),):
            e = [0] * (d + 1)
            e[0], e[a], e[b] = k, ea, eb
            terms[tuple(e)] = c
        return {**extra, **terms}

    kinds = st.one_of(
        sparse,
        st.builds(dense, st.integers(0, 2**32), st.integers(0, 4 if d < 4 else 3)),
        st.just({}),
        st.builds(cancelling, st.integers(0, 3), sparse),
    )
    polys = draw(st.lists(kinds, min_size=1, max_size=5))
    return d, [MultiPoly(d, terms).as_integer_ratio()[0] for terms in polys]


@settings(max_examples=80, deadline=None)
@given(walk_inputs())
def test_chain_steps_are_primitive_and_scale_to_the_laplacian_powers(case):
    # walks in drawn order on one shared index: each gives the chain a walk
    # on a fresh index gives, every step has numerator gcd 1, and its content
    # times the step is Lap_y^k of the input
    d, nums = case
    axes = range(1, d + 1)
    index = poly._MonomialIndex()
    for num in nums:
        steps = poly._chain(num, index)
        assert steps == poly._chain(num, poly._MonomialIndex())
        power = num
        for content, step in steps:
            assert content > 0 and math.gcd(*step.values()) == 1
            assert {e: content * v for e, v in step.items()} == power
            power = _laplacian_reference(power, axes)
        assert not power  # the chain ends at the first zero power
    # the index: one id per tuple, and each filled target is Lap_y of its
    # monomial
    assert [index.ids[e] for e in index.keys] == list(range(len(index.keys)))
    for e, targets in zip(index.keys, index.targets):
        if targets is not None:
            lap = {index.keys[j]: w for j, w in targets}
            assert lap == _laplacian_reference({e: 1}, axes)


def test_each_laplacian_chain_is_walked_once(monkeypatch):
    # poly._chain is the one loop that applies a Laplacian repeatedly, and a
    # polynomial keeps the y-chain it walks: Poisson walks its whole input
    # once, the slab solver the chains of f0, f1, u0 and u1 (not f0's again
    # if f0 was walked before, and not u0's at a = 0, where u0 is f0), all
    # on one index, so that each monomial's targets are computed once per
    # slab solve, and the diffeq solver those of p = dg/dt(0,y) and of its
    # slab solve's three.  The term-by-term kernel _laplacian_y_num serves
    # laplacian_y alone, and no index outlives the call that made it.
    package = [m for name, m in sys.modules.items() if name.partition(".")[0] == "slab_harmonics"]
    walked, fills, callers, poissons = [], [], [], []
    chain, kernel, poisson = poly._chain, poly._laplacian_y_num, poisson_solve
    fill = poly._MonomialIndex._fill
    assert [m for m in package if vars(m).get("_laplacian_y_num") is kernel] == [poly]

    def counting_chain(num, index):
        steps = chain(num, index)
        walked.append((num, id(index), [set(step) for _, step in steps]))
        return steps

    for module in package:
        if vars(module).get("_chain") is chain:
            monkeypatch.setattr(module, "_chain", counting_chain)
    bound = [m for m in package if vars(m).get("poisson_solve") is poisson]
    assert sys.modules["slab_harmonics.diffeq"] in bound
    for module in bound:
        monkeypatch.setattr(module, "poisson_solve", lambda f: poissons.append(f) or poisson(f))

    def counting_kernel(num):
        callers.append(sys._getframe(1).f_code.co_name)
        return kernel(num)

    def counting_fill(index, i):
        fills.append((id(index), index.keys[i]))
        return fill(index, i)

    monkeypatch.setattr(poly, "_laplacian_y_num", counting_kernel)
    monkeypatch.setattr(poly._MonomialIndex, "_fill", counting_fill)

    def live_indices():
        gc.collect()
        return [o for o in gc.get_objects() if type(o) is poly._MonomialIndex]

    def walked_nums():
        return [num for num, _, _ in walked]

    _, y1, y2 = variables(2)
    f = y1 ** 6 * y2 - (y1 * y2).scale(F(2, 3)) + MultiPoly.constant(2, 5) + y2 ** 4
    assert len({sum(e) for e in f.terms}) >= 3
    poisson_solve(f)
    assert walked_nums() == [f.as_integer_ratio()[0]]
    assert set(callers) == {"laplacian_y"}

    rng = random.Random(41)
    for a, f0, f1, fresh in (
        (F(-1, 2), _fresh(f), y1 * y2, 2),
        (F(0), _fresh(f), MultiPoly.zero(2), 2),
        (F(1, 3), MultiPoly.zero(2), MultiPoly.zero(2), 2),
        (F(1, 3), f, y2 ** 3, 1),  # the Poisson solve above walked f
    ):
        walked.clear()
        fills.clear()
        solve_slab(SlabProblem(a, F(2), 2, f0, f1))
        # f0 and f1 when fresh, then u0 unless it is f0, and u1
        assert len(walked) == fresh + (1 if a == 0 else 2)
        data = [f0.as_integer_ratio()[0], f1.as_integer_ratio()[0]]
        assert walked_nums()[:fresh] == data[2 - fresh :]
        # one index, and each monomial any walk reached got its targets once
        (index,) = {index for _, index, _ in walked}
        reached = set().union(*(keys for _, _, steps in walked for keys in steps))
        assert sorted(fills) == sorted((index, e) for e in reached)
        assert not live_indices()

    callers.clear()
    for d in (1, 2, 3):
        g = random_harmonic_poly(rng, d, 9, max_terms=5)
        walked.clear()
        fills.clear()
        solve_slab(SlabProblem(F(1, 3), F(2), d, g.trace(0), g.trace(1)))
        assert len({index for _, index, _ in walked}) == 1
        assert len(fills) == len(set(fills))
        p = g.derivative(0).trace(0)
        assert not p.is_zero
        walked.clear()
        poissons.clear()
        solve(DiffEqProblem(g, d))
        # K G reads the chain of p that the Poisson solve walked
        assert poissons == [p]
        # p, then the slab solve's f0 = u0 and f1 = u0 + f, then u1
        assert len(walked) == 4
        assert walked_nums()[0] == p.as_integer_ratio()[0]
        assert len({index for _, index, _ in walked[1:]}) == 1
        oracle_solve(g)
        assert not live_indices()
    assert set(callers) == {"laplacian_y"}


def test_the_final_reduce_of_a_cauchy_extension_divides_nothing(monkeypatch):
    # the CK kernel divides den and every scalar by their common gcd, each
    # step's numerators are primitive and no two terms share a key, so the
    # _reduce that wraps its output finds gcd 1 and hands back what it got
    reduce, seen = poly._reduce, []

    def recording(num, den):
        out = reduce(num, den)
        if sys._getframe(2).f_code.co_name == "_cauchy_extension":
            seen.append(out[0] is num and out[1] == den)
        return out

    monkeypatch.setattr(poly, "_reduce", recording)
    rng = random.Random(47)
    for d in (1, 2, 3, 4):
        for _ in range(12):
            degree = (16, 10, 8, 6)[d - 1]
            u0, u1 = (random_tfree_poly(rng, d, degree, max_terms=6) for _ in range(2))
            for pair in ((u0, u1), (u0, MultiPoly.zero(d)), (MultiPoly.zero(d), u1)):
                cauchy_extension(*pair)
    prob = SlabProblem(F(1, 3), F(2), 1, MultiPoly(1, {(0, 200): 1}), MultiPoly.zero(1))
    solve_slab(prob)
    assert len(seen) == 4 * 12 * 3 + 1 and all(seen)


def test_a_chain_walk_that_does_not_end_raises(monkeypatch):
    # a kernel that maps each monomial to itself never lowers the degree: the
    # walk stops at top // 2 + 1 steps instead of running on
    monkeypatch.setattr(poly._MonomialIndex, "_fill", lambda index, i: [(i, 1)])
    num = MultiPoly(2, {(0, 3, 2): 1, (0, 1, 0): 2}).as_integer_ratio()[0]
    with pytest.raises(ArithmeticError, match="3 steps"):
        poly._chain(num, poly._MonomialIndex())


def _fresh(p):
    """A copy of p that keeps nothing yet: no Laplacian, grouping or y-chain."""
    return MultiPoly(p.d, p.terms)


def _monomial(d, exps, c=1):
    return MultiPoly(d, {tuple(exps): c})


@st.composite
def harmonicity_cases(draw):
    """Harmonic polynomials, with and without a one-monomial tamper, random
    ones, t-free and pure-t ones, zero, and sums whose Laplacian cancels
    across fibres (t^2 - y1^2) or within one (y1^2 - y2^2, no fibre of its
    own at y^0), or leaves only a shorter t-part ((y1^2 - y2^2) t + t^2)."""
    d = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    v = draw(st.integers(1, d))
    w = draw(st.integers(1, d).filter(lambda w: w != v or d == 1))
    t, *ys = variables(d)
    y, z = ys[v - 1], ys[w - 1]
    c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
    m = _monomial(d, [0] + draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    p = draw(st.sampled_from([
        random_harmonic_poly(rng, d, draw(st.integers(0, 9))),
        draw(poly_st(d)),
        random_tfree_poly(rng, d, 6),
        MultiPoly(d, {(k,) + (0,) * d: random_rational(rng) for k in range(rng.randint(0, 6))}),
        MultiPoly.zero(d),
        (t * t - y * y).scale(c),
        (y * y - z * z).scale(c),
        (y * y - z * z) * m,
        # at y^0 the t-part 2c meets two longer y-parts 2t and -2t
        (y * y - z * z) * t + (t * t).scale(c),
        t * t * y * y - (t ** 4 + y ** 4).scale(F(1, 6)),
    ]))
    if draw(st.booleans()):
        exps = draw(st.lists(st.integers(0, 4), min_size=d + 1, max_size=d + 1))
        p = p + _monomial(d, exps, c)
    return p


@settings(max_examples=300, deadline=None)
@given(harmonicity_cases())
def test_laplacian_on_the_grouping_matches_the_reference(p):
    _check_laplacian(p)


def test_laplacian_on_cancelling_sums():
    # each case in every dimension and for every pair of y-variables, so
    # that no cancellation across or within fibres depends on a draw
    for d in range(1, 5):
        t, *ys = variables(d)
        for v in ys:
            _check_laplacian(t * t - v * v)
            _check_laplacian(t * t * v * v - (t ** 4 + v ** 4).scale(F(1, 6)))
            for w in ys:
                _check_laplacian(v * v - w * w)
                _check_laplacian((v * v - w * w) * t + (t * t).scale(3))
                _check_laplacian((v * v - w * w) * t ** 3 + (t ** 4 - w ** 4).scale(F(1, 5)))
    # d = 1 at t-degree 64, fibres up to 65 long: Re (t + i y1)^64 and
    # Im (t + i y1)^61, then one monomial more in the middle of a fibre
    def power(n, odd):
        return {(n - j, j): F((-1) ** (j // 2) * math.comb(n, j), 7) for j in range(odd, n + 1, 2)}

    h = MultiPoly(1, power(64, 0)) + MultiPoly(1, power(61, 1))
    assert h.laplacian().is_zero and max(e[0] for e in h.terms) == 64
    _check_laplacian(h)
    _check_laplacian(h + _monomial(1, (33, 5), F(-3, 11)))


def _check_laplacian(p):
    expected = _laplacian_reference(p.terms, range(p.d + 1))
    q = _fresh(p)
    lap = q.laplacian()
    assert lap.terms == expected
    assert lap.is_zero == (not expected)
    _assert_canonical(lap)
    assert q.laplacian() is lap
    # the Laplacian leaves the kept grouping whole, and so does shift_t,
    # which groups afresh because it rewrites its lists
    num = q.as_integer_ratio()[0]
    assert q._fibres() == _t_fibres(num)
    q.shift_t(F(3, 2))
    assert q._fibres() == _t_fibres(num)
    assert q.traces(F(3, 2)) == [_fresh(p).trace(F(3, 2))]
    # the grouping built first, by traces, serves the Laplacian too
    q = _fresh(p)
    q.traces(F(1, 2), 2)
    assert q.laplacian().terms == expected


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 1)] * (d + 1)),
                st.one_of(st.fractions(max_denominator=5), big_rationals),
                st.integers(1, 10**6),
            ),
            max_size=10,
        ).map(lambda items: (d, items))
    )
)
def test_json_reader_sums_repeated_exponents(case):
    # each coefficient written unreduced, as k p / k q, and every third term
    # repeated with the opposite sign, so that it cancels
    d, items = case
    items = items + [(e, -c, k + 1) for e, c, k in items[::3]]
    obj = {
        "d": d,
        "terms": [
            {"coeff": f"{c.numerator * k}/{c.denominator * k}", "exps": list(e)} for e, c, k in items
        ],
    }
    expected = {}
    for e, c, _ in items:
        expected[e] = expected.get(e, Fraction(0)) + c
    p = MultiPoly.from_json_dict(obj)
    assert p.terms == {e: c for e, c in expected.items() if c}
    _assert_canonical(p)
    # the writer prints each coefficient as str(Fraction) does
    written = p.to_json_dict()["terms"]
    assert {tuple(t["exps"]): t["coeff"] for t in written} == {e: str(c) for e, c in p.terms.items()}


def test_json_reader_drops_a_term_that_cancels():
    obj = {"d": 1, "terms": [
        {"coeff": "1/2", "exps": [1, 0]}, {"coeff": "3", "exps": [0, 1]}, {"coeff": "-1/2", "exps": [1, 0]},
    ]}
    assert MultiPoly.from_json_dict(obj).terms == {(0, 1): F(3)}


def _reader_reference(obj):
    """The reader read term by term, each key in turn, summing Fractions:
    the terms of the polynomial, or the first malformed term's error."""
    d, items = obj["d"], obj["terms"]
    out = {}
    for item in items:
        if not isinstance(item, Mapping):
            raise ValueError(f"a term must be an object, got {item!r}")
        exps = item["exps"]
        if type(exps) is not list or not {int}.issuperset(map(type, exps)):
            raise ValueError(f"exponents must be a list of integers: {exps!r}")
        exps = tuple(exps)
        if len(exps) != d + 1:
            raise ValueError(f"exponent vector {exps} has length {len(exps)}, expected {d + 1}")
        if min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
        value = item["coeff"]
        if not isinstance(value, str):
            raise ValueError(f"a rational must be a string \"p/q\", got {value!r}")
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if not (digits.isdigit() and value.isascii() and (den.isdigit() or not slash)):
            raise ValueError(f"invalid rational {value!r}: expected \"p/q\" or \"p\" in decimal digits")
        q = int(den) if slash else 1
        if not q:
            raise ValueError(f"invalid rational {value!r}: zero denominator")
        out[exps] = out.get(exps, 0) + Fraction(int(num), q)
        if len(item) != 2:
            raise ValueError(f"a term takes only 'coeff' and 'exps', got keys {sorted(item)}")
    return {e: c for e, c in out.items() if c}


# (kind, value) of each way _spoil_term makes a term malformed, or, for
# "mapping", valid in a Mapping that is no dict
SPOILS = [
    *(("exp", v) for v in (True, False, 1.0, -1, "1", None)),
    ("exps", "short"), ("exps", "long"), ("exps", "tuple"), ("exps", None),
    ("key", "x"), ("missing", "coeff"), ("missing", "exps"), ("mapping", None),
    *(("coeff", v) for v in ("+1", " 1", "1.5", "1\n2", "\u0663", "1/0", "-0/0", "1/", "/2", "-", "", "1/-2", "\u00b2", 1, None)),
    *(("object", v) for v in ([0, 1], "1", None, 3)),
    ("coeff", "7" * 700), ("coeff", "1/" + "3" * 700),  # over the digit limit set below
]


def _spoil_term(term, kind, value, k):
    """A copy of the JSON term spoiled as `kind` says, at exponent k."""
    term = dict(term, exps=list(term["exps"]))
    if kind == "exp":
        term["exps"][k % len(term["exps"])] = value
    elif kind == "exps":
        exps = term["exps"]
        term["exps"] = {"short": exps[:-1], "long": exps + [0], "tuple": tuple(exps)}.get(value)
    elif kind == "key":
        term[value] = 1
    elif kind == "missing":
        del term[value]
    elif kind == "mapping":
        return MappingProxyType(term)
    elif kind == "coeff":
        term["coeff"] = value
    else:
        return value
    return term


@st.composite
def reader_case(draw):
    """A valid JSON polynomial in some term order, with some terms repeated
    to cancel, and up to two terms spoiled."""
    p = draw(big_denominator_poly())
    obj = p.to_json_dict()
    terms = obj["terms"]
    if terms and draw(st.booleans()):
        for t in draw(st.lists(st.sampled_from(terms), max_size=3)):
            terms.append({"coeff": str(-Fraction(t["coeff"])), "exps": t["exps"]})
    n = draw(st.sampled_from([0, 1, 1, 2]))
    terms += [{"coeff": "1", "exps": [0] * (p.d + 1)}] * draw(st.integers(max(n - len(terms), 0), n))
    terms = draw(st.permutations(terms))
    for i in draw(st.permutations(range(len(terms))))[:n]:
        terms[i] = _spoil_term(terms[i], *draw(st.sampled_from(SPOILS)), draw(st.integers(0, 4)))
    obj["terms"] = terms
    return obj


def _read_both(obj):
    """(bulk reader, reference) outcomes: terms, or error type and message,
    under Python's smallest int <-> str digit limit."""
    outcomes = []
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for read in (lambda o: MultiPoly.from_json_dict(o).terms, _reader_reference):
            try:
                outcomes.append(read(obj))
            except (KeyError, ValueError) as exc:
                outcomes.append((type(exc), str(exc)))
    finally:
        sys.set_int_max_str_digits(old)
    return outcomes


@settings(max_examples=300, deadline=None)
@given(reader_case())
def test_json_reader_matches_the_per_term_reference(obj):
    bulk, reference = _read_both(obj)
    assert bulk == reference


@pytest.mark.parametrize("spoil", SPOILS, ids=repr)
def test_json_reader_names_the_first_bad_term(spoil):
    good = [{"coeff": "1/2", "exps": [1, 0, 2]}, {"coeff": "-3", "exps": [0, 1, 0]}]
    cases = [
        [],
        good + [{"coeff": "2/4", "exps": [0, 1, 0]}, {"coeff": "-1/2", "exps": [1, 0, 2]}],
        [_spoil_term(good[0], *spoil, 1)] + good,
        good + [_spoil_term(good[1], *spoil, 2)],
        # a term spoiled otherwise comes first, and is named
        [_spoil_term(good[1], "coeff", "1/0", 0), _spoil_term(good[0], *spoil, 0)],
    ]
    for terms in cases:
        bulk, reference = _read_both({"d": 2, "terms": terms})
        assert bulk == reference
    assert reference == (ValueError, "invalid rational '1/0': zero denominator")


def test_public_constructor_still_validates():
    for bad in [
        lambda: MultiPoly(0),
        lambda: MultiPoly.zero(0),
        lambda: MultiPoly(-1, {}),
        lambda: MultiPoly(1, {(1,): 1}),
        lambda: MultiPoly(1, {(1, 0, 0): 1}),
        lambda: MultiPoly(2, {(0, -1, 0): 1}),
    ]:
        with pytest.raises(ValueError):
            bad()
    p = MultiPoly(1, {(0, 1): 0, (1, 0): "2/4", (2, 0): 3})
    assert p.terms == {(1, 0): F(1, 2), (2, 0): F(3)}
    assert p.as_integer_ratio() == ({(1, 0): 1, (2, 0): 6}, 2)
    _assert_canonical(p)
    for d in (1, 3):
        _assert_canonical(MultiPoly.zero(d))
        assert MultiPoly.zero(d) == MultiPoly(d)


# -- every kernel against a plain-Fraction reference ---------------------------


def _sum_reference(p, q, sign):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return _clean(out)


def _mul_reference(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _clean(out)


def _derivative_reference(p, var):
    out = {}
    for exps, c in p.items():
        if exps[var]:
            e = list(exps)
            e[var] -= 1
            out[tuple(e)] = c * exps[var]
    return out


def _integrate_t_reference(p):
    return {(e[0] + 1,) + e[1:]: c / (e[0] + 1) for e, c in p.items()}


@st.composite
def big_denominator_pair(draw):
    """Two polynomials of one d = 1..4 with denominators up to products of
    four large primes, the second sharing some monomials with the first,
    and two rationals of the same kind."""
    d = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 4) for _ in range(d + 1)])
    p = dict(draw(st.lists(st.tuples(exps, big_rationals), max_size=10)))
    shared = st.sampled_from(sorted(p)) if p else exps
    q = dict(draw(st.lists(st.tuples(st.one_of(exps, shared), big_rationals), max_size=10)))
    return MultiPoly(d, p), MultiPoly(d, q), draw(big_rationals), draw(big_rationals)


@settings(max_examples=150, deadline=None)
@given(big_denominator_pair())
def test_kernels_match_fraction_reference(case):
    p, q, c, s = case
    a, b = p.terms, q.terms
    checks = [
        (p + q, _sum_reference(a, b, 1)),
        (p - q, _sum_reference(a, b, -1)),
        (p - p, {}),
        (p + (-p), {}),
        (-p, {e: -v for e, v in a.items()}),
        (p * q, _mul_reference(a, b)),
        (p.scale(c), _clean({e: v * c for e, v in a.items()})),
        (p.laplacian(), _laplacian_reference(a, range(p.d + 1))),
        (p.laplacian_y(), _laplacian_reference(a, range(1, p.d + 1))),
        (p.integrate_t(), _integrate_t_reference(a)),
        (p.shift_t(s), _shift_reference(a, s)),
        (p.trace(s), _trace_reference(a, s)),
        (p.trace(0), _trace_reference(a, 0)),
        (p.negate_t(), {e: -v if e[0] % 2 else v for e, v in a.items()}),
        *zip(p.parity_split_t(), ({e: v for e, v in a.items() if e[0] % 2 == k} for k in (0, 1))),
        *((p.derivative(var), _derivative_reference(a, var)) for var in range(p.d + 1)),
    ]
    for got, expected in checks:
        assert got.terms == expected
        _assert_canonical(got)
    assert (p == q) == (a == b)

"""CK extensions, the trace operator and its inverse, and the Poisson solver."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from slab_harmonics import (
    MultiPoly,
    bernoulli_polynomial,
    even_ck_extension,
    invert_trace_operator,
    odd_ck_extension,
    poisson_solve,
    trace_operator,
    variables,
)
from slab_harmonics.laplace import _cot_series, _series_product, _wall_series
from slab_harmonics.randgen import random_harmonic_poly, random_tfree_poly

F = Fraction


def test_even_ck_examples():
    t, y1 = variables(1)
    assert even_ck_extension(y1 * y1) == y1 * y1 - t * t
    assert even_ck_extension(MultiPoly.constant(1, 1)) == MultiPoly.constant(1, 1)
    assert even_ck_extension(y1 ** 4) == y1 ** 4 - (t * t * y1 * y1).scale(6) + t ** 4


def test_odd_ck_examples():
    t, y1 = variables(1)
    assert odd_ck_extension(y1 * y1) == t * y1 * y1 - (t ** 3).scale(F(1, 3))
    assert odd_ck_extension(MultiPoly.constant(1, 1)) == t
    assert odd_ck_extension(y1) == t * y1


def test_ck_rejects_t_dependent_input():
    t, _ = variables(1)
    with pytest.raises(ValueError):
        even_ck_extension(t)
    with pytest.raises(ValueError):
        odd_ck_extension(t * t)


def test_ck_cauchy_data_random():
    rng = random.Random(7)
    zero = {d: MultiPoly.zero(d) for d in (1, 2, 3)}
    for _ in range(30):
        d = rng.randint(1, 3)
        f = random_tfree_poly(rng, d, 9)
        h_even = even_ck_extension(f)
        h_odd = odd_ck_extension(f)
        assert h_even.laplacian() == zero[d]
        assert h_odd.laplacian() == zero[d]
        assert h_even.trace(0) == f
        assert h_even.derivative(0).trace(0) == zero[d]
        assert h_odd.trace(0) == zero[d]
        assert h_odd.derivative(0).trace(0) == f
        assert h_even.negate_t() == h_even
        assert h_odd.negate_t() == -h_odd


def test_ck_uniqueness_decomposition():
    # any harmonic P equals EvenCK(P(0,.)) + OddCK(dP/dt(0,.))
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(1, 3)
        p = random_harmonic_poly(rng, d, 8)
        rebuilt = even_ck_extension(p.trace(0)) + odd_ck_extension(
            p.derivative(0).trace(0)
        )
        assert rebuilt == p


def test_trace_operator_examples():
    _, y1 = variables(1)
    assert trace_operator(1, y1 * y1 + MultiPoly.constant(1, F(1, 3))) == y1 * y1
    assert trace_operator(1, y1) == y1  # harmonic data passes through at c=1
    assert trace_operator(F(1, 2), y1 * y1) == (y1 * y1).scale(F(1, 2)) - MultiPoly.constant(1, F(1, 24))


def test_invert_trace_operator_examples():
    _, y1 = variables(1)
    assert invert_trace_operator(1, y1 * y1) == y1 * y1 + MultiPoly.constant(1, F(1, 3))
    assert invert_trace_operator(1, y1) == y1
    assert invert_trace_operator(
        F(1, 2), (y1 * y1).scale(F(-1, 2)) + MultiPoly.constant(1, F(1, 24))
    ) == -(y1 * y1)


def test_invert_trace_operator_rejects_zero_height():
    _, y1 = variables(1)
    with pytest.raises(ValueError):
        invert_trace_operator(0, y1)


def test_trace_operator_round_trip_random():
    rng = random.Random(23)
    cases = []
    for _ in range(30):
        d = rng.randint(1, 3)
        c = F(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice((1, -1))
        cases.append((c, random_tfree_poly(rng, d, 9)))
    # deep series: 46 Laplacian powers at d=1, dense d=3 data of degree 12
    _, y1 = variables(1)
    dense = MultiPoly(3, {
        (0, i, j, k): F(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 5))
        for i in range(13) for j in range(13 - i) for k in range(13 - i - j)
    })
    cases += [(F(3, 2), y1 ** 90), (F(-2, 3), dense)]
    for c, g in cases:
        assert trace_operator(c, g) == odd_ck_extension(g).trace(c)  # L_c by definition
        assert invert_trace_operator(c, trace_operator(c, g)) == g
        assert trace_operator(c, invert_trace_operator(c, g)) == g


def test_invert_trace_operator_is_the_x_over_sin_x_series():
    # L_c^(-1) y^n = sum_k A_k c^(2k-1) Lap^k y^n, where A_k is the coefficient
    # of x^(2k) in x/sin(x): (-1)^(k+1) 2 (2^(2k-1) - 1) B_2k / (2k)!
    # (DLMF 4.19.4); c = -2/3 pins the wall powers and the sign
    n = 100
    _, y1 = variables(1)
    # B_n(x) = sum_j C(n,j) B_j x^(n-j): one Bernoulli polynomial gives each B_j
    bern = bernoulli_polynomial(n).terms
    for c in (F(1), F(-2, 3)):
        g = invert_trace_operator(c, y1 ** n)
        assert len(g.terms) == n // 2 + 1
        for k in range(n // 2 + 1):
            b_2k = bern[(n - 2 * k, 0)] / math.comb(n, 2 * k)
            a_k = (-1) ** (k + 1) * 2 * (F(2) ** (2 * k - 1) - 1) * b_2k / math.factorial(2 * k)
            lap_k = F(math.factorial(n), math.factorial(n - 2 * k))  # Lap^k y^n / y^(n-2k)
            assert g.terms[(0, n - 2 * k)] == a_k * c ** (2 * k - 1) * lap_k, (c, k)


def test_cot_series_is_the_bernoulli_series():
    # K = D cot(D/2) = sum_k K_k Lap^k with K_k = 2 (-1)^k B_2k / (2k)!
    n = 100
    bern = bernoulli_polynomial(n).terms
    nums, den = _cot_series(n // 2 + 1)
    assert len(nums) == n // 2 + 1
    for k in range(n // 2 + 1):
        b_2k = bern[(n - 2 * k, 0)] / math.comb(n, 2 * k)
        assert F(nums[k], den) == 2 * (-1) ** k * b_2k / math.factorial(2 * k), k


def test_cot_series_times_s1_is_one_plus_c1():
    # sin(x)/x * x cot(x/2) = 1 + cos(x), cut at n terms
    n = 60
    nums, den = _series_product(_wall_series(1, n, 1), _cot_series(n), n)
    c_nums, c_den = _wall_series(1, n, 0)
    assert [F(v, den) for v in nums] == [F(v, c_den) + (k == 0) for k, v in enumerate(c_nums)]


def test_operators_are_linear():
    rng = random.Random(5)
    for op in (
        even_ck_extension,
        odd_ck_extension,
        lambda p: trace_operator(F(3, 2), p),
        lambda p: invert_trace_operator(F(3, 2), p),
        poisson_solve,
    ):
        for _ in range(5):
            d = rng.randint(1, 3)
            p = random_tfree_poly(rng, d, 7)
            q = random_tfree_poly(rng, d, 7)
            a = F(rng.randint(-4, 4), rng.randint(1, 3))
            assert op(p.scale(a) + q) == op(p).scale(a) + op(q)


def test_poisson_examples():
    _, y1 = variables(1)
    assert poisson_solve(MultiPoly.constant(1, 1)) == (y1 * y1).scale(F(1, 2))
    assert poisson_solve(y1 * y1) == (y1 ** 4).scale(F(1, 12))
    t2, u1, u2 = variables(2)
    assert poisson_solve(u1 * u2) == ((u1 * u1 + u2 * u2) * u1 * u2).scale(F(1, 12))


def test_poisson_residual_random():
    rng = random.Random(99)
    for d in (1, 2, 3, 4):
        for _ in range(10):
            f = random_tfree_poly(rng, d, 10)
            g = poisson_solve(f)
            assert g.laplacian_y() == f  # poisson_solve also self-checks this


def test_poisson_solve_golden_digest():
    # sha256 of the canonical JSON of G, pinned from the solver that added
    # one MultiPoly per series step: seeded t-free data, d = 1..5
    rng = random.Random(101)
    sols = []
    for i in range(40):
        d = 1 + i % 5
        f = random_tfree_poly(rng, d, (24, 12, 8, 6, 5)[d - 1], max_terms=6)
        sols.append(poisson_solve(f).to_json_dict())
    digest = hashlib.sha256(json.dumps(sols, sort_keys=True).encode()).hexdigest()
    assert digest == "59ad62f51065cf77e9e393e277dc387904c64edbf9d936f6f6c7fed1ec60e188"

"""CK extensions, the trace operator and its inverse, and the Poisson solver."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from slab_harmonics import (
    MultiPoly,
    bernoulli_polynomial,
    cauchy_extension,
    even_ck_extension,
    invert_trace_operator,
    odd_ck_extension,
    poisson_solve,
    trace_operator,
    variables,
)
from slab_harmonics import diffeq
from slab_harmonics.laplace import _cot_series, _series, _wall_quotients
from slab_harmonics.poly import _chain, _MonomialIndex
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
    zero = MultiPoly.zero(1)
    with pytest.raises(ValueError):
        even_ck_extension(t)
    with pytest.raises(ValueError):
        odd_ck_extension(t * t)
    with pytest.raises(ValueError):
        cauchy_extension(t, zero)
    with pytest.raises(ValueError):
        cauchy_extension(zero, t)


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
    # any harmonic P equals EvenCK(P(0,.)) + OddCK(dP/dt(0,.)), which is the
    # extension of both Cauchy data at once
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(1, 4)
        p = random_harmonic_poly(rng, d, 8)
        assert p.laplacian().is_zero  # the fibre Laplacian, not the CK kernel
        u0, u1 = p.trace(0), p.derivative(0).trace(0)
        assert even_ck_extension(u0) + odd_ck_extension(u1) == p
        assert cauchy_extension(u0, u1) == p


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


def test_invert_trace_operator_takes_every_scalar_height():
    # like trace_operator, its inverse takes a height as a str, a float, a
    # Fraction or an int, and means the same rational by each
    _, y1 = variables(1)
    p = y1 ** 4 - (y1 * y1).scale(F(2, 7)) + y1
    for c, exact in (("3/2", F(3, 2)), (0.5, F(1, 2)), (F(3, 2), F(3, 2)), (2, F(2))):
        g = invert_trace_operator(c, p)
        assert g == invert_trace_operator(exact, p), c
        assert trace_operator(c, g) == p, c


def test_invert_trace_operator_rejects_zero_height():
    _, y1 = variables(1)
    for c in (0, "0", 0.0):
        with pytest.raises(ValueError):
            invert_trace_operator(c, y1)


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


def test_bernoulli_table_meets_von_staudt_clausen():
    # B_2k = (-1)^k (2k)! K_k / 2 from K's tangent numbers, for 2k <= 400,
    # the length of the chain of y^800, where no golden reaches:
    # B_2k + sum_((p-1) | 2k) 1/p is an integer (von Staudt-Clausen), so the
    # denominator of B_2k is the product of those primes p; and B_2k has the
    # sign (-1)^(k-1)
    n = 201
    nums, den = _cot_series(n)
    bern = [(-1) ** k * math.factorial(2 * k) * F(v, den) / 2 for k, v in enumerate(nums)]
    assert len(bern) == n and bern[:4] == [1, F(1, 6), F(-1, 30), F(1, 42)]
    assert bern[6] == F(-691, 2730)
    primes = [p for p in range(2, 2 * n) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for k, b in enumerate(bern[1:], 1):
        ps = [p for p in primes if (2 * k) % (p - 1) == 0]
        assert b.denominator == math.prod(ps), k
        assert (b + sum(F(1, p) for p in ps)).denominator == 1, k
        assert (b > 0) == (k % 2 == 1), k


def test_cot_series_is_the_quotient_c_half_over_s_half():
    # K = D cot(D/2) = C_(1/2) / S_(1/2): the tangent-number series against the
    # quotient recurrence, cut at n terms
    n = 60
    nums, den = _cot_series(n)
    q_nums, q_den = _wall_quotients(F(1, 2), F(1, 2), n)[0]
    assert [F(v, den) for v in nums] == [F(v, q_den) for v in q_nums]


@pytest.mark.parametrize("f", [
    MultiPoly(1, {(0, 400): 1}),
    random_tfree_poly(random.Random(47), 3, 14, max_terms=8),
], ids=["y^400", "random-d3"])
def test_wall_quotients_times_s_w_are_the_ck_traces(f):
    # S_w (C_x / S_w) f = C_x f and S_w (S_x / S_w) f = S_x f, the even and
    # odd CK extensions of f at t = x: the right sides come from the CK
    # kernel and traces, past the length the y^200 golden reaches (a chain
    # of 201 steps for y^400)
    n = len(f._y_chain())
    even, odd = even_ck_extension(f), odd_ck_extension(f)
    for a, b in ((F(1, 3), F(2)), (F(-7, 5), F(3, 11)), (F(0), F(1))):
        w = b - a
        for x in (a, b):
            cos_q, sin_q = _wall_quotients(x, w, n)
            assert trace_operator(w, _series(f, cos_q)) == even.trace(x), (a, b, x)
            assert trace_operator(w, _series(f, sin_q)) == odd.trace(x), (a, b, x)


def test_a_diffeq_solve_builds_one_bernoulli_table(monkeypatch):
    # K reads the tangent numbers; the slab solve reads quotients by the
    # sine series, so a diffeq solve builds K once (diffeq binds the name
    # _cot_series at import, so the patch is on diffeq)
    calls = []
    cot_series = diffeq._cot_series
    monkeypatch.setattr(diffeq, "_cot_series", lambda n: calls.append(n) or cot_series(n))
    rng = random.Random(53)
    for d in (1, 2, 3):
        g = random_harmonic_poly(rng, d, 9, max_terms=5)
        calls.clear()
        diffeq.solve(diffeq.DiffEqProblem(g, d))
        assert len(calls) == 1, (d, calls)


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


def _poisson_power_table(f):
    """The radial ansatz per homogeneous component f_m from public MultiPoly
    ops: sum_m sum_k c_k |y|^(2k+2) Lap_y^k f_m, c_k = (-1)^k / q_k with
    q_k = prod_(i=0..k) 2(i+1)(2m-2i+d)."""
    d = f.d
    r2 = MultiPoly(d, {(0,) * j + (2,) + (0,) * (d - j): 1 for j in range(1, d + 1)})
    total = MultiPoly.zero(d)
    for m in {sum(e) for e in f.terms}:
        term = MultiPoly(d, {e: c for e, c in f.terms.items() if sum(e) == m})
        k, q = 0, 2 * (2 * m + d)
        while not term.is_zero:
            total += (r2 ** (k + 1) * term).scale(F((-1) ** k, q))
            term = term.laplacian_y()
            k += 1
            q *= 2 * (k + 1) * (2 * m - 2 * k + d)
    return total


def _stored(p):
    """The integer numerators and the denominator p keeps."""
    return p._num, p._den


def test_poisson_solve_is_the_power_table_sum_on_dense_data():
    # dense data with every monomial up to the degree, where the one-chain
    # Horner sum and the per-component products differ most
    # (and d = 1 at degree 64, where the weights' recurrence runs 33 steps)
    rng = random.Random(29)
    for d, degree in ((1, 64), (2, 16), (3, 12), (4, 8), (5, 6), (6, 5)):
        exps = [e for e in itertools.product(range(degree + 1), repeat=d) if sum(e) <= degree]
        f = MultiPoly(d, {(0,) + e: F(rng.randint(-9, 9), rng.randint(1, 6)) for e in exps})
        assert len(f.terms) > len(exps) // 2
        assert _stored(poisson_solve(f)) == _stored(_poisson_power_table(f))


def test_a_polynomial_keeps_the_y_chain_a_walk_gives(monkeypatch):
    # a polynomial walks its y-chain on first use and keeps it; poisson_solve
    # walks the chain of its input p and sets none on its result G.  Lap_y G
    # = p exactly, so K G = K_0 G + sum_(k>=1) K_k Lap_y^(k-1) p, bit for bit
    walks = []
    monkeypatch.setattr(
        "slab_harmonics.poly._chain", lambda num, index: walks.append(num) or _chain(num, index)
    )
    rng = random.Random(37)
    for d in (1, 2, 3, 4):
        for _ in range(6):
            p = random_tfree_poly(rng, d, (20, 12, 8, 6)[d - 1], max_terms=6)
            if p.is_zero:
                continue
            walks.clear()
            g = poisson_solve(p)
            assert walks == [p._num]
            assert hasattr(p, "_ych") and not hasattr(g, "_ych")
            nums, den = _cot_series(len(p._y_chain()) + 1)
            kp = _series(p, (nums[1:], den))
            kg = _series(g, (nums, den))
            assert len(walks) == 2  # p's chain is kept, G's walked
            assert _stored(kg) == _stored(g.scale(F(nums[0], den)) + kp)
            # a second series on G walks nothing
            again = _series(g, (nums, den))
            assert len(walks) == 2 and _stored(again) == _stored(kg)
            assert g._y_chain() == _chain(g._num, _MonomialIndex())
            # a copy of G, which keeps no chain, walks its own to the same steps
            copy = MultiPoly(d, g.terms)
            walked = _series(copy, (nums, den))
            assert len(walks) == 3 and copy._y_chain() == g._y_chain()
            assert _stored(walked) == _stored(kg)

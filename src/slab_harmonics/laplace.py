"""Cauchy-Kovalevskaya extension operators and the polynomial Poisson solver.

Every operator on t-free data f here is a power series in the y-Laplacian
Lap_y, written with D = sqrt(Lap_y):

    even CK extension   cos(t D) f  = sum_k (-1)^k t^(2k)   / (2k)!   Lap_y^k f
    odd CK extension    sin(t D)/D f = sum_k (-1)^k t^(2k+1) / (2k+1)! Lap_y^k f
    trace operator      L_c f = sin(c D)/D f, the odd extension at t = c
    its inverse         D / sin(c D) p
    difference step     K = D cot(D/2), which gives the wall value of a
                        solution of h(t+1,y) - h(t,y) = g (see diffeq)

The series are finite on polynomials because Lap_y strictly lowers degree.
The inverse, and the slab's series C_x / S_w and S_x / S_w, are quotients
by the sine series, each from one integer recurrence (_wall_quotients);
K is read off a table of Bernoulli numbers B_2k, built from the tangent
numbers.  A table meets the height c of a wall or a trace only in
_height_series.  The two extensions are one walk of poly's CK kernel
(cauchy_extension).  One kernel, _series, applies any other series, given
as its rational coefficients, to f; the chain Lap_y^k f that it reads is
kept by f, so several series on one f walk it once.
The Poisson solver sums the radial |y|^2 ansatz of every homogeneous
component by Horner in |y|^2 over one walk of the chain of its input.  Every
walk of a chain Lap_y^k f is f._y_chain, which keeps each step as its
content and primitive numerators, so a series multiplies scalars into
small numerators and divides none.  A series is sized by the chain it
meets: Lap_y lowers degree, so the chain's length is where the series
stops.  _series reads whatever chain f keeps; a caller that shares a
monomial index among its walks (the slab solve) walks the chain on it
first.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from .poly import MultiPoly, Scalar, _cauchy_extension, _frac, _product_num


def _require_t_free(p: MultiPoly, what: str) -> None:
    if not p.is_t_free:
        raise ValueError(f"{what} must not depend on t: {p}")


# A Lap_y-series sum_k (nums[k] / den) Lap_y^k is kept as (nums, den): its
# integer numerators over one positive denominator.
Series = tuple[list[int], int]


def _series(f: MultiPoly, series: Series) -> MultiPoly:
    """The sum sum_k (nums[k] / den) Lap_y^k f of the series (nums, den)
    on t-free f, on the chain f keeps (f._y_chain): several series on one f
    walk it once, and each caller gives as many coefficients as the chain
    has steps.  The unit series (nums[0] = den, the rest 0) gives f itself.
    Otherwise the sum is one integer map over den times the denominator of
    f, with the gcd of that denominator and every coefficient times its
    step's content divided out of the scalars first: a denominator full of
    factorials is never multiplied in and scanned out term by term, and each
    term is one product of a scalar and a primitive numerator."""
    nums, den = series
    if nums[:1] == [den] and not any(nums[1:]):
        return f
    den *= f._den
    steps = list(zip(nums, f._y_chain()))
    common = math.gcd(den, *(c * content for c, (content, _) in steps))
    out: dict[tuple[int, ...], int] = {}
    for c, (content, term) in steps:
        if not c:
            continue
        m = c * content // common
        for exps, v in term.items():
            out[exps] = out.get(exps, 0) + m * v
    return MultiPoly._reduced(f.d, {e: v for e, v in out.items() if v}, den // common)


def _height_series(table: Sequence[tuple[int, int]], c: Fraction | int, first: int) -> Series:
    """The series sum_k (p_k / q_k) c^(2k + first) Lap_y^k from the pairs
    (p_k, q_k), q_k > 0, of a table, first being -1, 0 or 1: each term
    reduced, over the lcm of their denominators.  With c = u/v,
    c^2 = u^2/v^2 and c^(-1) = sign(u) v/|u|.  This is the only place a
    coefficient table meets a height, and the only place a series
    denominator is chosen."""
    u, v = c.numerator, c.denominator
    # c^first as top / bottom with bottom > 0, for first = 0, 1 and -1
    top, bottom = ((1, 1), (u, v), (v, u) if u > 0 else (-v, -u))[first]
    u2, v2 = u * u, v * v
    nums, dens = [], []
    for p, q in table:
        p *= top
        q *= bottom
        g = math.gcd(p, q)
        nums.append(p // g)
        dens.append(q // g)
        top *= u2
        bottom *= v2
    den = math.lcm(*dens)
    return [p * (den // q) for p, q in zip(nums, dens)], den


def _even_bernoulli(n: int) -> list[tuple[int, int]]:
    """The Bernoulli numbers B_0, B_2, ..., B_(2n-2) as pairs (p, q), q > 0.
    For k >= 1, B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) (DLMF 24.15) with
    T_k the tangent numbers 1, 2, 16, 272, ..., computed in place as Brent
    and Harvey (2011) do after Knuth and Buckholtz (1967): every step
    multiplies an integer by a small one."""
    tan = [0] * n  # tan[k] = T_k for 1 <= k < n
    if n > 1:
        tan[1] = 1
    for k in range(2, n):
        tan[k] = (k - 1) * tan[k - 1]
    for k in range(2, n):
        for j in range(k, n):
            tan[j] = (j - k) * tan[j - 1] + (j - k + 2) * tan[j]
    table, sign = [(1, 1)], 1
    for k in range(1, n):
        table.append((sign * 2 * k * tan[k], 4**k * (4**k - 1)))
        sign = -sign
    return table


def _cot_series(n: int) -> Series:
    """The first n terms of K = D cot(D/2) in powers of Lap_y:
    K_k = 2 (-1)^k B_2k / (2k)!, so K_0 = 2.  It is the series with
    S_1 K = 1 + C_1, since sin(x) cot(x/2) = 1 + cos(x)."""
    return _height_series([
        (2 * (-1) ** k * p, q * math.factorial(2 * k))
        for k, (p, q) in enumerate(_even_bernoulli(n))
    ], 1, 0)


def _wall_quotients(x: Fraction | int, w: Fraction | int, n: int) -> tuple[Series, Series]:
    """The first n terms of C_x / S_w and of S_x / S_w in powers of Lap_y,
    with C_x = cos(x D), S_x = sin(x D)/D and w nonzero, from one pass of
    the quotient recurrence of two power series (Knuth, TAOCP vol. 2, 4.7).

    With X = sum_m x_m Lap_y^m, x_m = (-1)^m w^(2m-1) y_m / (2m)! and
    r = x/w, S_w X = N reads sum_(j=0..m) C(2m+1, 2j+1) y_(m-j) = R_m, where
    R_m = (2m+1) r^(2m) for N = C_x and x r^(2m) for N = S_x (x is
    multiplied in at the end): each step multiplies earlier y by binomials
    and divides by 2m+1.  The y are kept as integers times
    lcm(1, 3, ..., 2n-1) and the denominator of r^(2n-2), which make every
    division exact; one that is not raises ArithmeticError."""
    r = Fraction(x, w)
    p2, q2 = r.numerator ** 2, r.denominator ** 2
    scale = math.lcm(*range(1, 2 * n, 2)) * q2 ** max(n - 1, 0)
    rhs, den, sign = scale, scale, 1  # scale r^(2m), scale (2m)! and (-1)^m
    yc, ys, c_table, s_table = [], [], [], []
    for m in range(n):
        k = 2 * m + 1
        row = [math.comb(k, i) for i in range(3, k + 1, 2)]
        c, c_rest = divmod(k * rhs - sum(map(mul, row, reversed(yc))), k)
        s, s_rest = divmod(rhs - sum(map(mul, row, reversed(ys))), k)
        if c_rest or s_rest:
            raise ArithmeticError(f"inexact step {m} of the quotient by S_{w}")
        yc.append(c)
        ys.append(s)
        c_table.append((sign * c, den))
        s_table.append((sign * s * x.numerator, den * x.denominator))
        rhs = rhs * p2 // q2
        den *= k * (k + 1)
        sign = -sign
    return _height_series(c_table, w, -1), _height_series(s_table, w, -1)


def cauchy_extension(u0: MultiPoly, u1: MultiPoly) -> MultiPoly:
    """Harmonic h = cos(tD) u0 + sin(tD)/D u1, so h(0,y) = u0(y) and
    dh/dt(0,y) = u1(y)."""
    _require_t_free(u0, "cauchy_extension datum u0")
    _require_t_free(u1, "cauchy_extension datum u1")
    return _cauchy_extension(u0, u1)


def even_ck_extension(f: MultiPoly) -> MultiPoly:
    """Harmonic H with H(0,y) = f(y) and dH/dt(0,y) = 0; even in t."""
    return cauchy_extension(f, MultiPoly.zero(f.d))


def odd_ck_extension(g: MultiPoly) -> MultiPoly:
    """Harmonic V with V(0,y) = 0 and dV/dt(0,y) = g(y); odd in t."""
    return cauchy_extension(MultiPoly.zero(g.d), g)


def trace_operator(c: Scalar, g: MultiPoly) -> MultiPoly:
    """L_c g = (odd CK extension of g) evaluated at t = c, kept t-free.

    Equals sum_k (-1)^k c^(2k+1) Lap_y^k g / (2k+1)!.
    """
    _require_t_free(g, "trace_operator input")
    n = len(g._y_chain())
    return _series(g, _height_series(
        [((-1) ** k, math.factorial(2 * k + 1)) for k in range(n)], _frac(c), 1
    ))


def invert_trace_operator(c: Scalar, p: MultiPoly) -> MultiPoly:
    """Solve L_c g = p for t-free polynomial p.

    L_c = S_c, so g = (C_0 / S_c) p: the quotient of _wall_quotients at
    x = 0, where r = 0 and the recurrence's right side is [m = 0].  It is
    (1/c) times the series of x/sin(x) in c^2 Lap_y (DLMF 4.19).
    """
    _require_t_free(p, "invert_trace_operator input")
    if not c:
        raise ValueError("trace operator height c must be nonzero")
    return _series(p, _wall_quotients(0, c, len(p._y_chain()))[0])


def poisson_solve(f: MultiPoly) -> MultiPoly:
    """A t-free polynomial G with Lap_y G = f, exactly.

    Per homogeneous component f_m of degree m the radial ansatz

        G_m = sum_k c_k |y|^(2k+2) Lap_y^k f_m,
        c_k = (-1)^k / q_k,  q_k = prod_(i=0..k) 2(i+1)(2m-2i+d)

    gives a particular solution; solutions are unique only up to a harmonic
    addend, so the exact residual check at the end is the contract.  The
    chain of f is walked once: Lap_y^k f_m is the part of Lap_y^k f of
    degree j = m - 2k, so each term's c_k follows from its degree, and
    q_k(j) = q_(k-1)(j+2) 2(k+1)(2(j+k)+d) is one product per degree of
    step k.  With every c_k over one integer lcm, and times the content of
    step k, G = |y|^2 (A_0 + |y|^2 (A_1 + ...)), A_k the weighted primitive
    step k, is summed by Horner from the last step down into one integer
    map over that lcm times the denominator of f, reduced once.
    """
    _require_t_free(f, "poisson_solve input")
    if f.is_zero:  # also spares building |y|^2 for a large d
        return f
    d = f.d
    r2 = MultiPoly(d, {(0,) * j + (2,) + (0,) * (d - j): 1 for j in range(1, d + 1)})

    # q_k(j) of each degree j present in step k; q_(k-1)(j+2) is that of the
    # terms of step k-1 whose Laplacian has degree j
    chain = f._y_chain()
    qs = []
    for k, (_, step) in enumerate(chain):
        qs.append({
            j: (qs[-1][j + 2] if k else 1) * 2 * (k + 1) * (2 * (j + k) + d)
            for j in set(map(sum, step))
        })
    lcm = math.lcm(*(q for q_j in qs for q in q_j.values()))

    num: dict[tuple[int, ...], int] = {}
    for k in range(len(chain) - 1, -1, -1):  # num <- |y|^2 (A_k + num)
        content, step = chain[k]
        c = {j: (-1) ** k * content * (lcm // q) for j, q in qs[k].items()}
        for e, v in step.items():
            num[e] = num.get(e, 0) + c[sum(e)] * v
        num = _product_num(num, r2._num)
    result = MultiPoly._reduced(d, num, lcm * f._den)

    residual = result.laplacian_y() - f
    if not residual.is_zero:
        raise ArithmeticError(f"poisson_solve residual is nonzero: {residual}")
    return result

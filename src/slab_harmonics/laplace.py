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
The inverse is (1/c) times the series of x/sin(x) in u = x^2 = c^2 Lap_y,
whose coefficients come from the tangent numbers (DLMF 4.19); K is read off
the same table.  One kernel applies all five, each given as its list of
rational coefficients, and applies several lists in one walk of Lap_y^k f;
a product of two operators is the Cauchy product of their lists.  The
Poisson solver uses the radial |y|^2 ansatz per homogeneous component.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import add

from .poly import MultiPoly, Scalar, _frac, _laplacian_y_num


def _require_t_free(p: MultiPoly, what: str) -> None:
    if not p.is_t_free:
        raise ValueError(f"{what} must not depend on t: {p}")


# A Lap_y-series sum_k (nums[k] / den) Lap_y^k is kept as (nums, den): its
# integer numerators over one positive denominator.
Series = tuple[list[int], int]


def _over_lcm(coeffs: Sequence[tuple[int, int]]) -> Series:
    """The series with rational coefficients p_k / q_k, given as pairs
    (p_k, q_k) with q_k > 0, over lcm(q_k); this is the only place a series
    denominator is chosen."""
    den = math.lcm(*(q for _, q in coeffs))
    return [p * (den // q) for p, q in coeffs], den


def _series(
    f: MultiPoly, series: Sequence[Series], t_exp: int = 0, t_step: int = 0
) -> list[MultiPoly]:
    """For each (nums, den) in `series`: the sum
    sum_k (nums[k] / den) t^(t_exp + k t_step) Lap_y^k f for t-free f.  The
    chain Lap_y^k f is walked once over the numerators of f, for all the
    series together: its factors are integers, so each sum is one integer
    map over den times the denominator of f.  The gcd of that denominator
    with every coefficient times the content of Lap_y^k f is divided out
    before the products are formed, so a denominator full of factorials is
    never multiplied in and scanned out term by term.  The defaults give
    t-free results."""
    term, f_den = f.as_integer_ratio()
    chain = []  # (content, numerators) of each nonzero Lap_y^k f still needed
    for k in range(max(len(nums) for nums, _ in series)):
        if k:
            term = _laplacian_y_num(term)
        if not term:  # Lap_y^k f = 0, and so are the later powers
            break
        chain.append((math.gcd(*term.values()), term))
    results = []
    for nums, den in series:
        den *= f_den
        steps = list(zip(nums, chain))
        common = math.gcd(den, *(c * content for c, (content, _) in steps))
        out: dict[tuple[int, ...], int] = {}
        for k, (c, (content, term)) in enumerate(steps):
            if not c:
                continue
            m = c * content // common
            if t_step:  # each power has its own t-exponent: no sums, no zeros
                n = (t_exp + k * t_step,)
                out.update({n + exps[1:]: m * (v // content) for exps, v in term.items()})
            else:
                for exps, v in term.items():
                    out[exps] = out.get(exps, 0) + m * (v // content)
        if not t_step:
            out = {e: v for e, v in out.items() if v}
        results.append(MultiPoly._reduced(f.d, out, den // common))
    return results


def _length(f: MultiPoly) -> int:
    """Number of Lap_y powers of f that can be nonzero (1 for zero f)."""
    return max(f.total_degree(), 0) // 2 + 1


def _wall_series(x: Scalar, n: int, first: int) -> Series:
    """The first n terms of C_x = cos(x D) (first = 0) or of
    S_x = sin(x D)/D (first = 1) in powers of Lap_y:
    (-1)^k x^(2k + first) / (2k + first)!.  At x = 1 these are the
    coefficients of the CK extensions, whose powers of t _series places."""
    x = _frac(x)
    u, v = x.numerator, x.denominator
    return _over_lcm([
        ((-1) ** k * u ** (2 * k + first), math.factorial(2 * k + first) * v ** (2 * k + first))
        for k in range(n)
    ])


def _x_over_sin_x(n: int) -> list[tuple[int, int]]:
    """The first n coefficients A_k of x/sin(x) in powers of x^2, as
    reduced pairs.  For k >= 1, A_k = (4^k - 2) 2k T_k / ((2k)! 4^k (4^k - 1))
    (DLMF 4.19) with T_k the tangent numbers 1, 2, 16, 272, ..., computed in
    place as Brent and Harvey (2011) do after Knuth and Buckholtz (1967):
    every step multiplies an integer by a small one."""
    tan = [0] * n  # tan[k] = T_k for 1 <= k < n
    if n > 1:
        tan[1] = 1
    for k in range(2, n):
        tan[k] = (k - 1) * tan[k - 1]
    for k in range(2, n):
        for j in range(k, n):
            tan[j] = (j - k) * tan[j - 1] + (j - k + 2) * tan[j]
    table = [(1, 1)]
    for k in range(1, n):
        p = (4**k - 2) * 2 * k * tan[k]
        q = math.factorial(2 * k) * 4**k * (4**k - 1)
        g = math.gcd(p, q)
        table.append((p // g, q // g))
    return table


def _inverse_trace_series(c: Scalar, n: int) -> Series:
    """The first n terms of L_c^(-1) = D / sin(c D) in powers of Lap_y:
    A_k c^(2k-1), from the x/sin(x) table.  With c = u/v that is
    sign(u) A_k u^(2k) v / (|u| v^(2k))."""
    c = _frac(c)
    if c == 0:
        raise ValueError("trace operator height c must be nonzero")
    u, v = c.numerator, c.denominator
    sign = 1 if u > 0 else -1
    return _over_lcm([
        (sign * p * u ** (2 * k) * v, q * abs(u) * v ** (2 * k))
        for k, (p, q) in enumerate(_x_over_sin_x(n))
    ])


def _cot_series(n: int) -> Series:
    """The first n terms of K = D cot(D/2) in powers of Lap_y:
    K_k = 2 (-1)^k B_2k / (2k)!, which is -2 A_k / (4^k - 2) with A_k from
    the x/sin(x) table, and K_0 = 2.  It is the series with
    S_1 K = 1 + C_1, since sin(x) cot(x/2) = 1 + cos(x)."""
    coeffs = [(2, 1)]
    for k, (p, q) in enumerate(_x_over_sin_x(n)[1:], 1):
        m = 2 ** (2 * k - 1) - 1  # (4^k - 2) / 2
        g = math.gcd(p, m)
        coeffs.append((-p // g, q * (m // g)))
    return _over_lcm(coeffs)


def _series_product(x: Series, y: Series, n: int) -> Series:
    """The first n terms of the product of two series: the Cauchy product
    of their numerators, over the product of their denominators."""
    (xs, x_den), (ys, y_den) = x, y
    out = [0] * n
    for i, a in enumerate(xs[:n]):
        if a:
            for j, b in enumerate(ys[: n - i]):
                out[i + j] += a * b
    return out, x_den * y_den


def even_ck_extension(f: MultiPoly) -> MultiPoly:
    """Harmonic H with H(0,y) = f(y) and dH/dt(0,y) = 0; even in t."""
    _require_t_free(f, "even_ck_extension input")
    return _series(f, [_wall_series(1, _length(f), 0)], 0, 2)[0]


def odd_ck_extension(g: MultiPoly) -> MultiPoly:
    """Harmonic V with V(0,y) = 0 and dV/dt(0,y) = g(y); odd in t."""
    _require_t_free(g, "odd_ck_extension input")
    return _series(g, [_wall_series(1, _length(g), 1)], 1, 2)[0]


def trace_operator(c: Scalar, g: MultiPoly) -> MultiPoly:
    """L_c g = (odd CK extension of g) evaluated at t = c, kept t-free.

    Equals sum_k (-1)^k c^(2k+1) Lap_y^k g / (2k+1)!.
    """
    _require_t_free(g, "trace_operator input")
    return _series(g, [_wall_series(c, _length(g), 1)])[0]


def invert_trace_operator(c: Scalar, p: MultiPoly) -> MultiPoly:
    """Solve L_c g = p for t-free polynomial p.

    L_c = c S(c^2 Lap_y) with S(u) the series of sin(x)/x in u = x^2, so
    g = (1/c) A(c^2 Lap_y) p with A = 1/S, the series of x/sin(x), whose
    coefficients come from the tangent numbers (_x_over_sin_x).
    """
    _require_t_free(p, "invert_trace_operator input")
    return _series(p, [_inverse_trace_series(c, _length(p))])[0]


def poisson_solve(f: MultiPoly) -> MultiPoly:
    """A t-free polynomial G with Lap_y G = f, exactly.

    Per homogeneous component f_m of degree m the radial ansatz

        G_m = sum_k c_k |y|^(2k+2) Lap_y^k f_m,
        c_k = (-1)^k / prod_(i=0..k) 2(i+1)(2m-2i+d)

    gives a particular solution; solutions are unique only up to a harmonic
    addend, so the exact residual check at the end is the contract.  Every
    c_k is put over one integer lcm, so all products go into one integer map
    over that lcm times the denominator of f, reduced once.
    """
    _require_t_free(f, "poisson_solve input")
    if f.is_zero:  # also spares building |y|^2 for a large d
        return f
    d = f.d
    r2 = MultiPoly(d, {(0,) * j + (2,) + (0,) * (d - j): 1 for j in range(1, d + 1)})

    # split into homogeneous components by total degree
    num, den = f.as_integer_ratio()
    components: dict[int, dict] = {}
    for exps, v in num.items():
        components.setdefault(sum(exps), {})[exps] = v

    # (k, q_k, numerators of Lap_y^k f_m) with c_k = (-1)^k / q_k
    steps = []
    for m, term in components.items():
        q, k = 2 * (2 * m + d), 0
        while term:
            steps.append((k, q, term))
            term = _laplacian_y_num(term)
            k += 1
            q *= 2 * (k + 1) * (2 * m - 2 * k + d)

    # |y|^(2k+2) for every k needed, each built once
    r2_pows = [r2]
    for _ in range(max(k for k, _, _ in steps)):
        r2_pows.append(r2_pows[-1] * r2)
    r2_pows = [pw.as_integer_ratio()[0] for pw in r2_pows]  # denominators are 1

    lcm = math.lcm(*(q for _, q, _ in steps))
    out: dict[tuple[int, ...], int] = {}
    for k, q, term in steps:
        c = (-1) ** k * (lcm // q)
        pow_items = r2_pows[k].items()
        for ea, va in term.items():
            va *= c
            for eb, vb in pow_items:
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + va * vb
    result = MultiPoly._reduced(d, {e: v for e, v in out.items() if v}, lcm * den)

    residual = result.laplacian_y() - f
    if not residual.is_zero:
        raise ArithmeticError(f"poisson_solve residual is nonzero: {residual}")
    return result

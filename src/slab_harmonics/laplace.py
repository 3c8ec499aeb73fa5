"""Cauchy-Kovalevskaya extension operators and the polynomial Poisson solver.

Every operator on t-free data f here is a power series in the y-Laplacian
Lap_y, written with D = sqrt(Lap_y):

    even CK extension   cos(t D) f  = sum_k (-1)^k t^(2k)   / (2k)!   Lap_y^k f
    odd CK extension    sin(t D)/D f = sum_k (-1)^k t^(2k+1) / (2k+1)! Lap_y^k f
    trace operator      L_c f = sin(c D)/D f, the odd extension at t = c
    its inverse         D / sin(c D) p

The series are finite on polynomials because Lap_y strictly lowers degree.
The inverse is (1/c) times the series of x/sin(x) in u = x^2 = c^2 Lap_y,
whose coefficients are Bernoulli numbers (DLMF 4.19).  One kernel applies
all four, each given as its list of rational coefficients.  The Poisson
solver uses the radial |y|^2 ansatz per homogeneous component.
"""

from __future__ import annotations

import math
from operator import add
from typing import Sequence

from .poly import MultiPoly, Scalar, _frac, _laplacian_num


def _require_t_free(p: MultiPoly, what: str) -> None:
    if not p.is_t_free:
        raise ValueError(f"{what} must not depend on t: {p}")


def _series(
    f: MultiPoly, coeffs: Sequence[tuple[int, int]], t_exp: int = 0, t_step: int = 0
) -> MultiPoly:
    """sum_k (p_k / q_k) t^(t_exp + k t_step) Lap_y^k f for t-free f, with
    coeffs the pairs (p_k, q_k), q_k > 0.  The series goes over one integer
    denominator, lcm(q_k); this is the only place a series denominator is
    chosen.  The chain Lap_y^k f is walked once over the numerators of f:
    its factors are integers, so the whole sum is one integer map over that
    lcm times the denominator of f.  The gcd of that denominator with every
    coefficient times the content of Lap_y^k f is divided out before the
    products are formed, so a denominator full of factorials is never
    multiplied in and scanned out term by term.  The defaults give a
    t-free result."""
    den = math.lcm(*(q for _, q in coeffs))
    term, f_den = f.as_integer_ratio()
    chain = []  # (coefficient, content, numerators) of each Lap_y^k f
    for p, q in coeffs:
        chain.append((p * (den // q), math.gcd(*term.values()), term))
        term = _laplacian_num(term, 1)
    den *= f_den
    common = math.gcd(den, *(c * content for c, content, _ in chain))
    out: dict[tuple[int, ...], int] = {}
    for k, (c, content, term) in enumerate(chain):
        if not content:  # Lap_y^k f = 0, and so are the later powers
            break
        m = c * content // common
        n = t_exp + k * t_step
        for exps, v in term.items():
            e = (n,) + exps[1:]
            out[e] = out.get(e, 0) + m * (v // content)
    return MultiPoly._reduced(f.d, {e: v for e, v in out.items() if v}, den // common)


def _length(f: MultiPoly) -> int:
    """Number of Lap_y powers of f that can be nonzero (1 for zero f)."""
    return max(f.total_degree(), 0) // 2 + 1


def _factorial_series(n: int, first: int) -> list[tuple[int, int]]:
    """((-1)^k, (2k + first)!) for k < n: the series of cos x (first = 0)
    or of sin(x)/x (first = 1) in powers of x^2."""
    return [((-1) ** k, math.factorial(2 * k + first)) for k in range(n)]


def even_ck_extension(f: MultiPoly) -> MultiPoly:
    """Harmonic H with H(0,y) = f(y) and dH/dt(0,y) = 0; even in t."""
    _require_t_free(f, "even_ck_extension input")
    return _series(f, _factorial_series(_length(f), 0), 0, 2)


def odd_ck_extension(g: MultiPoly) -> MultiPoly:
    """Harmonic V with V(0,y) = 0 and dV/dt(0,y) = g(y); odd in t."""
    _require_t_free(g, "odd_ck_extension input")
    return _series(g, _factorial_series(_length(g), 1), 1, 2)


def trace_operator(c: Scalar, g: MultiPoly) -> MultiPoly:
    """L_c g = (odd CK extension of g) evaluated at t = c, kept t-free.

    Equals sum_k (-1)^k c^(2k+1) Lap_y^k g / (2k+1)!.
    """
    _require_t_free(g, "trace_operator input")
    c = _frac(c)
    u, v = c.numerator, c.denominator
    return _series(g, [
        (s * u ** (2 * k + 1), q * v ** (2 * k + 1))
        for k, (s, q) in enumerate(_factorial_series(_length(g), 1))
    ])


def invert_trace_operator(c: Scalar, p: MultiPoly) -> MultiPoly:
    """Solve L_c g = p for t-free polynomial p.

    L_c = c S(c^2 Lap_y) with S(u) = sum_j s_j u^j the series of sin(x)/x in
    u = x^2, so g = (1/c) A(c^2 Lap_y) p with A = 1/S, the series of x/sin x:
    A_0 = 1, A_k = -sum_{j=1..k} s_j A_(k-j).  A_k is
    (-1)^(k+1) (2^(2k) - 2) B_2k / (2k)!, and by von Staudt-Clausen the
    denominator of B_2k divides (2k+1)!, so E A_k is an integer for
    E = (2n-2)! (2n-1)! and every k < n: the recurrence runs in integers.
    """
    _require_t_free(p, "invert_trace_operator input")
    c = _frac(c)
    if c == 0:
        raise ValueError("trace operator height c must be nonzero")
    n = _length(p)
    s_den = math.factorial(2 * n - 1)
    s = [p_j * (s_den // q_j) for p_j, q_j in _factorial_series(n, 1)]  # s_den s_j
    a = [math.factorial(2 * n - 2) * s_den]  # E A_k
    for k in range(1, n):
        a.append(-sum(s[j] * a[k - j] for j in range(1, k + 1)) // s_den)
    # (1/c) A_k c^(2k) with c = u/v is sign(u) a_k u^(2k) v / (a_0 |u| v^(2k))
    u, v = c.numerator, c.denominator
    sign = 1 if u > 0 else -1
    return _series(p, [
        (sign * a_k * u ** (2 * k) * v, a[0] * abs(u) * v ** (2 * k)) for k, a_k in enumerate(a)
    ])


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
            term = _laplacian_num(term, 1)
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

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
all four.  The Poisson solver uses the radial |y|^2 ansatz per homogeneous
component.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .poly import MultiPoly, Scalar, _frac, _laplacian_terms


def _require_t_free(p: MultiPoly, what: str) -> None:
    if not p.is_t_free:
        raise ValueError(f"{what} must not depend on t: {p}")


def _series(
    f: MultiPoly, coeffs: Sequence[Fraction], t_exp: int = 0, t_step: int = 0
) -> MultiPoly:
    """sum_k coeffs[k] t^(t_exp + k t_step) Lap_y^k f for t-free f, walking
    the chain Lap_y^k f once; the defaults give a t-free result."""
    out: dict[tuple[int, ...], Fraction] = {}
    term = f.terms  # Lap_y^k f
    for k, c in enumerate(coeffs):
        n = t_exp + k * t_step
        for exps, v in term.items():
            e = (n,) + exps[1:]
            out[e] = out.get(e, 0) + c * v
        term = _laplacian_terms(term, 1)
    return MultiPoly._trusted(f.d, {e: v for e, v in out.items() if v})


def _length(f: MultiPoly) -> int:
    """Number of Lap_y powers of f that can be nonzero."""
    return f.total_degree() // 2 + 1


def _sin_coeffs(n: int) -> list[Fraction]:
    """s_k = (-1)^k / (2k+1)!, k < n: sin(x)/x in powers of u = x^2."""
    return [Fraction((-1) ** k, math.factorial(2 * k + 1)) for k in range(n)]


def even_ck_extension(f: MultiPoly) -> MultiPoly:
    """Harmonic H with H(0,y) = f(y) and dH/dt(0,y) = 0; even in t."""
    _require_t_free(f, "even_ck_extension input")
    coeffs = [Fraction((-1) ** k, math.factorial(2 * k)) for k in range(_length(f))]
    return _series(f, coeffs, 0, 2)


def odd_ck_extension(g: MultiPoly) -> MultiPoly:
    """Harmonic V with V(0,y) = 0 and dV/dt(0,y) = g(y); odd in t."""
    _require_t_free(g, "odd_ck_extension input")
    return _series(g, _sin_coeffs(_length(g)), 1, 2)


def trace_operator(c: Scalar, g: MultiPoly) -> MultiPoly:
    """L_c g = (odd CK extension of g) evaluated at t = c, kept t-free.

    Equals sum_k (-1)^k c^(2k+1) Lap_y^k g / (2k+1)!.
    """
    _require_t_free(g, "trace_operator input")
    c = _frac(c)
    coeffs = [s * c ** (2 * k + 1) for k, s in enumerate(_sin_coeffs(_length(g)))]
    return _series(g, coeffs)


def invert_trace_operator(c: Scalar, p: MultiPoly) -> MultiPoly:
    """Solve L_c g = p for t-free polynomial p.

    L_c = c S(c^2 Lap_y) with S(u) = sum_j s_j u^j the series of sin(x)/x in
    u = x^2, so g = (1/c) A(c^2 Lap_y) p with A = 1/S, the series of x/sin x:
    A_0 = 1, A_k = -sum_{j=1..k} s_j A_(k-j).
    """
    _require_t_free(p, "invert_trace_operator input")
    c = _frac(c)
    if c == 0:
        raise ValueError("trace operator height c must be nonzero")
    s = _sin_coeffs(_length(p))
    a = [Fraction(1)]
    for k in range(1, len(s)):
        a.append(-sum(s[j] * a[k - j] for j in range(1, k + 1)))
    return _series(p, [a_k * c ** (2 * k - 1) for k, a_k in enumerate(a)])


def poisson_solve(f: MultiPoly) -> MultiPoly:
    """A t-free polynomial G with Lap_y G = f, exactly.

    Per homogeneous component f_m of degree m the radial ansatz

        G_m = sum_k c_k |y|^(2k+2) Lap_y^k f_m,
        c_0 = 1/(2(2m+d)),  c_k = -c_(k-1) / (2(k+1)(2m-2k+d))

    gives a particular solution; solutions are unique only up to a harmonic
    addend, so the exact residual check at the end is the contract.
    """
    _require_t_free(f, "poisson_solve input")
    if f.is_zero:  # also spares building |y|^2 for a large d
        return f
    d = f.d
    r2 = MultiPoly.zero(d)
    for j in range(1, d + 1):
        yj = MultiPoly.variable(d, j)
        r2 = r2 + yj * yj

    # split into homogeneous components by total degree
    components: dict[int, dict] = {}
    for exps, coeff in f.terms.items():
        components.setdefault(sum(exps), {})[exps] = coeff

    result = MultiPoly.zero(d)
    for m, terms in components.items():
        fm = MultiPoly._trusted(d, terms)
        coeff = Fraction(1, 2 * (2 * m + d))
        term = fm
        r2_pow = r2
        k = 0
        while not term.is_zero:
            result = result + (r2_pow * term).scale(coeff)
            term = term.laplacian_y()
            if term.is_zero:
                break
            k += 1
            coeff = -coeff / (2 * (k + 1) * (2 * m - 2 * k + d))
            r2_pow = r2_pow * r2

    residual = result.laplacian_y() - f
    if not residual.is_zero:
        raise ArithmeticError(f"poisson_solve residual is nonzero: {residual}")
    return result

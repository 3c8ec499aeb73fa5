"""Independent d = 1 oracle via the classical complex route.

Bernoulli polynomials solve the holomorphic difference equation
F(z+1) - F(z) = G(z); taking real parts after substituting z = t + i*y
transfers it to planar harmonic polynomials.  Everything is exact: complex
coefficients are pairs of rationals.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Iterable, Sequence

from .diffeq import _residue_check
from .poly import MultiPoly, _require_harmonic
from .report import VerificationReport

# a complex rational is a (real, imag) pair of Fractions
CRational = tuple[Fraction, Fraction]

_ZERO: CRational = (Fraction(0), Fraction(0))


def _cadd(a: CRational, b: CRational) -> CRational:
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a: CRational, b: CRational) -> CRational:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


class ComplexPoly:
    """Univariate polynomial in z with exact complex-rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[CRational] = ()):
        cs = [(Fraction(re), Fraction(im)) for re, im in coeffs]
        while cs and cs[-1] == _ZERO:
            cs.pop()
        self.coeffs: tuple[CRational, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "ComplexPoly":
        return cls()

    @classmethod
    def from_real(cls, coeffs: Sequence[Fraction | int | str]) -> "ComplexPoly":
        return cls([(Fraction(c), Fraction(0)) for c in coeffs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return ComplexPoly(
            _cadd(self.coeff(k), other.coeff(k)) for k in range(n)
        )

    def __sub__(self, other: "ComplexPoly") -> "ComplexPoly":
        return self + other.scale((Fraction(-1), Fraction(0)))

    def coeff(self, k: int) -> CRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def scale(self, c: CRational) -> "ComplexPoly":
        return ComplexPoly(_cmul(c, a) for a in self.coeffs)

    def shift(self, s: Fraction | int) -> "ComplexPoly":
        """Substitute z <- z + s for rational s (binomial expansion)."""
        s = Fraction(s)
        out = [_ZERO] * len(self.coeffs)
        for n, c in enumerate(self.coeffs):
            for j in range(n + 1):
                w = math.comb(n, j) * s ** (n - j)
                out[j] = _cadd(out[j], (c[0] * w, c[1] * w))
        return ComplexPoly(out)

    def antiderivative(self) -> "ComplexPoly":
        """Antiderivative with zero constant term."""
        return ComplexPoly(
            [_ZERO] + [(c[0] / (k + 1), c[1] / (k + 1)) for k, c in enumerate(self.coeffs)]
        )

    def integral_unit_interval(self) -> CRational:
        """Exact integral over [0, 1]."""
        total = _ZERO
        for k, c in enumerate(self.coeffs):
            total = _cadd(total, (c[0] / (k + 1), c[1] / (k + 1)))
        return total

    def __repr__(self) -> str:
        return f"ComplexPoly({list(self.coeffs)})"


def _bernoulli_polynomials(n: int) -> list[ComplexPoly]:
    """[B_0, ..., B_n] via B_0 = 1, B_k' = k B_(k-1), int_0^1 B_k = 0."""
    bs = [ComplexPoly.from_real([1])]
    for k in range(1, n + 1):
        raw = bs[-1].scale((Fraction(k), Fraction(0))).antiderivative()
        bs.append(raw - ComplexPoly([raw.integral_unit_interval()]))
    return bs


def bernoulli_polynomial(n: int) -> ComplexPoly:
    """The Bernoulli polynomial B_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _bernoulli_polynomials(n)[n]


def solve_complex_difference(g: ComplexPoly) -> ComplexPoly:
    """F with F(z+1) - F(z) = G(z): F = sum_n p_n B_(n+1)(z) / (n+1)."""
    bs = _bernoulli_polynomials(len(g.coeffs))
    result = ComplexPoly.zero()
    for n, p_n in enumerate(g.coeffs):
        if p_n != _ZERO:
            result = result + bs[n + 1].scale((p_n[0] / (n + 1), p_n[1] / (n + 1)))
    return result


def harmonic_part(p: ComplexPoly, which: str = "real") -> MultiPoly:
    """Expand p(t + i*y) exactly and take the real or imaginary part (d = 1)."""
    if which not in ("real", "imaginary"):
        raise ValueError(f"'which' must be 'real' or 'imaginary', got {which!r}")
    terms_re: dict[tuple[int, int], Fraction] = {}
    terms_im: dict[tuple[int, int], Fraction] = {}
    for n, c in enumerate(p.coeffs):
        # (t + iy)^n = sum_j C(n,j) t^(n-j) (iy)^j; i^j cycles with period 4
        for j in range(n + 1):
            w = Fraction(math.comb(n, j))
            # i^j * c
            re, im = c
            for _ in range(j % 4):
                re, im = -im, re
            # (n - j, j) determines n, so each key is written once
            key = (n - j, j)
            if re:
                terms_re[key] = w * re
            if im:
                terms_im[key] = w * im
    result = MultiPoly(1, terms_re if which == "real" else terms_im)
    lap = result.laplacian()
    if not lap.is_zero:
        raise ArithmeticError(f"harmonic_part produced non-harmonic output: {lap}")
    return result


def harmonic_conjugate_completion(g: MultiPoly) -> ComplexPoly:
    """P with Re P(t + i*y) = g for planar harmonic g; Im P(0) = 0.

    P' is the holomorphic polynomial dg/dt - i dg/dy read off on the real
    axis y = 0; integrating and pinning P(0) = g(0,0) fixes P.
    """
    if g.d != 1:
        raise ValueError("harmonic_conjugate_completion requires d = 1")
    _require_harmonic(g, "input must be harmonic")
    gt = g.derivative(0).terms
    gy = g.derivative(1).terms
    deg = max((e[0] for e in (*gt, *gy)), default=0)
    coeffs = [
        (gt.get((n, 0), Fraction(0)), -gy.get((n, 0), Fraction(0))) for n in range(deg + 1)
    ]
    p = ComplexPoly(coeffs).antiderivative() + ComplexPoly(
        [(g.eval_exact((0, 0)), Fraction(0))]
    )
    roundtrip = harmonic_part(p, "real") - g
    if not roundtrip.is_zero:
        raise ArithmeticError(f"conjugate completion failed to reproduce input: {roundtrip}")
    return p


def oracle_solve(g: MultiPoly) -> MultiPoly:
    """Solve the difference equation for planar harmonic g by the Bernoulli
    route: complete to a holomorphic G, solve in z, take the real part."""
    return harmonic_part(
        solve_complex_difference(harmonic_conjugate_completion(g)), "real"
    )


def oracle_compare(g: MultiPoly, h_general: MultiPoly) -> VerificationReport:
    """Check a general-route solution against the Bernoulli-route one.

    Passes iff both solve the difference equation exactly and their
    difference is a t-free harmonic r(y).  h_oracle is attached as an extra,
    and r too once both solutions verify; a failure is reported, not raised.
    """
    start = time.perf_counter()
    h_oracle = oracle_solve(g)
    residuals, r = _residue_check(h_general, h_oracle, g, ("general", "oracle"))
    extras = {"h_oracle": h_oracle} if r is None else {"r": r, "h_oracle": h_oracle}
    return VerificationReport.from_residuals(
        "oracle_compare", residuals, extras=extras, elapsed=time.perf_counter() - start
    )

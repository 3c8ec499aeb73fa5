"""Independent d = 1 oracle via the classical complex route.

Bernoulli polynomials solve the holomorphic difference equation
F(z+1) - F(z) = G(z); taking real parts after substituting z = t + i*y
transfers it to planar harmonic polynomials.  Everything is exact: a complex
polynomial is stored as MultiPoly stores a real one, as Gaussian-integer
numerators (re_k, im_k) over one positive denominator, in canonical form.
None of this shares code with `laplace`.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable
from fractions import Fraction

from .diffeq import _residue_check
from .poly import MultiPoly, _require_harmonic
from .report import VerificationReport

# a complex rational is a (real, imag) pair of Fractions
CRational = tuple[Fraction, Fraction]

# Gaussian-integer numerators (re_k, im_k) of the coefficients of z^k
GaussNumerators = list[tuple[int, int]]


class ComplexPoly:
    """Univariate polynomial in z with exact complex-rational coefficients.

    Canonical form: no trailing zero numerator, and a positive denominator
    coprime to the content of the numerators (1 for the zero polynomial).
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[CRational] = ()):
        pairs = [(Fraction(re), Fraction(im)) for re, im in coeffs]
        den = math.lcm(*(c.denominator for pair in pairs for c in pair))
        num = [
            (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
            for re, im in pairs
        ]
        self._num, self._den = _canonical(num, den)

    @classmethod
    def _reduced(cls, num: GaussNumerators, den: int) -> "ComplexPoly":
        """Wrap numerators built by internal code (den > 0; the list is
        handed over), put in canonical form."""
        p = object.__new__(cls)
        p._num, p._den = _canonical(num, den)
        return p

    @property
    def coeffs(self) -> tuple[CRational, ...]:
        den = self._den
        return tuple((Fraction(re, den), Fraction(im, den)) for re, im in self._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        den = math.lcm(self._den, other._den)
        ma, mb = den // self._den, den // other._den
        a, b = self._num, other._num
        if len(a) < len(b):
            a = a + [(0, 0)] * (len(b) - len(a))
        out = [(re * ma, im * ma) for re, im in a]
        for k, (re, im) in enumerate(b):
            out[k] = (out[k][0] + re * mb, out[k][1] + im * mb)
        return ComplexPoly._reduced(out, den)

    def antiderivative(self) -> "ComplexPoly":
        """Antiderivative with zero constant term."""
        # c_k / (k+1) over one denominator: m is the lcm of what k+1 leaves
        # after cancelling against both parts of c_k
        m = math.lcm(*((k + 1) // math.gcd(re, im, k + 1) for k, (re, im) in enumerate(self._num)))
        out = [(0, 0)] + [
            (re * m // (k + 1), im * m // (k + 1)) for k, (re, im) in enumerate(self._num)
        ]
        return ComplexPoly._reduced(out, self._den * m)

    def __repr__(self) -> str:
        return f"ComplexPoly({list(self.coeffs)})"


def _canonical(num: GaussNumerators, den: int) -> tuple[GaussNumerators, int]:
    """Drop trailing zeros and divide out gcd(den, content) of numerators
    over den > 0, with one gcd scan that stops at 1."""
    while num and num[-1] == (0, 0):
        num.pop()
    if not num:
        return num, 1
    g = den
    for re, im in num:
        if g == 1:
            return num, den
        g = math.gcd(g, re, im)
    if g != 1:
        num = [(re // g, im // g) for re, im in num]
        den //= g
    return num, den


def _bernoulli_polynomials(n: int) -> list[tuple[list[int], int]]:
    """[B_0, ..., B_n] as (integer numerators, denominator) pairs, via
    B_0 = 1, B_k' = k B_(k-1), int_0^1 B_k = 0.

    The coefficient of z^(i+1) in k int B_(k-1) is C(k, i+1) B_(k-1-i), so
    the numerators k b_i / (i+1) divide exactly over the denominator of
    B_(k-1) (checked); only the constant term brings in a new denominator."""
    bs = [([1], 1)]
    for k in range(1, n + 1):
        b, den = bs[-1]
        raw = [0] * (k + 1)
        for i, v in enumerate(b):
            raw[i + 1], rest = divmod(k * v, i + 1)
            if rest:
                raise ArithmeticError(f"Bernoulli recurrence: {k} b_{i} / {i + 1} is not exact")
        # int_0^1 of the raw polynomial is sum_i raw_i / (i + 1) over den; the
        # constant term is minus that, over den * m
        m = math.lcm(*range(2, k + 2))
        c = -sum(v * (m // (i + 1)) for i, v in enumerate(raw))
        g = math.gcd(m, c)
        m //= g
        raw = [v * m for v in raw]
        raw[0] = c // g
        g = math.gcd(den * m, *raw)
        bs.append(([v // g for v in raw], den * m // g))
    return bs


def bernoulli_polynomial(n: int) -> ComplexPoly:
    """The Bernoulli polynomial B_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    num, den = _bernoulli_polynomials(n)[n]
    return ComplexPoly._reduced([(v, 0) for v in num], den)


def solve_complex_difference(g: ComplexPoly) -> ComplexPoly:
    """F with F(z+1) - F(z) = G(z): F = sum_n p_n B_(n+1)(z) / (n+1)."""
    bs = _bernoulli_polynomials(len(g._num))
    used = [n for n, p_n in enumerate(g._num) if p_n != (0, 0)]
    # p_n / ((n+1) den(B_(n+1))) over one lcm L; the sum is over L den(G)
    lcm = math.lcm(*((n + 1) * bs[n + 1][1] for n in used))
    out = [(0, 0)] * (len(g._num) + 1)
    for n in used:
        b, b_den = bs[n + 1]
        w = lcm // ((n + 1) * b_den)
        re, im = g._num[n][0] * w, g._num[n][1] * w
        for j, v in enumerate(b):
            if v:
                out[j] = (out[j][0] + re * v, out[j][1] + im * v)
    return ComplexPoly._reduced(out, lcm * g._den)


def harmonic_part(p: ComplexPoly) -> MultiPoly:
    """Re p(t + i*y), expanded exactly (d = 1).  The imaginary part of p is
    the real part of -i*p."""
    num: dict[tuple[int, int], int] = {}
    for n, (re, im) in enumerate(p._num):
        # (t + iy)^n = sum_j C(n,j) t^(n-j) (iy)^j; i^j cycles with period 4,
        # so Re((re + i im) i^j) is re, -im, -re, im in turn
        parts = (re, -im, -re, im)
        for j in range(n + 1):
            v = parts[j % 4]
            if v:
                # (n - j, j) determines n, so each key is written once
                num[(n - j, j)] = math.comb(n, j) * v
    result = MultiPoly._reduced(1, num, p._den)
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
    num, den = g.as_integer_ratio()
    deg = max(g.total_degree(), 0)
    # the coefficient of z^n in P' is (n+1) g_(n+1,0) - i g_(n,1), over den
    dp = [((n + 1) * num.get((n + 1, 0), 0), -num.get((n, 1), 0)) for n in range(deg)]
    p = ComplexPoly._reduced(dp, den).antiderivative() + ComplexPoly._reduced(
        [(num.get((0, 0), 0), 0)], den
    )
    roundtrip = harmonic_part(p) - g
    if not roundtrip.is_zero:
        raise ArithmeticError(f"conjugate completion failed to reproduce input: {roundtrip}")
    return p


def oracle_solve(g: MultiPoly) -> MultiPoly:
    """Solve the difference equation for planar harmonic g by the Bernoulli
    route: complete to a holomorphic G, solve in z, take the real part."""
    return harmonic_part(solve_complex_difference(harmonic_conjugate_completion(g)))


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

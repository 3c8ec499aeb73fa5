"""Independent route to the difference equation via Bernoulli polynomials.

B_(j+1)(t+1) - B_(j+1)(t) = (j+1) t^j (DLMF 24.2), so t^j -> B_(j+1)(t)/(j+1)
solves u(t+1) - u(t) = t^j in one variable.  For harmonic g at any d, that
map solves the equation for both Cauchy data of g on the line y1 = 0, and
the harmonic extension in y1 of the two solutions is h: its residual
h(t+1,y) - h(t,y) - g is harmonic with zero Cauchy data on y1 = 0, so it is
zero.  Everything is integer numerators over one denominator, as in
`MultiPoly`, and none of it shares code with `laplace`.  The module keeps
its name, which the benchmark's tracer (`bench/tracer.py`) targets.
"""

from __future__ import annotations

import math
import time

from .diffeq import _residue_check
from .poly import MultiPoly, Numerators, _cauchy_extension, _require_harmonic
from .report import VerificationReport


def _bernoulli_polynomials(n: int) -> list[tuple[list[int], int]]:
    """[B_0, ..., B_n] as (integer numerators, denominator) pairs, via
    B_0 = 1, B_k' = k B_(k-1), int_0^1 B_k = 0.

    The coefficient of t^(i+1) in k int B_(k-1) is C(k, i+1) B_(k-1-i), so
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


def bernoulli_polynomial(n: int) -> MultiPoly:
    """The Bernoulli polynomial B_n(t), as a polynomial of dimension 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    num, den = _bernoulli_polynomials(n)[n]
    return MultiPoly._reduced(1, {(k, 0): v for k, v in enumerate(num) if v}, den)


def _swap_t_y1(u: MultiPoly) -> MultiPoly:
    """u with the exponents of t and y1 exchanged."""
    return MultiPoly._reduced(u.d, {(e[1], e[0]) + e[2:]: v for e, v in u._num.items()}, u._den)


def harmonic_part(u0: MultiPoly, u1: MultiPoly) -> MultiPoly:
    """The harmonic h with h = u0 and dh/dy1 = u1 on y1 = 0, for u0 and u1
    free of y1: with t and y1 exchanged, the data are t-free, and the CK
    kernel the solvers run in t (poly._cauchy_extension) extends them."""
    if any(e[1] for u in (u0, u1) for e in u._num):
        raise ValueError("harmonic_part takes Cauchy data free of y1")
    return _swap_t_y1(_cauchy_extension(_swap_t_y1(u0), _swap_t_y1(u1)))


def oracle_solve(g: MultiPoly) -> MultiPoly:
    """Harmonic h with h(t+1,y) - h(t,y) = g for harmonic g, at any d.

    The Cauchy data of g on y1 = 0 are the t-numerators of g's y-monomials
    with y1-exponent 0 and 1, which the harmonicity check of g groups.
    Each t^j in them goes to B_(j+1)(t)/(j+1), over one integer lcm, and
    harmonic_part extends the two results in y1.
    """
    _require_harmonic(g, "input must be harmonic")
    data = [(rest, a) for rest, a in g._fibres().items() if rest[0] < 2]
    bs = _bernoulli_polynomials(max((len(a) for _, a in data), default=0))
    used = {j for _, a in data for j, v in enumerate(a) if v}
    # a_j / ((j+1) den(B_(j+1))) over one lcm; the sum is over lcm den(g)
    lcm = math.lcm(*((j + 1) * bs[j + 1][1] for j in used))
    weights = {j: lcm // ((j + 1) * bs[j + 1][1]) for j in used}
    cauchy: tuple[Numerators, Numerators] = ({}, {})
    for rest, a in data:
        out = [0] * (len(a) + 1)
        for j, v in enumerate(a):
            if v:
                v *= weights[j]
                for i, b in enumerate(bs[j + 1][0]):
                    out[i] += v * b
        for i, v in enumerate(out):
            if v:
                cauchy[rest[0]][(i, 0) + rest[1:]] = v
    u0, u1 = (MultiPoly._reduced(g.d, num, lcm * g._den) for num in cauchy)
    return harmonic_part(u0, u1)


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
    return VerificationReport(
        "oracle_compare", residuals, extras=extras, elapsed=time.perf_counter() - start
    )

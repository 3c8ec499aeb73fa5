"""Constructive solver for h(t+1,y) - h(t,y) = g(t,y), g harmonic polynomial.

With S(phi) the slab solution on (0, 1/2) with data (phi, 0), S(-g(0,y)/2)
solves the equation for g even in t.  For g odd in t, the harmonic
t-antiderivative u = int_0^t g - G, Lap_y G = dg/dt(0,y), is even, and
d/dt S(-u(0,y)/2) = d/dt S(G/2) solves it.  So h depends only on the traces
f(y) = g(0,y) and p(y) = dg/dt(0,y):  h = S(-f/2) + d/dt S(G/2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Mapping

from .laplace import poisson_solve
from .poly import MultiPoly, _json_dim, _require_harmonic
from .report import VerificationReport
from .slab import SlabProblem, solve_slab


@dataclass(frozen=True)
class DiffEqProblem:
    g: MultiPoly
    d: int

    def __post_init__(self):
        if self.g.d != self.d:
            raise ValueError("right-hand side dimension does not match problem dimension")
        _require_harmonic(self.g, "right-hand side must be harmonic")

    def to_json_dict(self) -> dict:
        return {"d": self.d, "g": self.g.to_json_dict()}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "DiffEqProblem":
        d = _json_dim(obj, "a diffeq problem", {"d", "g"})
        return cls(d=d, g=MultiPoly.from_json_dict(obj["g"]))


@dataclass(frozen=True)
class DiffEqSolution:
    h: MultiPoly


def _half_slab(phi: MultiPoly) -> MultiPoly:
    """S(phi): the slab solution on (0, 1/2) with data (phi, 0)."""
    zero = MultiPoly.zero(phi.d)
    return solve_slab(SlabProblem(Fraction(0), Fraction(1, 2), phi.d, phi, zero))


def _potential(g: MultiPoly) -> MultiPoly:
    """G with Lap_y G = dg/dt(0,y), which equals Lap_y(int_0^t g) + dg/dt
    for harmonic g: that sum has t-derivative Lap g = 0."""
    return poisson_solve(g.derivative(0).trace(0))


def solve_even(g_even: MultiPoly) -> MultiPoly:
    """Solution of the difference equation for harmonic g even in t.

    The slab solution with h(0,y) = -g(0,y)/2 and h(1/2,y) = 0 satisfies
    h(t+1,y) - h(t,y) = g(t,y) as an exact polynomial identity.
    """
    _require_harmonic(g_even, "solve_even requires a harmonic input")
    _, odd_part = g_even.parity_split_t()
    if not odd_part.is_zero:
        raise ValueError(f"solve_even requires an even input, got odd part {odd_part}")
    return _half_slab(g_even.trace(0).scale(Fraction(-1, 2)))


def harmonic_t_antiderivative(g: MultiPoly) -> MultiPoly:
    """Harmonic u = int_0^t g - G(y) with du/dt = g; even in t whenever g
    is odd."""
    _require_harmonic(g, "harmonic_t_antiderivative requires a harmonic input")
    return g.integrate_t() - _potential(g)


def solve_odd(g_odd: MultiPoly) -> MultiPoly:
    """d/dt S(G/2) for harmonic g odd in t: S(G/2) solves the equation for
    the even antiderivative u, since u(0,y) = -G(y)."""
    _require_harmonic(g_odd, "solve_odd requires a harmonic input")
    even_part, _ = g_odd.parity_split_t()
    if not even_part.is_zero:
        raise ValueError(f"solve_odd requires an odd input, got even part {even_part}")
    return _half_slab(_potential(g_odd).scale(Fraction(1, 2))).derivative(0)


def solve(prob: DiffEqProblem) -> DiffEqSolution:
    """Harmonic h = S(-f/2) + d/dt S(G/2) with shift_t(h,1) - h = g, where
    f = g(0,y) and G = poisson_solve(dg/dt(0,y))."""
    h_even = _half_slab(prob.g.trace(0).scale(Fraction(-1, 2)))
    h_odd = _half_slab(_potential(prob.g).scale(Fraction(1, 2))).derivative(0)
    return DiffEqSolution(h=h_even + h_odd)


def _cauchy_residuals_vanish(h: MultiPoly, g: MultiPoly) -> bool:
    """Whether r = h(t+1,y) - h(t,y) - g has r(0,y) = 0 and dr/dt(0,y) = 0,
    for h and g of one dimension.

    For a y-monomial with t-numerators a_0..a_m in h these are
    sum_(k>=1) a_k - g_0 and sum_(k>=2) k a_k - g_1, with g_0, g_1 its
    t^0 and t^1 numerators in g: read off the groupings of h and g by
    y-monomial, which their Laplacians have built.
    """
    h_fibres, g_fibres = h._fibres(), g._fibres()
    h_den, g_den = h._den, g._den
    for rest, a in h_fibres.items():
        b = g_fibres.get(rest, ())
        g0 = b[0] if b else 0
        g1 = b[1] if len(b) > 1 else 0
        if sum(a[1:]) * g_den != g0 * h_den:
            return False
        if sum(map(mul, range(2, len(a)), a[2:])) * g_den != g1 * h_den:
            return False
    return not any(any(b[:2]) for rest, b in g_fibres.items() if rest not in h_fibres)


def verify_difference(h: MultiPoly, g: MultiPoly) -> VerificationReport:
    """Exact residuals of the difference identity and of harmonicity of h.

    If h and g are harmonic and of one dimension, the residual
    r = h(t+1,y) - h(t,y) - g is harmonic, and a harmonic polynomial is zero
    iff r(0,y) = 0 and dr/dt(0,y) = 0 (CK uniqueness).  Those conditions
    are checked first, on the groupings of h and g by y-monomial that the
    Laplacians of h and g are summed on.  Only when a condition fails is r
    expanded with shift_t(1), so that a failing report holds the full
    residual.
    """
    start = time.perf_counter()
    laplacian = h.laplacian()
    if (
        laplacian.is_zero
        and h.d == g.d
        and g.laplacian().is_zero
        and _cauchy_residuals_vanish(h, g)
    ):
        difference = MultiPoly.zero(h.d)
    else:
        difference = h.shift_t(1) - h - g
    return VerificationReport.from_residuals(
        "difference_equation",
        {"difference": difference, "laplacian": laplacian},
        elapsed=time.perf_counter() - start,
    )


def _residue_check(
    h1: MultiPoly, h2: MultiPoly, g: MultiPoly, labels: tuple[str, str]
) -> tuple[dict[str, MultiPoly], MultiPoly | None]:
    """Residuals of h1 and h2 as solutions for g, keyed "<label>_<name>".

    Once both verify, r = h1 - h2 must be a t-free harmonic r(y): the
    residuals then also hold "t_dependence_of_difference" = r - r(0,y) and
    "difference_laplacian_y" = Lap_y r, and r is returned with them; else
    r is None.
    """
    residuals = {}
    for label, h in zip(labels, (h1, h2)):
        for key, res in verify_difference(h, g).residuals.items():
            residuals[f"{label}_{key}"] = res
    if not all(res.is_zero for res in residuals.values()):
        return residuals, None
    r = h1 - h2
    residuals["t_dependence_of_difference"] = r - r.trace(0)
    residuals["difference_laplacian_y"] = r.laplacian_y()
    return residuals, r


def compare_solutions(h1: MultiPoly, h2: MultiPoly, g: MultiPoly) -> MultiPoly:
    """The t-free harmonic residue r(y) = h1 - h2 between two valid solutions.

    Raises ValueError if either input fails verification, and
    ArithmeticError if the difference depends on t or is not harmonic in y
    (impossible for valid inputs; would signal a bug).
    """
    residuals, r = _residue_check(h1, h2, g, ("h1", "h2"))
    bad = {k: str(res) for k, res in residuals.items() if not res.is_zero}
    if r is None:
        raise ValueError(f"h1 or h2 is not a valid solution: residuals {bad}")
    if bad:
        raise ArithmeticError(f"h1 - h2 is not a t-free harmonic r(y): residuals {bad}")
    return r

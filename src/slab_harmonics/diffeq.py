"""Constructive solver for h(t+1,y) - h(t,y) = g(t,y), g harmonic polynomial.

Write C_t = cos(tD) and S_t = sin(tD)/D with D^2 = Lap_y, f = g(0,y),
p = dg/dt(0,y) and G = poisson_solve(p), so Lap_y G = p.  The residual
r = h(t+1,y) - h(t,y) - g of a harmonic h with Cauchy data u0 = h(0,y),
u1 = dh/dt(0,y) is harmonic, so it vanishes iff its Cauchy data do:

    (C_1 - 1) u0 + S_1 u1 = f,    -Lap_y S_1 u0 + (C_1 - 1) u1 = p.

With K = D cot(D/2), for which S_1 K = 1 + C_1 and so
Lap_y S_1 = (1 - C_1) K, both hold for u0 = -(f + K G)/2 and the u1 that
the first one fixes (S_1 is invertible): the second times S_1, with S_1 u1
from the first, reads (1 - C_1)(2 u0 + f + K G) = 0.  Such an h has
h(1,y) = u0 + f, so it is the slab solution on (0, 1) with data
(u0, u0 + f), which is unique: one slab solve builds it.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from fractions import Fraction
from operator import mul

from .laplace import _cot_series, _length, _series, poisson_solve
from .poly import MultiPoly, _json_dim, _require_harmonic
from .report import Record, VerificationReport
from .slab import SlabProblem, solve_slab


class DiffEqProblem(Record):
    __slots__ = ("g", "d")

    def __init__(self, g: MultiPoly, d: int):
        self._freeze(g, d)
        if self.g.d != self.d:
            raise ValueError("right-hand side dimension does not match problem dimension")
        _require_harmonic(self.g, "right-hand side must be harmonic")

    def to_json_dict(self) -> dict:
        return {"d": self.d, "g": self.g.to_json_dict()}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "DiffEqProblem":
        d = _json_dim(obj, "a diffeq problem", {"d", "g"})
        return cls(d=d, g=MultiPoly.from_json_dict(obj["g"]))


class DiffEqSolution(Record):
    __slots__ = ("h",)

    def __init__(self, h: MultiPoly):
        self._freeze(h)


def _potential(g: MultiPoly) -> MultiPoly:
    """G with Lap_y G = dg/dt(0,y), which equals Lap_y(int_0^t g) + dg/dt
    for harmonic g: that sum has t-derivative Lap g = 0.  The numerators of
    dg/dt(0,y) are the t^1 numerators of g's grouping by y-monomial, which
    the harmonicity check of g has built."""
    p = {(0,) + rest: a[1] for rest, a in g._fibres().items() if len(a) > 1 and a[1]}
    return poisson_solve(MultiPoly._reduced(g.d, p, g._den))


def solve(prob: DiffEqProblem) -> DiffEqSolution:
    """Harmonic h with shift_t(h,1) - h = g: the slab solution on (0, 1)
    with data (u0, u0 + f), where u0 = -(f + K G)/2, f = g(0,y),
    G = poisson_solve(dg/dt(0,y)) and K = D cot(D/2)."""
    f = prob.g.trace(0)
    potential = _potential(prob.g)
    (k_potential,) = _series(potential, [_cot_series(_length(potential))])
    u0 = (f + k_potential).scale(Fraction(-1, 2))
    return DiffEqSolution(h=solve_slab(SlabProblem(Fraction(0), Fraction(1), prob.d, u0, u0 + f)))


def _solve_of_parity(g: MultiPoly, parity: str) -> MultiPoly:
    """solve's h for a harmonic g that is `parity` ("even" or "odd") in t;
    errors name the caller, solve_<parity>."""
    name = f"solve_{parity}"
    _require_harmonic(g, f"{name} requires a harmonic input")
    even_part, odd_part = g.parity_split_t()
    other, other_parity = (odd_part, "odd") if parity == "even" else (even_part, "even")
    if not other.is_zero:
        raise ValueError(f"{name} requires an {parity} input, got {other_parity} part {other}")
    return solve(DiffEqProblem(g, g.d)).h


def solve_even(g_even: MultiPoly) -> MultiPoly:
    """solve's h for harmonic g even in t.  There G = 0, so
    h(0,y) = -g(0,y)/2."""
    return _solve_of_parity(g_even, "even")


def harmonic_t_antiderivative(g: MultiPoly) -> MultiPoly:
    """Harmonic u = int_0^t g - G(y) with du/dt = g; even in t whenever g
    is odd."""
    _require_harmonic(g, "harmonic_t_antiderivative requires a harmonic input")
    return g.integrate_t() - _potential(g)


def solve_odd(g_odd: MultiPoly) -> MultiPoly:
    """solve's h for harmonic g odd in t.  There f = 0, so
    h(0,y) = -K G/2."""
    return _solve_of_parity(g_odd, "odd")


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

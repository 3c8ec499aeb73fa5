"""Constructive solver for h(t+1,y) - h(t,y) = g(t,y), g harmonic polynomial.

Pipeline: split g into even and odd parts in t.  The even part is handled by
solving a Dirichlet problem on the slab (0, 1/2) with data (-g(0,y)/2, 0).
The odd part is integrated in t (made harmonic again by subtracting a Poisson
correction), fed through the even solver, and differentiated back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .laplace import poisson_solve
from .poly import MultiPoly, _require_harmonic
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
        return cls(g=MultiPoly.from_json_dict(obj["g"]), d=obj["d"])


@dataclass(frozen=True)
class DiffEqSolution:
    h: MultiPoly
    provenance: dict[str, MultiPoly] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "h": self.h.to_json_dict(),
            "provenance": {k: p.to_json_dict() for k, p in self.provenance.items()},
        }


def solve_even(g_even: MultiPoly) -> MultiPoly:
    """Solution of the difference equation for harmonic g even in t.

    The slab solution with h(0,y) = -g(0,y)/2 and h(1/2,y) = 0 satisfies
    h(t+1,y) - h(t,y) = g(t,y) as an exact polynomial identity.
    """
    _require_harmonic(g_even, "solve_even requires a harmonic input")
    _, odd_part = g_even.parity_split_t()
    if not odd_part.is_zero:
        raise ValueError(f"solve_even requires an even input, got odd part {odd_part}")
    prob = SlabProblem(
        a=Fraction(0),
        b=Fraction(1, 2),
        d=g_even.d,
        f0=g_even.trace(0).scale(Fraction(-1, 2)),
        f1=MultiPoly.zero(g_even.d),
    )
    return solve_slab(prob)


def harmonic_t_antiderivative(g: MultiPoly) -> MultiPoly:
    """Harmonic u with du/dt = g; even in t whenever g is odd.

    u is the plain t-antiderivative minus a Poisson correction G(y) with
    Lap_y G = f, where f := Lap_y(int_0^t g) + dg/dt is t-free for harmonic g.
    """
    _require_harmonic(g, "harmonic_t_antiderivative requires a harmonic input")
    h_tilde = g.integrate_t()
    f = h_tilde.laplacian_y() + g.derivative(0)
    if not f.is_t_free:
        # impossible for harmonic g; would signal an arithmetic bug
        raise ArithmeticError(f"correction term unexpectedly depends on t: {f}")
    return h_tilde - poisson_solve(f)


def _solve_odd_stages(g_odd: MultiPoly) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(u, H, dH/dt) for odd harmonic g: u is the even harmonic
    t-antiderivative, H solves the difference equation for u, and dH/dt
    solves it for g."""
    _require_harmonic(g_odd, "solve_odd requires a harmonic input")
    even_part, _ = g_odd.parity_split_t()
    if not even_part.is_zero:
        raise ValueError(f"solve_odd requires an odd input, got even part {even_part}")
    u = harmonic_t_antiderivative(g_odd)
    big_h = solve_even(u)
    return u, big_h, big_h.derivative(0)


def solve_odd(g_odd: MultiPoly) -> MultiPoly:
    return _solve_odd_stages(g_odd)[2]


def solve(prob: DiffEqProblem) -> DiffEqSolution:
    """Harmonic h with shift_t(h,1) - h = g, with pipeline provenance."""
    g_even, g_odd = prob.g.parity_split_t()
    h_even = solve_even(g_even)
    u, big_h, h_odd = _solve_odd_stages(g_odd)
    return DiffEqSolution(
        h=h_even + h_odd,
        provenance={
            "g_even": g_even,
            "g_odd": g_odd,
            "h_even": h_even,
            "antiderivative_u": u,
            "intermediate_H": big_h,
            "h_odd": h_odd,
        },
    )


def verify_difference(h: MultiPoly, g: MultiPoly) -> VerificationReport:
    """Exact residuals of the difference identity and of harmonicity of h."""
    start = time.perf_counter()
    residuals = {
        "difference": h.shift_t(1) - h - g,
        "laplacian": h.laplacian(),
    }
    return VerificationReport.from_residuals(
        "difference_equation", residuals, elapsed=time.perf_counter() - start
    )


def compare_solutions(h1: MultiPoly, h2: MultiPoly, g: MultiPoly) -> MultiPoly:
    """The t-free harmonic residue r(y) = h1 - h2 between two valid solutions.

    Raises ValueError if either input fails verification, and
    ArithmeticError if the difference depends on t or is not harmonic in y
    (impossible for valid inputs; would signal a bug).
    """
    for label, h in (("h1", h1), ("h2", h2)):
        rep = verify_difference(h, g)
        if not rep.passed:
            bad = {k: str(r) for k, r in rep.nonzero_residuals().items()}
            raise ValueError(f"{label} is not a valid solution: residuals {bad}")
    delta = h1 - h2
    if delta.degree_in(0) > 0:
        raise ArithmeticError(f"difference of valid solutions depends on t: {delta}")
    lap_y = delta.laplacian_y()
    if not lap_y.is_zero:
        raise ArithmeticError(f"difference residue is not harmonic in y: {lap_y}")
    return delta

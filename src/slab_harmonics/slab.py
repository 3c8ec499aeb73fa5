"""Dirichlet problem on the slab (a,b) x R^d with polynomial boundary data.

The solver finds the Cauchy data of the solution at t = 0, u0 = h(0,y) and
u1 = dh/dt(0,y), and extends them: h = cos(tD) u0 + sin(tD)/D u1, with
D = sqrt(Lap_y).  The two wall conditions are a 2x2 system of Lap_y-series
whose determinant is the trace operator of the slab's width.  Because all
data is polynomial, the solution is a harmonic polynomial on all of R^(d+1)
and every identity below is exact.
"""

from __future__ import annotations

import time
from collections.abc import Mapping

from .laplace import (
    _inverse_trace_series,
    _length,
    _series,
    _series_product,
    _wall_series,
    even_ck_extension,
    odd_ck_extension,
)
from .poly import MultiPoly, Scalar, _frac, _json_dim, _json_rational, _require_harmonic
from .report import Record, VerificationReport


class SlabProblem(Record):
    """Boundary data f0 at t = a and f1 at t = b, both t-free."""

    __slots__ = ("a", "b", "d", "f0", "f1")

    def __init__(self, a: Scalar, b: Scalar, d: int, f0: MultiPoly, f1: MultiPoly):
        self._freeze(_frac(a), _frac(b), d, f0, f1)
        if self.a >= self.b:
            raise ValueError(f"slab endpoints must satisfy a < b, got a={self.a}, b={self.b}")
        if self.f0.d != self.d or self.f1.d != self.d:
            raise ValueError("boundary data dimension does not match problem dimension")
        if not self.f0.is_t_free or not self.f1.is_t_free:
            raise ValueError("boundary data must be t-free")

    def to_json_dict(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "d": self.d,
            "f0": self.f0.to_json_dict(),
            "f1": self.f1.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SlabProblem":
        return cls(
            d=_json_dim(obj, "a slab problem", {"a", "b", "d", "f0", "f1"}),
            a=_json_rational(obj["a"]),
            b=_json_rational(obj["b"]),
            f0=MultiPoly.from_json_dict(obj["f0"]),
            f1=MultiPoly.from_json_dict(obj["f1"]),
        )


def solve_slab(prob: SlabProblem) -> MultiPoly:
    """Harmonic polynomial h with trace(h,a) = f0 and trace(h,b) = f1.

    With C_x = cos(xD), S_x = sin(xD)/D and h = C_t u0 + S_t u1, the walls
    ask C_a u0 + S_a u1 = f0 and C_b u0 + S_b u1 = f1.  The determinant is
    L = S_(b-a), the trace operator of the width, so

        u0 = L^(-1) (S_b f0 - S_a f1),   u1 = L^(-1) (C_a f1 - C_b f0),

    and h = even_ck(u0) + odd_ck(u1).  Each composite series, such as
    S_b L^(-1), is a Cauchy product cut at the length of the data it acts
    on, and each datum's Laplacian chain is walked once for both of its
    series.  Zero data, and the series S_0 = 0, are skipped.
    """
    inverse = _inverse_trace_series(prob.b - prob.a, max(_length(prob.f0), _length(prob.f1)))
    u0 = u1 = MultiPoly.zero(prob.d)
    # f0 enters u0 through S_b and u1 through -C_b; f1 through -S_a and C_a
    for f, wall, sign in ((prob.f0, prob.b, 1), (prob.f1, prob.a, -1)):
        if f.is_zero:
            continue
        n = _length(f)
        series = [(-sign, _wall_series(wall, n, 0))]
        if wall:  # else S_wall = 0
            series.append((sign, _wall_series(wall, n, 1)))
        parts = _series(f, [
            _series_product(([s * v for v in nums], den), inverse, n)
            for s, (nums, den) in series
        ])
        u1 += parts[0]
        if wall:
            u0 += parts[1]
    return even_ck_extension(u0) + odd_ck_extension(u1)


def verify_boundary(h: MultiPoly, prob: SlabProblem) -> VerificationReport:
    """Exact residuals of the two boundary traces and of harmonicity.

    The traces and the Laplacian are read off one grouping of h by
    y-monomial, which h keeps.
    """
    start = time.perf_counter()
    at_a, at_b = h.traces(prob.a, prob.b)
    residuals = {
        "trace_at_a": at_a - prob.f0,
        "trace_at_b": at_b - prob.f1,
        "laplacian": h.laplacian(),
    }
    return VerificationReport.from_residuals(
        "slab_boundary", residuals, elapsed=time.perf_counter() - start
    )


def even_reflection_identity(h: MultiPoly) -> VerificationReport:
    """Check h(t,y) + h(-t,y) = 2 H(t,y) with H the even CK extension of h's
    trace at 0 (the generalized reflection identity across t = 0)."""
    _require_harmonic(h, "even_reflection_identity requires a harmonic input")
    start = time.perf_counter()
    two_h_even = even_ck_extension(h.trace(0)).scale(2)
    residual = (h + h.negate_t()) - two_h_even
    return VerificationReport.from_residuals(
        "even_reflection_identity",
        {"reflection": residual},
        elapsed=time.perf_counter() - start,
    )


def odd_wall_reflection(h: MultiPoly, c: Scalar) -> VerificationReport:
    """Check h(c+t,y) = -h(c-t,y) at a wall c where the trace vanishes."""
    _require_harmonic(h, "odd_wall_reflection requires a harmonic input")
    wall_trace = h.trace(c)
    if not wall_trace.is_zero:
        raise ValueError(f"odd_wall_reflection requires trace(h, {c}) = 0, got {wall_trace}")
    start = time.perf_counter()
    p = h.shift_t(c)
    return VerificationReport.from_residuals(
        "odd_wall_reflection",
        {"odd_reflection": p + p.negate_t()},
        elapsed=time.perf_counter() - start,
    )


def zero_data_rigidity(h: MultiPoly, a: Scalar, b: Scalar) -> VerificationReport:
    """A harmonic polynomial vanishing on both walls is identically zero.

    (Its reflection extension is periodic in t; a periodic polynomial is
    t-free, and a t-free polynomial vanishing at t = a is zero.)
    """
    _require_harmonic(h, "zero_data_rigidity requires a harmonic input")
    start = time.perf_counter()
    if not all(wall.is_zero for wall in h.traces(a, b)):
        raise ValueError(f"zero_data_rigidity requires trace(h, {a}) = trace(h, {b}) = 0")
    elapsed = time.perf_counter() - start
    return VerificationReport.from_residuals("zero_data_rigidity", {"h": h}, elapsed=elapsed)

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

from .laplace import _series, _wall_quotients, even_ck_extension
from .poly import (
    MultiPoly,
    Scalar,
    _cauchy_extension,
    _frac,
    _json_dim,
    _json_rational,
    _MonomialIndex,
    _require_harmonic,
)
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

    and h = C_t u0 + S_t u1 is cauchy_extension(u0, u1).  Each composite
    series, such as S_b L^(-1), is a quotient N / S_(b-a), and the two of a
    wall, on one datum, come from one pass of _wall_quotients, cut at the
    length of that datum's chain.  The walks of f0, f1, u0 and u1 share one
    monomial index, so each monomial's Laplacian targets are computed once
    per solve: the monomials of u0 and u1 lie in the chains of f0 and f1,
    which are walked first.  A zero datum has an empty chain, and the
    series S_0 / S_(b-a) = 0 has zero coefficients, so both give zero parts
    without a test.  At a = 0, S_b / S_(b-a) = 1 and S_a / S_(b-a) = 0, so
    u0 is f0, chain and all, and neither series is applied.
    """
    index = _MonomialIndex()
    w = prob.b - prob.a
    cb, sb = _wall_quotients(prob.b, w, len(prob.f0._y_chain(index)))
    ca, sa = _wall_quotients(prob.a, w, len(prob.f1._y_chain(index)))
    u0 = prob.f0 if not prob.a else _series(prob.f0, sb) - _series(prob.f1, sa)
    u1 = _series(prob.f1, ca) - _series(prob.f0, cb)
    return _cauchy_extension(u0, u1, index)


def verify_boundary(h: MultiPoly, prob: SlabProblem) -> VerificationReport:
    """Exact residuals of the two boundary traces and of harmonicity.

    The traces and the Laplacian are read off one grouping of h by
    y-monomial, which h keeps.  A trace equal to its datum (canonical
    forms compare literally) has the zero residual; trace - datum is built
    only when they differ.
    """
    start = time.perf_counter()
    at_a, at_b = h.traces(prob.a, prob.b)
    zero = MultiPoly.zero(h.d)
    residuals = {
        "trace_at_a": zero if at_a == prob.f0 else at_a - prob.f0,
        "trace_at_b": zero if at_b == prob.f1 else at_b - prob.f1,
        "laplacian": h.laplacian(),
    }
    return VerificationReport("slab_boundary", residuals, elapsed=time.perf_counter() - start)


def even_reflection_identity(h: MultiPoly) -> VerificationReport:
    """Check h(t,y) + h(-t,y) = 2 H(t,y) with H the even CK extension of h's
    trace at 0 (the generalized reflection identity across t = 0)."""
    _require_harmonic(h, "even_reflection_identity requires a harmonic input")
    start = time.perf_counter()
    two_h_even = even_ck_extension(h.trace(0)).scale(2)
    residual = (h + h.negate_t()) - two_h_even
    return VerificationReport(
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
    return VerificationReport(
        "odd_wall_reflection",
        {"odd_reflection": p + p.negate_t()},
        elapsed=time.perf_counter() - start,
    )

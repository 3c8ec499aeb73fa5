"""Structured pass/fail records for exact identity checks.

A report carries the residual polynomials themselves rather than norms, so a
failure is directly diagnosable and machine-checkable: the status is "pass"
exactly when every residual is the zero polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .poly import MultiPoly

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class VerificationReport:
    name: str
    status: str
    residuals: dict[str, MultiPoly]
    extras: dict[str, MultiPoly] = field(default_factory=dict)
    elapsed: float = 0.0

    @classmethod
    def from_residuals(
        cls,
        name: str,
        residuals: dict[str, MultiPoly],
        extras: dict[str, MultiPoly] | None = None,
        elapsed: float = 0.0,
    ) -> "VerificationReport":
        status = PASS if all(r.is_zero for r in residuals.values()) else FAIL
        return cls(name, status, dict(residuals), dict(extras or {}), elapsed)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def nonzero_residuals(self) -> dict[str, MultiPoly]:
        return {k: r for k, r in self.residuals.items() if not r.is_zero}

    def to_json_dict(self) -> dict:
        out = {
            "check": self.name,
            "status": self.status,
            "residuals": {k: r.to_json_dict() for k, r in self.residuals.items()},
            "elapsed_seconds": self.elapsed,
        }
        if self.extras:
            out["extras"] = {k: p.to_json_dict() for k, p in self.extras.items()}
        return out

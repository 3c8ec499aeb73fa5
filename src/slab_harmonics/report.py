"""Structured pass/fail records for exact identity checks.

A report carries the residual polynomials themselves rather than norms, so a
failure is directly diagnosable and machine-checkable: the status is "pass"
exactly when every residual is the zero polynomial.

`Record` is the frozen value-object base of the report and of the problem
and solution classes.
"""

from __future__ import annotations

from .poly import MultiPoly

PASS = "pass"
FAIL = "fail"


class Record:
    """An immutable value: the subclass's __slots__ name its fields in
    constructor order, its __init__ sets them once with _freeze, and == and
    repr go field by field."""

    __slots__ = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class VerificationReport(Record):
    __slots__ = ("name", "status", "residuals", "extras", "elapsed")

    def __init__(
        self,
        name: str,
        status: str,
        residuals: dict[str, MultiPoly],
        extras: dict[str, MultiPoly] | None = None,
        elapsed: float = 0.0,
    ):
        self._freeze(name, status, residuals, {} if extras is None else extras, elapsed)

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

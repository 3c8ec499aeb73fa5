"""Structured pass/fail records for exact identity checks.

A report carries the residual polynomials themselves rather than norms, so a
failure is directly diagnosable and machine-checkable.  Its status is not
stored but computed: "pass" exactly when every residual is the zero
polynomial.

`Record` is the frozen value-object base of the report and of the problem
and solution classes.
"""

from __future__ import annotations

import json

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
    """The residuals of one check; its status is read off them."""

    __slots__ = ("name", "residuals", "extras", "elapsed")

    def __init__(
        self,
        name: str,
        residuals: dict[str, MultiPoly],
        extras: dict[str, MultiPoly] | None = None,
        elapsed: float = 0.0,
    ):
        self._freeze(name, residuals, {} if extras is None else extras, elapsed)

    @property
    def passed(self) -> bool:
        return all(r.is_zero for r in self.residuals.values())

    @property
    def status(self) -> str:
        return PASS if self.passed else FAIL

    def nonzero_residuals(self) -> dict[str, MultiPoly]:
        return {k: r for k, r in self.residuals.items() if not r.is_zero}

    def to_json_text(self) -> str:
        """The report as JSON: the scalars through json.dumps, each
        polynomial through MultiPoly.to_json_text."""
        text = '{"check": %s, "status": %s, "residuals": %s, "elapsed_seconds": %s' % (
            json.dumps(self.name),
            json.dumps(self.status),
            _polys_text(self.residuals),
            json.dumps(self.elapsed),
        )
        if self.extras:
            text += ', "extras": ' + _polys_text(self.extras)
        return text + "}"


def _polys_text(polys: dict[str, MultiPoly]) -> str:
    """The JSON object text of a str -> MultiPoly map, in its key order."""
    return "{%s}" % ", ".join(["%s: %s" % (json.dumps(k), p.to_json_text()) for k, p in polys.items()])

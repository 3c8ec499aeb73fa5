"""The value-object contract of the problem, solution and report classes:
construction in field order, equality by fields, immutability, repr and
the validation errors of the problems."""

from fractions import Fraction

import pytest

from slab_harmonics import (
    DiffEqProblem,
    DiffEqSolution,
    MultiPoly,
    SlabProblem,
    VerificationReport,
    variables,
)

T, Y1 = variables(1)
ZERO = MultiPoly.zero(1)

# one instance of each class, and the same fields in the old field order
CASES = [
    (SlabProblem, (0, "1/2", 1, Y1 * Y1, MultiPoly.constant(1, 3))),
    (DiffEqProblem, (T * Y1, 1)),
    (DiffEqSolution, (T,)),
    (VerificationReport, ("chk", "fail", {"r": Y1}, {"x": T}, 1.5)),
]
FIELDS = {
    SlabProblem: ("a", "b", "d", "f0", "f1"),
    DiffEqProblem: ("g", "d"),
    DiffEqSolution: ("h",),
    VerificationReport: ("name", "status", "residuals", "extras", "elapsed"),
}


@pytest.mark.parametrize("cls, values", CASES)
def test_positional_and_keyword_construction_agree(cls, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    assert by_position == by_keyword
    assert not hasattr(by_position, "__dict__")  # a __slots__ class


def test_fields_hold_the_constructor_arguments():
    prob = SlabProblem(0, "1/2", 1, Y1, ZERO)
    assert (prob.a, prob.b, prob.d, prob.f0, prob.f1) == (Fraction(0), Fraction(1, 2), 1, Y1, ZERO)
    assert type(prob.a) is Fraction and type(prob.b) is Fraction
    report = VerificationReport("chk", "pass", {})
    assert (report.extras, report.elapsed) == ({}, 0.0)


def test_each_report_gets_its_own_extras():
    first = VerificationReport("chk", "pass", {})
    second = VerificationReport("chk", "pass", {}, None)
    assert first.extras == second.extras == {}
    assert first.extras is not second.extras


# per field, another valid value; None where d is fixed by the polynomials
OTHER_VALUES = {
    SlabProblem: (-1, 1, None, Y1, ZERO),
    DiffEqProblem: (T, None),
    DiffEqSolution: (Y1,),
    VerificationReport: ("other", "pass", {"r": T}, {}, 0.0),
}


@pytest.mark.parametrize("cls, values", CASES)
def test_equality_is_field_by_field(cls, values):
    assert cls(*values) == cls(*values)
    assert not cls(*values) != cls(*values)
    for i, other in enumerate(OTHER_VALUES[cls]):
        if other is None:
            continue
        changed = cls(*values[:i], other, *values[i + 1 :])
        assert changed != cls(*values), (cls, FIELDS[cls][i])
        assert not changed == cls(*values), (cls, FIELDS[cls][i])
    assert cls(*values) != values  # another type is never equal


def test_records_of_different_classes_are_never_equal():
    assert DiffEqSolution(T) != DiffEqProblem(T, 1)


@pytest.mark.parametrize("cls, values", CASES)
def test_no_attribute_can_be_assigned_or_deleted(cls, values):
    record = cls(*values)
    for name in FIELDS[cls] + ("other",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert record == cls(*values)


def test_repr_lists_the_fields_in_order():
    # the text the frozen dataclasses printed
    assert repr(SlabProblem(0, "1/2", 1, Y1 * Y1, MultiPoly.constant(1, 3))) == (
        "SlabProblem(a=Fraction(0, 1), b=Fraction(1, 2), d=1, "
        "f0=MultiPoly(d=1, y1^2), f1=MultiPoly(d=1, 3))"
    )
    assert repr(DiffEqProblem(T * Y1, 1)) == "DiffEqProblem(g=MultiPoly(d=1, t*y1), d=1)"
    assert repr(DiffEqSolution(T)) == "DiffEqSolution(h=MultiPoly(d=1, t))"
    assert repr(VerificationReport.from_residuals("chk", {"r": Y1}, {"x": T}, 1.5)) == (
        "VerificationReport(name='chk', status='fail', residuals={'r': MultiPoly(d=1, y1)}, "
        "extras={'x': MultiPoly(d=1, t)}, elapsed=1.5)"
    )


@pytest.mark.parametrize("make, message", [
    (lambda: SlabProblem(1, 1, 1, Y1, Y1), "slab endpoints must satisfy a < b, got a=1, b=1"),
    (lambda: SlabProblem("1/2", 0, 1, Y1, Y1),
     "slab endpoints must satisfy a < b, got a=1/2, b=0"),
    (lambda: SlabProblem(0, 1, 2, Y1, Y1),
     "boundary data dimension does not match problem dimension"),
    (lambda: SlabProblem(0, 1, 1, Y1, MultiPoly.zero(2)),
     "boundary data dimension does not match problem dimension"),
    (lambda: SlabProblem(0, 1, 1, T, Y1), "boundary data must be t-free"),
    (lambda: DiffEqProblem(T, 2), "right-hand side dimension does not match problem dimension"),
    (lambda: DiffEqProblem(T * T, 1), "right-hand side must be harmonic; laplacian = 2"),
])
def test_problem_validation_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message

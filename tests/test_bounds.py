"""Rational abscissa bounds and the global audit."""

from fractions import Fraction

import pytest

from repzeta.bounds import (
    AuditError,
    IsotropicCase,
    _class_growth,
    isotropic_abscissa_audit,
    isotropic_case_bound,
    slm_class_growth_bound,
    unified_isotropic_bound,
)
from repzeta.rootsystems import coxeter_number
from repzeta.sl2local import sl1_division_abscissa


def test_slm_class_growth_examples():
    assert slm_class_growth_bound(2, 1) == 0
    assert slm_class_growth_bound(3, 2) == 1
    assert slm_class_growth_bound(6, 1) == Fraction(4, 3)


def test_case_a_matches_transform():
    case = IsotropicCase(label="a", m=6, d=1, x=None)
    assert isotropic_case_bound(case) == Fraction(8, 101)


def test_displayed_cases_at_x_five():
    expected = {
        "b": Fraction(15, 64),
        "c": Fraction(5, 43),
        "d": Fraction(4, 9),
        "e": Fraction(5, 8),
        "f": Fraction(9, 28),
    }
    for label, value in expected.items():
        case = IsotropicCase(label=label, m=None, d=None, x=5)
        assert isotropic_case_bound(case) == value


def _dimension(series, rank):
    # r(h + 1), with C1 = A1 of Coxeter number 2
    h = 2 if (series, rank) == ("C", 1) else coxeter_number(series, rank)
    return rank * (h + 1)


@pytest.mark.parametrize("label", ["a", "b", "c", "d", "f"])
def test_family_dimension_is_that_of_its_first_fallback_type(label):
    if label == "a":
        cases = [IsotropicCase("a", m=m, d=d) for m in range(2, 30) for d in range(1, 10)]
    else:
        cases = [IsotropicCase(label, x=x) for x in range(1, 60)]
    for case in cases:
        gamma, delta, types = _class_growth(case)
        assert delta == _dimension(*types[0])
        assert isotropic_case_bound(case) == 2 * gamma / (delta - gamma)


def test_family_e_dimension_is_of_type_d_while_its_fallback_is_type_c():
    # the smaller 2/h of C keeps the audit conservative
    for x in range(1, 60):
        _, delta, types = _class_growth(IsotropicCase("e", x=x))
        assert types == [("C", 2 * x + 1)]
        assert delta == _dimension("D", 2 * x + 1) != _dimension("C", 2 * x + 1)
        assert coxeter_number("C", 2 * x + 1) > coxeter_number("D", 2 * x + 1)


def test_unknown_family_and_missing_parameters_are_refused():
    for case in (IsotropicCase("g", x=3), IsotropicCase("b"), IsotropicCase("c", x=0),
                 IsotropicCase("a", m=3)):
        with pytest.raises(ValueError):
            isotropic_case_bound(case)
    # the label is checked before the parameters it would need
    for case in (IsotropicCase("g"), IsotropicCase("g", x=0)):
        with pytest.raises(ValueError, match="unknown isotropic case label 'g'"):
            isotropic_case_bound(case)


def test_unified_formula_equals_case_c():
    for x in range(1, 60):
        case = IsotropicCase(label="c", m=None, d=None, x=x)
        assert unified_isotropic_bound(x) == isotropic_case_bound(case)


def test_unified_formula_increases_toward_two_thirds():
    values = [unified_isotropic_bound(x) for x in range(3, 200)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < Fraction(2, 3)


def test_audit_minimum_is_one_fifteenth_at_the_largest_exceptional():
    report = isotropic_abscissa_audit(50, 50)
    assert report.passed
    assert report.global_min == Fraction(1, 15)
    assert len(report.min_cases) == 1
    assert "E8" in report.min_cases[0]
    assert all(row.value >= Fraction(1, 15) for row in report.rows)


def test_audit_rows_use_fallback_when_formula_degenerates():
    report = isotropic_abscissa_audit(10, 10)
    degenerate = [row for row in report.rows if row.formula is None]
    assert degenerate, "small-parameter rows must fall back to the torus bound"
    for row in degenerate:
        assert row.value == row.fallback > 0


def test_audit_value_never_below_either_source():
    report = isotropic_abscissa_audit(12, 12)
    for row in report.rows:
        assert row.value >= row.fallback
        if row.formula is not None:
            assert row.value == max(row.formula, row.fallback)


def test_audit_rejects_tiny_ranges():
    with pytest.raises(ValueError):
        isotropic_abscissa_audit(4, 50)
    with pytest.raises(ValueError):
        isotropic_abscissa_audit(50, 3)


def test_division_algebra_dichotomy_escapes_the_floor():
    # matrix case stays above the uniform floor; the division-algebra side
    # drops to zero, so no uniform positive bound covers both
    floor = Fraction(1, 15)
    report = isotropic_abscissa_audit(20, 20)
    assert report.global_min >= floor
    assert sl1_division_abscissa(40) < floor
    assert sl1_division_abscissa(1000) < Fraction(1, 100)

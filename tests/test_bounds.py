"""Rational abscissa bounds and the global audit."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

import repzeta.bounds
from repzeta.bounds import (
    AuditRow,
    _family,
    isotropic_abscissa_audit,
    isotropic_case_bound,
    slm_class_growth_bound,
    unified_isotropic_bound,
)
from repzeta.errors import BudgetExceededError
from repzeta.rootsystems import coxeter_number
from repzeta.sl2local import sl1_division_abscissa


def test_slm_class_growth_examples():
    assert slm_class_growth_bound(2, 1) == 0
    assert slm_class_growth_bound(3, 2) == 1
    assert slm_class_growth_bound(6, 1) == Fraction(4, 3)


def test_case_a_matches_transform():
    assert isotropic_case_bound("a", 6, 1) == Fraction(8, 101)


def test_displayed_cases_at_x_five():
    expected = {
        "b": Fraction(15, 64),
        "c": Fraction(5, 43),
        "d": Fraction(4, 9),
        "e": Fraction(5, 8),
        "f": Fraction(9, 28),
    }
    for label, value in expected.items():
        assert isotropic_case_bound(label, 5) == value


def _dimension(series, rank):
    # r(h + 1), with C1 = A1 of Coxeter number 2
    h = 2 if (series, rank) == ("C", 1) else coxeter_number(series, rank)
    return rank * (h + 1)


@pytest.mark.parametrize("label", ["a", "b", "c", "d", "f"])
def test_family_dimension_is_that_of_its_first_fallback_type(label):
    if label == "a":
        cases = [(m, d) for m in range(2, 30) for d in range(1, 10)]
    else:
        cases = [(x,) for x in range(1, 60)]
    for parameters in cases:
        gamma_n, gamma_d, delta, types = _family(label, *parameters)
        gamma = Fraction(gamma_n, gamma_d)
        assert delta == _dimension(*types[0])
        assert isotropic_case_bound(label, *parameters) == 2 * gamma / (delta - gamma)


def test_family_e_dimension_is_of_type_d_while_its_fallback_is_type_c():
    # the smaller 2/h of C keeps the audit conservative
    for x in range(1, 60):
        _, _, delta, types = _family("e", x)
        assert types == [("C", 2 * x + 1)]
        assert delta == _dimension("D", 2 * x + 1) != _dimension("C", 2 * x + 1)
        assert coxeter_number("C", 2 * x + 1) > coxeter_number("D", 2 * x + 1)


def test_unknown_family_and_missing_parameters_are_refused():
    for case in (("g", 3), ("b",), ("c", 0), ("a", 3)):
        with pytest.raises(ValueError):
            isotropic_case_bound(*case)
    # the label is checked before the parameters it would need
    for case in (("g",), ("g", 0)):
        with pytest.raises(ValueError, match="unknown isotropic case label 'g'"):
            isotropic_case_bound(*case)


@pytest.mark.parametrize("case,takes", [
    (("a", 3), r"'a' takes \(m, d\), got 1 parameter"),
    (("b",), r"'b' takes \(index x\), got 0 parameter"),
    (("c", 5, 1), r"'c' takes \(index x\), got 2 parameter"),
    # the count is checked before the values it would hold
    (("a", 2.5, 1, 1), r"'a' takes \(m, d\), got 3 parameter"),
])
def test_a_wrong_number_of_parameters_names_what_the_family_takes(case, takes):
    with pytest.raises(ValueError, match=takes):
        isotropic_case_bound(*case)


def test_every_recorded_formula_is_the_case_bound_at_its_parameters():
    rows = [row for row in isotropic_abscissa_audit(60, 60).rows if row.formula is not None]
    assert {row.case for row in rows} == set("abcdef")
    for row in rows:
        assert row.formula == isotropic_case_bound(row.case, *row.parameters.values())


@pytest.mark.parametrize("shape", [(5, 4), (7, 9), (12, 12), (60, 60)])
def test_the_audit_counts_its_rows_and_refuses_one_over_its_budget(monkeypatch, shape):
    assert repzeta.bounds.MAX_AUDIT_ROWS == 100_000
    rows = len(isotropic_abscissa_audit(*shape).rows)
    monkeypatch.setattr(repzeta.bounds, "MAX_AUDIT_ROWS", rows)
    assert len(isotropic_abscissa_audit(*shape).rows) == rows

    def no_row(*_):
        raise AssertionError("a row was decided before the refusal")

    monkeypatch.setattr(repzeta.bounds, "MAX_AUDIT_ROWS", rows - 1)
    monkeypatch.setattr(repzeta.bounds, "_formula", no_row)
    message = f"walks {rows} rows, above its budget of {rows - 1}"
    with pytest.raises(BudgetExceededError, match=message):
        isotropic_abscissa_audit(*shape)


def test_the_audit_refusal_names_the_largest_x_max_within_the_budget(monkeypatch):
    # (12, 12) has 23 rows of case a, 5 per index x and 5 exceptional
    monkeypatch.setattr(repzeta.bounds, "MAX_AUDIT_ROWS", 87)
    message = "at this md_max the largest x_max within it is 11$"
    with pytest.raises(BudgetExceededError, match=message):
        isotropic_abscissa_audit(12, 12)
    assert len(isotropic_abscissa_audit(11, 12).rows) == 83
    # an md_max above the budget is refused uncounted, on its lower bound of md_max rows of case a
    message = "walks at least 118 rows, above its budget of 87: at this md_max no x_max fits$"
    with pytest.raises(BudgetExceededError, match=message):
        isotropic_abscissa_audit(5, 88)


def test_unified_formula_equals_case_c():
    for x in range(1, 60):
        assert unified_isotropic_bound(x) == isotropic_case_bound("c", x)


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


def test_audit_verdict_reads_the_threshold_at_call_time(monkeypatch):
    # E8 sits at 1/15, below a threshold of 1/14: the audit reports the
    # failure, with every row, instead of raising
    rows = isotropic_abscissa_audit(12, 12).rows
    monkeypatch.setattr(repzeta.bounds, "THRESHOLD", Fraction(1, 14))
    report = isotropic_abscissa_audit(12, 12)
    assert report.passed is False
    assert report.threshold == Fraction(1, 14)
    assert report.global_min == Fraction(1, 15)
    assert report.min_cases == ("exceptional:{'type': 'E8'}",)
    assert report.rows == rows
    assert report.format_table().splitlines()[-1] == (
        "global minimum 1/15 (BELOW threshold 1/14) at exceptional:{'type': 'E8'}"
    )


def _oracle_fallback(types):
    # the least torus bound 2/h over the types, the first of them on a tie
    candidates = []
    for series, rank in types:
        h = 2 if (series, rank) == ("C", 1) else coxeter_number(series, rank)
        candidates.append((f"{series}{rank}", Fraction(2, h)))
    return min(candidates, key=lambda c: c[1])


def _oracle_rows(x_max, md_max):
    """Every audit row from the paper's closed forms in plain Fraction arithmetic."""
    families = {
        "b": lambda x: (Fraction(x * x - 2 * x), (2 * x + 2) ** 2 - 1, [("A", 2 * x + 1)]),
        "c": lambda x: (Fraction(x * x - 3 * x, 2), (x + 2) * (2 * x + 3),
                        [("D", x + 2), ("B", x + 2)]),
        "d": lambda x: (Fraction(x * x - x, 2), x * (2 * x + 1), [("C", x)]),
        "e": lambda x: (Fraction(2 * x * x + x), (2 * x + 1) * (4 * x + 1), [("C", 2 * x + 1)]),
        "f": lambda x: (Fraction(2 * x * x - x), (2 * x + 3) * (4 * x + 5), [("D", 2 * x + 3)]),
    }
    cases = []
    for m in range(2, md_max + 1):
        for d in range(1, md_max // m + 1):
            gamma = Fraction(((m + 1) // 2) * (m // 2) * d * d - m * d + 1, 3)
            cases.append(("a", {"m": m, "d": d}, gamma, (m * d) ** 2 - 1, [("A", m * d - 1)]))
    for label, family in families.items():
        cases += [(label, {"x": x}, *family(x)) for x in range(1, x_max + 1)]
    rows = []
    for case, params, gamma, delta, types in cases:
        formula = 2 * gamma / (delta - gamma)
        if formula <= 0 and case != "a":
            formula = None
        label, fallback = _oracle_fallback(types)
        rows.append(AuditRow(case, params, formula, label, fallback, max(formula or 0, fallback)))
    for series, rank in (("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)):
        label, fallback = _oracle_fallback([(series, rank)])
        rows.append(AuditRow("exceptional", {"type": label}, None, label, fallback, fallback))
    return rows


@pytest.mark.parametrize("shape", [(12, 12), (60, 60), (5, 120)])
def test_audit_rows_match_a_plain_fraction_oracle(shape):
    report = isotropic_abscissa_audit(*shape)
    expected = _oracle_rows(*shape)
    assert list(report.rows) == expected
    low = min(row.value for row in expected)
    assert report.global_min == low
    assert report.min_cases == tuple(
        f"{row.case}:{row.parameters}" for row in expected if row.value == low
    )


def test_audit_rows_are_immutable():
    row = isotropic_abscissa_audit(5, 4).rows[-1]
    assert row._fields == ("case", "parameters", "formula", "fallback_label", "fallback", "value")
    for field in row._fields:
        with pytest.raises(AttributeError):
            setattr(row, field, Fraction(1))
    assert row.value == Fraction(1, 15)


# SHA-256 of the sorted-key JSON report at the benchmark's most lopsided shapes
AUDIT_JSON_SHA256 = {
    (500, 50): "52d817db1d1762aea4a90b22e16c05fed43bcc78e22acb4468dd06af3b77b22c",
    (50, 500): "cc924004e67aac86c3d2462fa752fed2ad7ee6f16468813cda5700b5ddf57194",
}


@pytest.mark.parametrize("shape", sorted(AUDIT_JSON_SHA256))
def test_audit_json_is_pinned_at_the_extreme_shapes(shape):
    payload = json.dumps(isotropic_abscissa_audit(*shape).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == AUDIT_JSON_SHA256[shape]


def test_non_integer_parameters_are_refused_by_name():
    calls = [
        (lambda: unified_isotropic_bound(5.5), "x must be an integer"),
        (lambda: slm_class_growth_bound(2.5, 1), "m must be an integer"),
        (lambda: slm_class_growth_bound(3, 1.0), "d must be an integer"),
        (lambda: isotropic_abscissa_audit(50.0, 50), "x_max must be an integer"),
        (lambda: isotropic_abscissa_audit(50, "50"), "md_max must be an integer"),
        (lambda: isotropic_case_bound("b", 5.0), "x must be an integer"),
        (lambda: isotropic_case_bound("a", 3, 1.5), "d must be an integer"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=message):
            call()
    # the range messages are unchanged
    with pytest.raises(ValueError, match="m must be >= 2, got 1"):
        slm_class_growth_bound(1, 1)
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):
        isotropic_case_bound("a", 3, 0)
    with pytest.raises(ValueError, match="index x must be >= 1, got 0"):
        unified_isotropic_bound(0)
    with pytest.raises(ValueError, match="audit needs x_max >= 5 and md_max >= 4"):
        isotropic_abscissa_audit(4, 50)


def test_numpy_integer_parameters_give_the_same_values():
    assert slm_class_growth_bound(np.int64(6), np.int32(1)) == Fraction(4, 3)
    assert unified_isotropic_bound(np.int64(7)) == unified_isotropic_bound(7)
    assert isotropic_case_bound("e", np.int64(5)) == Fraction(5, 8)
    assert isotropic_abscissa_audit(np.int64(12), np.int32(12)) == isotropic_abscissa_audit(12, 12)


@pytest.mark.parametrize("order", [("D", "B"), ("B", "D")])
def test_first_fallback_type_of_the_largest_coxeter_number_wins_a_tie(monkeypatch, order):
    # D_{x+3} and B_{x+2} share h = 2x + 4; no family of the paper has such a tie
    def family_c(x):
        rank = {"D": x + 3, "B": x + 2}
        return x * x - 3 * x, 2, (x + 2) * (2 * x + 3), [(s, rank[s]) for s in order]

    monkeypatch.setitem(repzeta.bounds._FAMILIES, "c", family_c)
    rows = [row for row in isotropic_abscissa_audit(12, 12).rows if row.case == "c"]
    assert [row.fallback_label for row in rows] == [
        f"D{x + 3}" if order[0] == "D" else f"B{x + 2}" for x in range(1, 13)
    ]
    assert all(row.fallback == Fraction(2, 2 * x + 4) for x, row in enumerate(rows, 1))


def test_every_row_at_the_minimum_is_named(monkeypatch):
    monkeypatch.setattr(repzeta.bounds, "_EXCEPTIONAL", (("E", 8), ("G", 2), ("E", 8)))
    report = isotropic_abscissa_audit(12, 12)
    assert report.global_min == Fraction(1, 15)
    assert report.min_cases == ("exceptional:{'type': 'E8'}",) * 2

"""Lower bounds for the representation growth abscissa, exact and auditable.

Two mechanisms feed the audit.  A conjugacy-growth exponent gamma for a
group of dimension delta forces abscissa >= 2*gamma/(delta - gamma); and any
anisotropic inner form yields abscissa >= rank/#positive-roots = 2/h of the
absolute root system (the "torus" bound).  Every audited type is one table
row (case, parameters, formula, fallback types): an isotropic family a-f
takes its formula from (gamma, delta) through 2*gamma/(delta - gamma), and
G2, F4, E6, E7 and E8 are rows with no formula and one fallback type each.
One row builder sets the fallback to the least 2/h over the row's types and
the value to max(formula, fallback), all in exact rationals.  The global
minimum must be 1/15, attained exactly where the Coxeter number reaches 30.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rootsystems import coxeter_number

THRESHOLD = Fraction(1, 15)


class AuditError(RuntimeError):
    """Raised when some audited case falls below the 1/15 threshold."""


def slm_class_growth_bound(m: int, d: int) -> Fraction:
    """Class-growth exponent bound for SL_m over a degree-d division ring:
    (floor((m+1)/2) * floor(m/2) * d^2 - m*d + 1) / 3."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    n = ((m + 1) // 2) * (m // 2) * d * d - m * d + 1
    return Fraction(n, 3)


@dataclass(frozen=True)
class IsotropicCase:
    """One isotropic family: label 'a' with (m, d), or 'b'..'f' with index x."""

    label: str
    m: int | None = None
    d: int | None = None
    x: int | None = None


# Each isotropic family b-f at index x: its class-growth exponent gamma, its
# dimension delta, and the absolute root systems of its torus fallback.
_FAMILIES = {
    "b": lambda x: (Fraction(x * x - 2 * x), (2 * x + 2) ** 2 - 1, [("A", 2 * x + 1)]),
    # even ambient dimension gives D, odd gives B; audit both parities
    "c": lambda x: (
        Fraction(x * x - 3 * x, 2), (x + 2) * (2 * x + 3), [("D", x + 2), ("B", x + 2)]
    ),
    "d": lambda x: (Fraction(x * x - x, 2), x * (2 * x + 1), [("C", x)]),
    # delta is dim D_{2x+1}, yet the fallback is C_{2x+1}; its 2/h is the
    # smaller of the two, so the audit stays conservative
    "e": lambda x: (Fraction(2 * x * x + x), (2 * x + 1) * (4 * x + 1), [("C", 2 * x + 1)]),
    "f": lambda x: (Fraction(2 * x * x - x), (2 * x + 3) * (4 * x + 5), [("D", 2 * x + 3)]),
}


def _class_growth(case: IsotropicCase) -> tuple[Fraction, int, list[tuple[str, int]]]:
    """(gamma, delta, fallback types) of one isotropic family."""
    lab = case.label
    if lab == "a":
        if case.m is None or case.d is None:
            raise ValueError("case 'a' needs parameters m and d")
        md = case.m * case.d
        return slm_class_growth_bound(case.m, case.d), md * md - 1, [("A", md - 1)]
    if lab not in _FAMILIES:
        raise ValueError(f"unknown isotropic case label {lab!r}")
    if case.x is None:
        raise ValueError(f"case {lab!r} needs parameter x")
    if case.x < 1:
        raise ValueError(f"index x must be >= 1, got {case.x}")
    return _FAMILIES[lab](case.x)


def _case_formula(gamma: Fraction, delta: int) -> Fraction:
    # 2*gamma/(delta - gamma) as one exact division; a negative gamma passes
    return Fraction(2 * gamma.numerator, delta * gamma.denominator - gamma.numerator)


def isotropic_case_bound(case: IsotropicCase) -> Fraction:
    """Exact rational abscissa lower bound 2*gamma/(delta - gamma) for the
    given isotropic family.

    Case (a) takes the SL_m(D) exponent with delta = m^2 d^2 - 1; cases
    (b)-(f) take the unitary/orthogonal/symplectic rows of _FAMILIES.  At
    small x gamma is negative and so is the bound.
    """
    gamma, delta, _ = _class_growth(case)
    return _case_formula(gamma, delta)


def unified_isotropic_bound(x: int) -> Fraction:
    """Common lower envelope (2x^2 - 6x) / (3x^2 + 17x + 12) of cases (b)-(f);
    strictly increasing and above 1/15 for x >= 5."""
    if x < 1:
        raise ValueError(f"index x must be >= 1, got {x}")
    return Fraction(2 * x * x - 6 * x, 3 * x * x + 17 * x + 12)


def _coxeter(series: str, rank: int) -> int:
    # the table refuses C1 = A1, which case d meets at x = 1
    if series == "C" and rank == 1:
        return 2
    return coxeter_number(series, rank)


@dataclass(frozen=True)
class AuditRow:
    case: str
    parameters: dict
    formula: Fraction | None
    fallback_label: str
    fallback: Fraction
    value: Fraction

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "parameters": self.parameters,
            "formula": str(self.formula) if self.formula is not None else None,
            "fallback_label": self.fallback_label,
            "fallback": str(self.fallback),
            "value": str(self.value),
            "value_float": float(self.value),
        }


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]
    global_min: Fraction
    min_cases: tuple[str, ...]
    threshold: Fraction

    @property
    def passed(self) -> bool:
        return self.global_min >= self.threshold

    def to_json_dict(self) -> dict:
        return {
            "threshold": str(self.threshold),
            "global_min": str(self.global_min),
            "global_min_float": float(self.global_min),
            "min_cases": list(self.min_cases),
            "passed": self.passed,
            "rows": [row.to_json_dict() for row in self.rows],
        }

    def format_table(self) -> str:
        lines = [f"{'case':<14} {'parameters':<18} {'formula':>12} {'fallback':>16} {'value':>12}"]
        for row in self.rows:
            params = ",".join(f"{k}={v}" for k, v in row.parameters.items()) or "-"
            formula = str(row.formula) if row.formula is not None else "-"
            fb = f"{row.fallback_label}:{row.fallback}"
            lines.append(f"{row.case:<14} {params:<18} {formula:>12} {fb:>16} {str(row.value):>12}")
        lines.append(
            f"global minimum {self.global_min} "
            f"({'>=' if self.passed else 'BELOW'} threshold {self.threshold}) "
            f"at {', '.join(self.min_cases)}"
        )
        return "\n".join(lines)


_EXCEPTIONAL = (("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8))


def _row(case: str, parameters: dict, formula: Fraction | None,
         types: list[tuple[str, int]]) -> AuditRow:
    """One audit row: the fallback is the least torus bound 2/h over the
    row's types, and the value the larger of it and the formula."""
    fallback_label, fallback = min(
        ((f"{s}{r}", Fraction(2, _coxeter(s, r))) for s, r in types), key=lambda t: t[1]
    )
    return AuditRow(case, parameters, formula, fallback_label, fallback,
                    max(formula or 0, fallback))


def isotropic_abscissa_audit(x_max: int = 50, md_max: int = 50) -> AuditReport:
    """Exact audit of every isotropic family plus the exceptional types.

    Each row records the case formula (when its class-growth input is
    positive), the torus fallback 2/h of the absolute root system at the
    boundary parameters, and their maximum.  Raises AuditError if any row
    falls below 1/15; otherwise reports the global minimum, which is 1/15
    exactly, attained only at Coxeter number 30.
    """
    if x_max < 5 or md_max < 4:
        raise ValueError("audit needs x_max >= 5 and md_max >= 4")
    rows: list[AuditRow] = []
    cases = [IsotropicCase("a", m=m, d=d)
             for m in range(2, md_max + 1) for d in range(1, md_max // m + 1)]
    cases += [IsotropicCase(label, x=x) for label in _FAMILIES for x in range(1, x_max + 1)]
    for case in cases:
        gamma, delta, types = _class_growth(case)
        formula = _case_formula(gamma, delta)
        # case a records its zero formula (m = 2, d = 1); b-f drop a non-positive one
        if formula <= 0 and case.label != "a":
            formula = None
        params = {"m": case.m, "d": case.d} if case.label == "a" else {"x": case.x}
        rows.append(_row(case.label, params, formula, types))
    rows += [_row("exceptional", {"type": f"{s}{r}"}, None, [(s, r)]) for s, r in _EXCEPTIONAL]

    for row in rows:
        if row.value < THRESHOLD:
            raise AuditError(
                f"case {row.case} {row.parameters} gives {row.value} < {THRESHOLD}"
            )
    global_min = min(row.value for row in rows)
    min_cases = tuple(
        f"{row.case}:{row.parameters}" for row in rows if row.value == global_min
    )
    return AuditReport(
        rows=tuple(rows),
        global_min=global_min,
        min_cases=min_cases,
        threshold=THRESHOLD,
    )

"""Lower bounds for the representation growth abscissa, exact and auditable.

Two mechanisms feed the audit.  A conjugacy-growth exponent gamma for a
group of dimension delta forces abscissa >= 2*gamma/(delta - gamma); and any
anisotropic inner form yields abscissa >= rank/#positive-roots = 2/h of the
absolute root system (the "torus" bound).  One integer table, read through
one checked accessor, holds each isotropic family a-f: gamma's numerator and
denominator, delta, and its one fallback type with that type's Coxeter number
h in closed form; G2, F4, E6, E7 and E8 are rows with no formula, their h
read from the root-system table.  A row's fallback is 2/h, one Fraction per
h, and its value the larger of formula and fallback; each row is an
AuditRow, a NamedTuple.  Rows are decided in integers: the formula is one
pair (2*gamma_n, delta*gamma_d - gamma_n), compared with the fallback and
the running minimum by cross-multiplication.
An audit of more than MAX_AUDIT_ROWS rows is refused before its first row.
The report's `passed` is the verdict; the minimum is 1/15, at h = 30 only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .errors import BudgetExceededError, integer
from .rootsystems import coxeter_number

THRESHOLD = Fraction(1, 15)
# At the budget a row takes 3.4-5.2 us (medians 3.9 us at x_max = 19000 and
# 3.7 us at md_max = 11500, five runs each) and at most 0.6 KB at the
# tracemalloc peak (2-vCPU VM, Python 3.11): an audit stays under 1 s and 80 MB.
MAX_AUDIT_ROWS = 100_000


# Each isotropic family at its parameters: the numerator and denominator of
# its class-growth exponent gamma, its dimension delta, and the series, rank
# and Coxeter number h of its torus fallback, h in closed form as delta is.
# Case a is SL_m over a degree-d division ring; b-f are the unitary,
# orthogonal and symplectic families at index x.
_FAMILIES = {
    "a": lambda m, d: (((m + 1) // 2) * (m // 2) * d * d - m * d + 1, 3, (m * d) ** 2 - 1,
                       "A", m * d - 1, m * d),
    "b": lambda x: (x * x - 2 * x, 1, (2 * x + 2) ** 2 - 1, "A", 2 * x + 1, 2 * x + 2),
    # delta is dim D_{x+2}, yet the fallback is B_{x+2}: D's h = 2x + 2 is below
    # B's 2x + 4, so D's 2/h is never the least
    "c": lambda x: (x * x - 3 * x, 2, (x + 2) * (2 * x + 3), "B", x + 2, 2 * x + 4),
    "d": lambda x: (x * x - x, 2, x * (2 * x + 1), "C", x, 2 * x),
    # delta is dim D_{2x+1}, yet the fallback is C_{2x+1}; its 2/h is the
    # smaller of the two, so the audit stays conservative
    "e": lambda x: (2 * x * x + x, 1, (2 * x + 1) * (4 * x + 1), "C", 2 * x + 1, 4 * x + 2),
    "f": lambda x: (2 * x * x - x, 1, (2 * x + 3) * (4 * x + 5), "D", 2 * x + 3, 4 * x + 4),
}


def _family(label: str, *parameters: int) -> tuple:
    """The _FAMILIES row of one family: (m, d) for 'a', index x for 'b'..'f'."""
    if label not in _FAMILIES:
        raise ValueError(f"unknown isotropic case label {label!r}")
    names = (("m", 2), ("d", 1)) if label == "a" else (("index x", 1),)
    if len(parameters) != len(names):
        raise ValueError(f"isotropic case {label!r} takes ({', '.join(n for n, _ in names)}), "
                         f"got {len(parameters)} parameter(s)")
    return _FAMILIES[label](*(integer(v, n, low) for v, (n, low) in zip(parameters, names)))


def _formula(gamma_n: int, gamma_d: int, delta: int) -> tuple[int, int]:
    """2*gamma/(delta - gamma) as the integer pair (p, q); q > 0, as delta > gamma."""
    return 2 * gamma_n, delta * gamma_d - gamma_n


def slm_class_growth_bound(m: int, d: int) -> Fraction:
    """Class-growth exponent bound for SL_m over a degree-d division ring:
    (floor((m+1)/2) * floor(m/2) * d^2 - m*d + 1) / 3."""
    return Fraction(*_family("a", m, d)[:2])


def isotropic_case_bound(label: str, *parameters: int) -> Fraction:
    """Exact rational abscissa lower bound 2*gamma/(delta - gamma) of one
    isotropic family: label 'a' with (m, d), or 'b'..'f' with index x.

    Case (a) takes the SL_m(D) exponent with delta = m^2 d^2 - 1; cases
    (b)-(f) take the unitary/orthogonal/symplectic rows of _FAMILIES.  At
    small x gamma is negative and so is the bound.
    """
    return Fraction(*_formula(*_family(label, *parameters)[:3]))


def unified_isotropic_bound(x: int) -> Fraction:
    """Common lower envelope (2x^2 - 6x) / (3x^2 + 17x + 12) of cases (b)-(f);
    strictly increasing and above 1/15 for x >= 5."""
    x = integer(x, "index x", 1)
    return Fraction(2 * x * x - 6 * x, 3 * x * x + 17 * x + 12)


class AuditRow(NamedTuple):
    """One audited case: a NamedTuple, immutable and as cheap to build as a tuple."""

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


def isotropic_abscissa_audit(x_max: int = 50, md_max: int = 50) -> AuditReport:
    """Exact audit of every isotropic family plus the exceptional types.

    Each row records the case formula (when its class-growth input is
    positive), the torus fallback 2/h of the absolute root system at the
    boundary parameters, and their maximum.  Every row is walked, and the
    report's `passed` is the verdict: the global minimum against THRESHOLD,
    read at call time.  The minimum is 1/15 exactly, attained only at
    Coxeter number 30.
    """
    x_max, md_max = integer(x_max, "x_max"), integer(md_max, "md_max")
    if x_max < 5 or md_max < 4:
        raise ValueError("audit needs x_max >= 5 and md_max >= 4")
    # floor(md_max/m) rows for each m >= 2, md_max or more in all: a larger md_max goes uncounted
    a_rows = sum(md_max // m for m in range(2, md_max + 1)) if md_max <= MAX_AUDIT_ROWS else md_max
    if (size := a_rows + 5 * x_max + 5) > MAX_AUDIT_ROWS:
        largest = (MAX_AUDIT_ROWS - a_rows - 5) // 5
        fits = f"the largest x_max within it is {largest}" if largest >= 5 else "no x_max fits"
        raise BudgetExceededError(f"the audit at x_max = {x_max}, md_max = {md_max} walks "
                                  f"{'at least ' * (md_max > MAX_AUDIT_ROWS)}{size} rows, above "
                                  f"its budget of {MAX_AUDIT_ROWS}: at this md_max {fits}")
    cases = chain(
        (("a", {"m": m, "d": d}, _FAMILIES["a"](m, d))
         for m in range(2, md_max + 1) for d in range(1, md_max // m + 1)),
        ((label, {"x": x}, _FAMILIES[label](x)) for label in "bcdef" for x in range(1, x_max + 1)),
        # an exceptional row has no formula, as a zero gamma in b-f has none
        (("exceptional", {"type": f"{s}{r}"}, (0, 1, 1, s, r, coxeter_number(s, r)))
         for s, r in _EXCEPTIONAL),
    )
    fallbacks = {}  # h -> 2/h, each Fraction built once
    rows = []
    low, low_n, low_d = None, 1, 0  # the running minimum, +inf as 1/0
    for case, params, (gamma_n, gamma_d, delta, series, rank, h) in cases:
        fallback = fallbacks.get(h)
        if fallback is None:
            fallback = fallbacks[h] = Fraction(2, h)
        p, q = _formula(gamma_n, gamma_d, delta)
        # case a records its zero formula (m = 2, d = 1); b-f drop a non-positive one
        formula = Fraction(p, q) if p > 0 or case == "a" else None
        if p * h >= 2 * q:  # the formula wins a tie
            value, v_n, v_d = formula, p, q
        else:
            value, v_n, v_d = fallback, 2, h
        rows.append(AuditRow(case, params, formula, f"{series}{rank}", fallback, value))
        c = v_n * low_d - low_n * v_d
        if c < 0:
            low, low_n, low_d, min_cases = value, v_n, v_d, []
        if c <= 0:
            min_cases.append(f"{case}:{params}")
    return AuditReport(tuple(rows), low, tuple(min_cases), THRESHOLD)

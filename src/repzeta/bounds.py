"""Lower bounds for the representation growth abscissa, exact and auditable.

Two mechanisms feed the audit.  A conjugacy-growth exponent gamma for a
group of dimension delta forces abscissa >= 2*gamma/(delta - gamma); and any
anisotropic inner form yields abscissa >= rank/#positive-roots = 2/h of the
absolute root system (the "torus" bound).  For the isotropic families the
audited quantity is max(case formula, torus bound), all in exact rationals,
and the global minimum over every case plus the exceptional types must be
1/15, attained exactly where the Coxeter number reaches 30.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rootsystems import RootSystem, coxeter_number, witten_abscissa

THRESHOLD = Fraction(1, 15)


class AuditError(RuntimeError):
    """Raised when some audited case falls below the 1/15 threshold."""


def abscissa_from_class_growth(gamma, delta):
    """Abscissa lower bound 2*gamma/(delta - gamma) from class growth gamma
    in dimension delta.  Exact when fed Fractions."""
    if not 0 <= gamma < delta:
        raise ValueError(f"need 0 <= gamma < delta, got gamma={gamma}, delta={delta}")
    return (2 * gamma) / (delta - gamma)


def torus_abscissa_bound(rs: RootSystem) -> Fraction:
    """Lower bound rank/kappa = 2/h from the anisotropic-torus mechanism."""
    return witten_abscissa(rs)


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


def isotropic_case_bound(case: IsotropicCase) -> Fraction:
    """Exact rational abscissa lower bound for the given isotropic family.

    Case (a) runs the class-growth mechanism with the SL_m(D) exponent and
    delta = m^2 d^2 - 1.  Cases (b)-(f) are the boundary-index rational
    functions of x for the unitary/orthogonal/symplectic families.
    """
    lab = case.label
    if lab == "a":
        if case.m is None or case.d is None:
            raise ValueError("case 'a' needs parameters m and d")
        m, d = case.m, case.d
        gamma = slm_class_growth_bound(m, d)
        delta = m * m * d * d - 1
        return abscissa_from_class_growth(gamma, Fraction(delta))
    if case.x is None:
        raise ValueError(f"case {lab!r} needs parameter x")
    x = case.x
    if x < 1:
        raise ValueError(f"index x must be >= 1, got {x}")
    if lab == "b":
        return Fraction(2 * x * x - 4 * x, (2 * x + 2) ** 2 - 1 - (x * x - 2 * x))
    if lab == "c":
        return Fraction(x * x - 3 * x) / (
            Fraction((2 * x + 4) * (2 * x + 3), 2) - Fraction(x * x - 3 * x, 2)
        )
    if lab == "d":
        return Fraction(x * x - x) / (
            Fraction(2 * x * (2 * x + 1), 2) - Fraction(x * x - x, 2)
        )
    if lab == "e":
        return Fraction(4 * x * x + 2 * x) / (
            Fraction((4 * x + 2) * (4 * x + 1), 2) - Fraction(2 * x * x + x)
        )
    if lab == "f":
        return Fraction(4 * x * x - 2 * x) / (
            Fraction((4 * x + 6) * (4 * x + 5), 2) - Fraction(2 * x * x - x)
        )
    raise ValueError(f"unknown isotropic case label {lab!r}")


def unified_isotropic_bound(x: int) -> Fraction:
    """Common lower envelope (2x^2 - 6x) / (3x^2 + 17x + 12) of cases (b)-(f);
    strictly increasing and above 1/15 for x >= 5."""
    if x < 1:
        raise ValueError(f"index x must be >= 1, got {x}")
    return Fraction(2 * x * x - 6 * x, 3 * x * x + 17 * x + 12)


def _fallback_types(label: str, x: int) -> list[tuple[str, int]]:
    """Absolute root systems at the boundary index, for the torus fallback."""
    if label == "b":
        return [("A", 2 * x + 1)]
    if label == "c":
        # even ambient dimension gives D, odd gives B; audit both parities
        return [("D", x + 2), ("B", x + 2)]
    if label == "d":
        return [("C", x)]
    if label == "e":
        return [("C", 2 * x + 1)]
    if label == "f":
        return [("D", 2 * x + 3)]
    raise ValueError(label)


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

    for m in range(2, md_max + 1):
        for d in range(1, md_max // m + 1):
            formula = isotropic_case_bound(IsotropicCase("a", m=m, d=d))
            fallback = Fraction(2, m * d)  # A_{md-1} torus bound: 2/h = 2/md
            rows.append(
                AuditRow(
                    case="a",
                    parameters={"m": m, "d": d},
                    formula=formula,
                    fallback_label=f"A{m * d - 1}",
                    fallback=fallback,
                    value=max(formula, fallback),
                )
            )

    for label in ("b", "c", "d", "e", "f"):
        for x in range(1, x_max + 1):
            formula = isotropic_case_bound(IsotropicCase(label, x=x))
            if formula <= 0:
                formula_entry = None
            else:
                formula_entry = formula
            fb_label, fallback = min(
                ((f"{s}{r}", Fraction(2, _coxeter(s, r))) for s, r in _fallback_types(label, x)),
                key=lambda t: t[1],
            )
            value = max(formula_entry or Fraction(0), fallback)
            rows.append(
                AuditRow(
                    case=label,
                    parameters={"x": x},
                    formula=formula_entry,
                    fallback_label=fb_label,
                    fallback=fallback,
                    value=value,
                )
            )

    for series, rank in _EXCEPTIONAL:
        bound = Fraction(2, coxeter_number(series, rank))
        rows.append(
            AuditRow(
                case="exceptional",
                parameters={"type": f"{series}{rank}"},
                formula=None,
                fallback_label=f"{series}{rank}",
                fallback=bound,
                value=bound,
            )
        )

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

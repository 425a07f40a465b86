"""Degree censuses: multiset of irreducible-character degrees up to a cap.

A census records, for every degree n <= cap that occurs, how many
irreducibles have that degree.  The running total R(n) is the count of
irreducibles of degree at most n, the basic object all the growth estimates
are built on.  They are built on first use, since a census that only feeds
a zeta sum never needs them.  The CSV and JSON writers format CHUNK rows per
% call with one row template repeated, so a large census writes fast and in
constant extra memory.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterator, Mapping

from .errors import integer, integers

CHUNK = 4096  # rows the writers format per % call

_CSV_ROW = "%d,%d,%d\r\n"  # as csv.writer writes a row of ints
_JSON_ENTRY = ',\n    {\n      "cumulative": %d,\n      "degree": %d,\n      "multiplicity": %d\n    }'


def check_exact_exponent(s) -> int:
    """s as a Python int >= 0, so that d^s is an exact integer, never an int64 that overflows."""
    return integer(s, "exact zeta exponent s (use zeta(s) for a float value)", 0)


@dataclass(frozen=True)
class DegreeCensus:
    cap: int
    degrees: tuple[int, ...]
    multiplicities: tuple[int, ...]

    @cached_property
    def _cumulative(self) -> tuple[int, ...]:
        """The running totals R(n), built on first use."""
        return tuple(accumulate(self.multiplicities))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int], cap: int) -> "DegreeCensus":
        cap = integer(cap, "census cap", 1)
        degrees = sorted(integers(counts, "degree"))
        mults = integers(list(map(counts.__getitem__, degrees)), "multiplicity")
        for d in degrees[:1] + degrees[-1:]:  # the least and the largest
            if d < 1 or d > cap:
                raise ValueError(f"degree {d} outside [1, {cap}]")
        if mults and min(mults) < 1:
            d, m = next((d, m) for d, m in zip(degrees, mults) if m < 1)
            raise ValueError(f"multiplicity for degree {d} must be >= 1, got {m}")
        return cls(cap=cap, degrees=tuple(degrees), multiplicities=tuple(mults))

    def __len__(self) -> int:
        return len(self.degrees)

    def items(self) -> Iterator[tuple[int, int]]:
        return zip(self.degrees, self.multiplicities)

    def cumulative(self, n: int) -> int:
        """R(n): number of recorded irreducibles of degree <= n."""
        i = bisect_right(self.degrees, n)
        return self._cumulative[i - 1] if i else 0

    def total_multiplicity(self) -> int:
        return self._cumulative[-1] if self.degrees else 0

    def sum_degree_squares(self) -> int:
        """Exact sum of multiplicity * degree^2 (the group order, for a full
        finite-group census)."""
        return sum(m * d * d for d, m in self.items())

    def zeta(self, s: float) -> float:
        """Dirichlet sum of multiplicity * degree^(-s), added in ascending degree
        order, one term at a time (float sum() is compensated from Python 3.12);
        ValueError if it is not a finite float, as when a power overflows."""
        total = 0.0
        try:
            for d, m in self.items():
                total += m * d ** (-s)
        except OverflowError:
            total = math.inf
        if math.isfinite(total):
            return total
        raise ValueError(f"zeta at s={s} is not finite: largest degree {self.max_degree()}")

    def zeta_exact(self, s: int) -> Fraction:
        """The same sum as an exact rational, at an integer s >= 0.

        Every term is put over one denominator, lcm(d)^s = lcm(d^s), so the
        sum is one integer and one Fraction reduces it.
        """
        s = check_exact_exponent(s)
        denominator = math.lcm(*self.degrees) ** s
        return Fraction(sum(m * (denominator // d**s) for d, m in self.items()), denominator)

    def max_degree(self) -> int:
        return self.degrees[-1] if self.degrees else 0

    def to_json_dict(self) -> dict:
        return {
            "cap": self.cap,
            "entries": [
                {"degree": d, "multiplicity": m, "cumulative": c}
                for (d, m), c in zip(self.items(), self._cumulative)
            ],
        }

    def _chunks(self, *columns) -> Iterator[tuple[int, tuple]]:
        """(rows, flat values) for each CHUNK rows of the given columns."""
        for i in range(0, len(self.degrees), CHUNK):
            part = [column[i:i + CHUNK] for column in columns]
            yield len(part[0]), tuple(chain.from_iterable(zip(*part)))

    def write_csv(self, path) -> None:
        """Write the census as csv.writer would, header row first, formatting
        CHUNK rows per % call."""
        with open(path, "w", newline="") as fh:
            fh.write("degree,multiplicity,cumulative\r\n")
            for rows, flat in self._chunks(self.degrees, self.multiplicities, self._cumulative):
                fh.write((_CSV_ROW * rows) % flat)

    def write_json(self, path) -> None:
        """Write to_json_dict() as json.dump(..., indent=2, sort_keys=True)
        would, plus a newline, CHUNK entries per % call: the list of entry
        dicts is never built, so a large census writes in constant extra
        memory."""
        with open(path, "w") as fh:
            fh.write(f'{{\n  "cap": {self.cap},\n  "entries": [')
            first = 1  # the first entry drops its leading comma
            for rows, flat in self._chunks(self._cumulative, self.degrees, self.multiplicities):
                fh.write(((_JSON_ENTRY * rows) % flat)[first:])
                first = 0
            fh.write("\n  ]\n}\n" if self.degrees else "]\n}\n")

"""Degree censuses: multiset of irreducible-character degrees up to a cap.

A census records, for every degree n <= cap that occurs, how many
irreducibles have that degree.  The running total R(n) is the count of
irreducibles of degree at most n, the basic object all the growth estimates
are built on.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Mapping


def check_exact_exponent(s) -> None:
    """An exact Dirichlet sum needs an int s >= 0: d^s must be an integer."""
    if not isinstance(s, int) or s < 0:
        raise ValueError(f"exact evaluation needs integer s >= 0, got {s!r}; "
                         "use zeta(s) for a float value")


@dataclass(frozen=True)
class DegreeCensus:
    cap: int
    degrees: tuple[int, ...]
    multiplicities: tuple[int, ...]
    _cumulative: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # the running totals R(n); frozen, so set past the dataclass __setattr__
        object.__setattr__(self, "_cumulative", tuple(accumulate(self.multiplicities)))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int], cap: int) -> "DegreeCensus":
        if cap < 1:
            raise ValueError(f"census cap must be >= 1, got {cap}")
        degrees = sorted(counts)
        mults = []
        for d in degrees:
            m = counts[d]
            if d < 1 or d > cap:
                raise ValueError(f"degree {d} outside [1, {cap}]")
            if m < 1:
                raise ValueError(f"multiplicity for degree {d} must be >= 1, got {m}")
            mults.append(m)
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
        order, one term at a time (float sum() is compensated from Python 3.12)."""
        total = 0.0
        for d, m in self.items():
            total += m * d ** (-s)
        return total

    def zeta_exact(self, s: int) -> Fraction:
        """The same sum as an exact rational, at an integer s >= 0.

        Every term is put over one denominator, lcm(d)^s = lcm(d^s), so the
        sum is one integer and one Fraction reduces it.
        """
        check_exact_exponent(s)
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

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["degree", "multiplicity", "cumulative"])
            for (d, m), c in zip(self.items(), self._cumulative):
                writer.writerow([d, m, c])

    def write_json(self, path) -> None:
        """Write to_json_dict() as json.dump(..., indent=2, sort_keys=True)
        would, plus a newline, one entry at a time: the list of entry dicts is
        never built, so a large census writes in constant extra memory."""
        with open(path, "w") as fh:
            fh.write(f'{{\n  "cap": {self.cap},\n  "entries": [')
            sep = "\n"
            for (d, m), c in zip(self.items(), self._cumulative):
                fh.write(f'{sep}    {{\n      "cumulative": {c},\n      "degree": {d},\n'
                         f'      "multiplicity": {m}\n    }}')
                sep = ",\n"
            fh.write("\n  ]\n}\n" if self.degrees else "]\n}\n")

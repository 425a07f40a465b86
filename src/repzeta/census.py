"""Degree censuses: multiset of irreducible-character degrees up to a cap.

A census records, for every degree n <= cap that occurs, how many
irreducibles have that degree.  The running total R(n) is the count of
irreducibles of degree at most n, the basic object all the growth estimates
are built on.  They are built on first use, since a census that only feeds
a zeta sum never needs them.  This module writes every file of the package:
`write_table` is the one CSV writer and `write_json` the one JSON layout, which
`DegreeCensus.write_json` streams.  The streaming writers format CHUNK rows per
% call with one bytes row template repeated, its arguments the chunk's columns
interleaved by slice assignment into one flat list, and write the bytes to a
file opened in binary: bytes % copies each literal run whole where str % scans
it a character at a time, and no text layer encodes a copy.  So a large census
writes fast and in constant extra memory.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from typing import Iterator, Mapping

from .errors import integer, integers

CHUNK = 4096  # rows the writers format per % call

_JSON_ENTRY = b',\n    {\n      "cumulative": %d,\n      "degree": %d,\n      "multiplicity": %d\n    }'


def _chunks(columns) -> Iterator[tuple[int, tuple]]:
    """(rows, flat values) for each CHUNK rows of the given equal-length columns:
    the values row by row, column j of a row at flat[j::len(columns)]."""
    n, size = len(columns), len(columns[0])
    for i in range(0, size, CHUNK):
        rows = min(CHUNK, size - i)
        flat = [0] * (rows * n)
        for j, column in enumerate(columns):
            flat[j::n] = column[i:i + CHUNK]
        yield rows, tuple(flat)


def write_table(path, header: str, columns) -> None:
    """Write the header line and the rows of the columns as csv.writer would, CHUNK
    rows per bytes % call, to a file opened in binary.  Integers only: %d writes a
    bool as 1, csv.writer as True."""
    row = b",".join([b"%d"] * len(columns)) + b"\r\n"
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\r\n")
        for rows, flat in _chunks(columns):
            fh.write((row * rows) % flat)


def write_json(payload, path) -> None:
    """json.dump(payload, indent=2, sort_keys=True) and a newline: the layout streamed below."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        """Dirichlet sum of multiplicity * degree^(-s), the correctly rounded sum of
        the float terms; ValueError if it is not a finite float, as when a power overflows."""
        try:
            total = math.fsum(map(operator.mul, self.multiplicities,
                                  map(pow, self.degrees, repeat(-s))))
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

    def write_csv(self, path) -> None:
        write_table(path, "degree,multiplicity,cumulative",
                    (self.degrees, self.multiplicities, self._cumulative))

    def write_json(self, path) -> None:
        """Write to_json_dict() as write_json would, CHUNK entries per bytes % call,
        to a file opened in binary (so every line ends in \\n on every platform):
        the list of entry dicts is never built, so a large census writes in
        constant extra memory."""
        with open(path, "wb") as fh:
            fh.write(b'{\n  "cap": %d,\n  "entries": [' % self.cap)
            first = 1  # the first entry drops its leading comma
            for rows, flat in _chunks((self._cumulative, self.degrees, self.multiplicities)):
                fh.write(((_JSON_ENTRY * rows) % flat)[first:])
                first = 0
            fh.write(b"\n  ]\n}\n" if self.degrees else b"]\n}\n")

"""Exact representation zeta local factor of SL2 over a compact local ring.

For odd residue field size q the full character-degree list of SL2 of the
valuation ring is known in closed form: six degree families at level <= 1
plus three families per level j >= 2 whose degrees and multiplicities both
scale by q^(j-2).  Summed against degree^(-s) this gives a finite expression
with a single geometric factor 1/(1 - q^(1-s)).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

import numpy as np

from .census import DegreeCensus
from .numtheory import prime_power


def _check_q(q: int) -> None:
    if q % 2 == 0:
        raise ValueError(f"q = {q} is even; the closed form needs an odd residue field")
    if prime_power(q) is None:  # None for every q < 2
        raise ValueError(f"q = {q} is not an odd prime power >= 3")


def _check_level(q: int, k: int) -> None:
    _check_q(q)
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")


def _families(q):
    """(degree, multiplicity) of the six level <= 1 families, then the three level-2
    seeds, one at a time; integer arithmetic, so q may be an int or an int64 array."""
    yield 1, 1
    yield q, 1
    yield q + 1, (q - 3) // 2
    yield (q + 1) // 2, 2
    yield q - 1, (q - 1) // 2
    yield (q - 1) // 2, 2
    yield (q * q - 1) // 2, 4 * q
    yield q * q - q, (q * q - 1) // 2
    yield q * q + q, (q - 1) ** 2 // 2


def _excess(q, s: float):
    """Unchecked sl2_local_excess.  Every term is positive, so no digit cancels:
    degree 1 is left out rather than subtracted, and 1 - q^(1-s) comes from expm1.
    s is taken as a float: numpy refuses an int64 array to a negative int power."""
    s = float(s)
    families = _families(q)
    next(families)  # degree 1, the 1 of L_q(s)
    level_one = sum(m * d ** -s for d, m in islice(families, 5))
    geometric = sum(m * d ** -s for d, m in families)
    return level_one + geometric / -np.expm1((1.0 - s) * np.log(q))


def sl2_local_excess(q: int, s: float) -> float:
    """Exact local zeta value minus one, L_q(s) - 1, without forming L_q(s).

    q is an odd prime power and s > 1.  At q = 999983 and s = 3 the excess
    is about 1e-12, and L_q(s) rounded to a float keeps only four of its
    digits: take log L_q(s) as log1p of this.
    """
    _check_q(q)
    if not s > 1:
        raise ValueError(f"s must exceed 1 for the geometric factor to converge, got {s}")
    return float(_excess(q, s))


def sl2_local_zeta(q: int, s: float) -> float:
    """Exact local zeta value: finite part plus geometric part / (1 - q^(1-s)).

    Defined for s > 1 (the geometric factor diverges at s = 1).
    """
    return 1.0 + sl2_local_excess(q, s)


def sl2_degree_census(q: int, k: int) -> DegreeCensus:
    """Degree census of SL2 of the ring truncated at level k (exact).

    Level <= 1 contributes the six finite families; each level 2 <= j <= k
    contributes the three seed families with degree and multiplicity both
    scaled by q^(j-2).  Total class count is (q+4) + sum_{j=2..k} q^(j-1)(q+3)
    and the degree-square sum is the group order q^(3k-2) (q^2-1).
    """
    _check_level(q, k)
    families = _families(q)
    terms = list(islice(families, 6))  # levels 0 and 1
    seeds = tuple(families)  # level 2
    terms += [(d * q ** (j - 2), m * q ** (j - 2)) for j in range(2, k + 1) for d, m in seeds]
    counts: dict[int, int] = {}
    for d, m in terms:
        if m:  # degree q + 1 has multiplicity (q - 3)/2, none at q = 3
            counts[d] = counts.get(d, 0) + m
    return DegreeCensus.from_counts(counts, max(counts))


def sl2_class_count(q: int, k: int) -> int:
    """Predicted number of conjugacy classes of SL2 at level k."""
    _check_level(q, k)
    return (q + 4) + sum(q ** (j - 1) * (q + 3) for j in range(2, k + 1))


def sl2_group_order(q: int, k: int) -> int:
    """|SL2| of the level-k quotient: q^(3k-2) (q^2 - 1)."""
    _check_level(q, k)
    return q ** (3 * k - 2) * (q * q - 1)


def sl1_division_abscissa(d: int) -> Fraction:
    """Abscissa for the norm-one units of a division algebra of degree d: 2/d."""
    if d < 2:
        raise ValueError(f"division algebra degree must be >= 2, got {d}")
    return Fraction(2, d)

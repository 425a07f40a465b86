"""Exact representation zeta local factor of SL2 over a compact local ring.

For odd residue field size q the full character-degree list of SL2 of the
valuation ring is known in closed form: six degree families at level <= 1
plus three families per level j >= 2 whose degrees and multiplicities both
scale by q^(j-2).  Summed against degree^(-s) this gives a finite expression
with a single geometric factor 1/(1 - q^(1-s)).  Besides 1, the nine families'
degrees are q, q +- 1 and (q +- 1)/2, and the products q(q - 1), q(q + 1) and
(q + 1)(q - 1)/2 of two of those: with t = 1 - s the local factor takes only the
five powers q^t, (q +- 1)^t and ((q +- 1)/2)^t, formed so that none overflows and
none underflows before its term does (see _excess).  The level budget bounds the
class count, the largest printed number, and with it the work: level 4190 at
q = 3, the largest, writes a 25 MB CSV in about 1 s on a 2-vCPU VM.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .census import DegreeCensus
from .errors import BudgetExceededError, integer
from .numtheory import integer_log, prime_power

MAX_DEGREE_DIGITS = 2_000  # digits of a level's class count: bounds what it prints and the work


def _check_q(q: int) -> int:
    q = integer(q, "q")
    if q % 2 == 0:
        raise ValueError(f"q = {q} is even; the closed form needs an odd residue field")
    if prime_power(q) is None:  # None for every q < 2
        raise ValueError(f"q = {q} is not an odd prime power >= 3")
    return q


@lru_cache(maxsize=64)  # a call forms 10^digits and powers of q of as many digits
def _largest_level(q: int, digits: int) -> int:
    """The largest k whose class count has at most `digits` digits.

    The class count is the largest number of the level's census: it exceeds
    the largest degree q^(k-1)(q+1), every multiplicity and every running total.
    It is at most 10^digits - 1 exactly when q^k <= (q - 1)((10^digits - 2) // (q + 3)) + 1.
    """
    return integer_log((q - 1) * ((10**digits - 2) // (q + 3)) + 1, q)


def _check_level(q: int, k: int) -> tuple[int, int]:
    q, k = _check_q(q), integer(k, "level k", 1)
    if k > (largest := _largest_level(q, MAX_DEGREE_DIGITS)):
        raise BudgetExceededError(f"level k = {k} at q = {q} has a class count over "
                                  f"{MAX_DEGREE_DIGITS} digits: the largest level within the "
                                  f"budget is {largest}")
    return q, k


def _families(q: int):
    """(degree, multiplicity) of the six level <= 1 families, then of the three
    level-2 seeds, in exact integer arithmetic."""
    return ((1, 1), (q, 1), (q + 1, (q - 3) // 2), ((q + 1) // 2, 2),
            (q - 1, (q - 1) // 2), ((q - 1) // 2, 2),
            ((q * q - 1) // 2, 4 * q), (q * q - q, (q * q - 1) // 2),
            (q * q + q, (q - 1) ** 2 // 2))


def _excess(q, s: float):
    """Unchecked sl2_local_excess, for an int q or an int64 array of them.

    With f = q as a float and t = 1 - s, a family (d, m) of _families adds
    m d^-s = (m/d) d^t.  The degrees q, q + 1, q - 1, (q + 1)/2 and (q - 1)/2 give
    the five powers x, y, z, w and v, and each level-2 seed's degree is a product of
    two of them: q^2 - q gives x z, q^2 + q gives x y and (q^2 - 1)/2 gives y v.

    Overflow: each m/d is a product of ratios that never forms f^2, and every power
    is at most 1, so nothing overflows up to the largest q sl2_local_excess accepts.
    w and v are powers of their own, not y 2^(s-1), which overflows at s = 1e308.
    Underflow: a term is m/d times its powers, not m times d^-s, which for d near q
    underflows once q^s passes 1e308 while the term, about q^(1-s), is still normal.
    Each factor after m/d is at most 1, so a product of two powers underflows only
    where its term does.

    Cancellation: every term is positive, so no digit cancels.  Degree 1, the 1 of
    L_q(s), is left out rather than subtracted, and 1 - q^(1-s) comes from expm1.
    t is exact for s below 2^53, and is held at -1e300 or above: log f is below 710,
    so their product stays finite where expm1 reads -1 long since.

    Error, to first order in u = 2^-53, with pow, log and expm1 within an ulp (2u)
    and every other step rounded once (u).  Below 2^53 the bases f, f +- 1, f - 3 and
    (f +- 1)/2 are exact.  The longest path, from a seed's ratios through its two
    powers and products, the sums, t log f, expm1, the quotient and the last sum,
    has nine roundings and four of those calls; expm1's relative condition number
    |y e^y/(e^y - 1)| is at most 1 for y < 0.  So the relative error is at most 17u.
    Above 2^53, f is within u and f +- 1 and f - 3 within 2u of what they stand for.
    A term then moves by at most each base's error times the size of its exponent,
    at most (4s + 5)u in all, and the bound is (22 + 4s)u.
    """
    t, f = 1.0 - float(s), q * 1.0
    up, down = f + 1.0, f - 1.0
    x, y, z = f ** t, up ** t, down ** t
    w, v = (up / 2) ** t, (down / 2) ** t
    level_one = z / 2 + x / f + (f - 3.0) / 2 / up * y + 4.0 / up * w + 4.0 / down * v
    geometric = up / (2 * f) * x * z + 8 * f / up / down * y * v + down / f * down / up / 2 * x * y
    return level_one + geometric / -np.expm1(max(t, -1e300) * np.log(f))


def sl2_local_excess(q: int, s: float) -> float:
    """Exact local zeta value minus one, L_q(s) - 1, without forming L_q(s).

    q is an odd prime power and s > 1.  At q = 999983 and s = 3 the excess
    is about 1e-12, and L_q(s) rounded to a float keeps only four of its
    digits: take log L_q(s) as log1p of this.
    """
    q = _check_q(q)
    if not s > 1:
        raise ValueError(f"s must exceed 1 for the geometric factor to converge, got {s}")
    if q * q + q > sys.float_info.max:
        raise ValueError(f"q = {q} is too large: the degree q^2 + q overflows a float")
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
    q, k = _check_level(q, k)
    families = _families(q)
    terms = list(families[:6])  # levels 0 and 1
    terms += [(d * q ** (j - 2), m * q ** (j - 2))  # the level-2 seeds, scaled to level j
              for j in range(2, k + 1) for d, m in families[6:]]
    counts: dict[int, int] = {}
    for d, m in terms:
        if m:  # degree q + 1 has multiplicity (q - 3)/2, none at q = 3
            counts[d] = counts.get(d, 0) + m
    return DegreeCensus.from_counts(counts, max(counts))


def sl2_class_count(q: int, k: int) -> int:
    """Predicted number of conjugacy classes of SL2 at level k:
    (q+4) + sum_{j=2..k} q^(j-1)(q+3) = 1 + (q+3)(q^k - 1)/(q - 1)."""
    q, k = _check_level(q, k)
    return 1 + (q + 3) * (q**k - 1) // (q - 1)


def sl2_group_order(q: int, k: int) -> int:
    """|SL2| of the level-k quotient: q^(3k-2) (q^2 - 1)."""
    q, k = _check_level(q, k)
    return q ** (3 * k - 2) * (q * q - 1)


def sl1_division_abscissa(d: int) -> Fraction:
    """Abscissa for the norm-one units of a division algebra of degree d: 2/d."""
    return Fraction(2, integer(d, "division algebra degree", 2))

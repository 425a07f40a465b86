"""Independent reference values for the benchmark's output checks.

Nothing here reads repzeta.  Weyl dimensions come from closed-form
polynomials (A2, C2, G2), from the classical root data in orthonormal
coordinates (A3, B3, D4, F4) or from the published degree list (E8), never
from the library's coroot table.  Partition counts come from Euler's
pentagonal recurrence, symmetric-group degrees from the branching rule on
Young's lattice, and the Euler-product bounds from a numpy sieve.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations

import numpy as np

# Relative tolerance for every float comparison.  Fixed before any
# measurement: a reordered or vectorised sum that changes the last digits
# still passes, a wrong term does not.
FLOAT_RTOL = 1e-9


def close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# --- Weyl dimensions ------------------------------------------------------

# Every E8 dimension below 10^6, each of multiplicity one.
E8_DEGREES = (1, 248, 3875, 27000, 30380, 147250, 779247)
E8_NEXT = 1763125  # the next E8 dimension, so the list is known complete below it


def _closed_form(series, rank):
    if (series, rank) == ("A", 1):
        return lambda a: a[0] + 1
    if (series, rank) == ("A", 2):
        return lambda a: (a[0] + 1) * (a[1] + 1) * (a[0] + a[1] + 2) // 2
    if (series, rank) == ("C", 2):  # a[0] on the short simple root
        return lambda a: ((a[0] + 1) * (a[1] + 1) * (a[0] + a[1] + 2)
                          * (a[0] + 2 * a[1] + 3) // 6)
    if (series, rank) == ("G", 2):  # a[0] on the short simple root
        return lambda a: ((a[0] + 1) * (a[1] + 1) * (a[0] + a[1] + 2) * (a[0] + 2 * a[1] + 3)
                          * (a[0] + 3 * a[1] + 4) * (2 * a[0] + 3 * a[1] + 5) // 120)
    return None


def _unit(n, *signed):
    """Vector in R^n with entry sign at each (index, sign) pair."""
    v = [Fraction(0)] * n
    for i, sign in signed:
        v[i] += sign
    return v


def _classical_data(series, rank):
    """Positive roots and fundamental weights (Bourbaki labelling) in
    orthonormal coordinates."""
    half = Fraction(1, 2)
    if series == "A":
        n = rank + 1
        roots = [_unit(n, (i, 1), (j, -1)) for i, j in combinations(range(n), 2)]
        weights = [_unit(n, *[(i, 1) for i in range(k)]) for k in range(1, rank + 1)]
        return roots, weights
    n = 4 if series == "F" else rank
    roots = [_unit(n, (i, 1), (j, s)) for i, j in combinations(range(n), 2) for s in (1, -1)]
    if series in ("B", "F"):
        roots += [_unit(n, (i, 1)) for i in range(n)]
    if series == "F":
        for signs in range(8):
            bits = [(signs >> b) & 1 for b in range(3)]
            roots.append([half] + [-half if bit else half for bit in bits])
        weights = [
            _unit(4, (0, 1), (1, 1)),
            _unit(4, (0, 2), (1, 1), (2, 1)),
            [Fraction(3, 2), half, half, half],
            _unit(4, (0, 1)),
        ]
        return roots, weights
    weights = [_unit(n, *[(i, 1) for i in range(k)]) for k in range(1, n + 1)]
    if series == "B":
        weights[-1] = [half] * n
    elif series == "D":
        weights[-2] = [half] * (n - 1) + [-half]
        weights[-1] = [half] * n
    else:
        raise ValueError(f"no classical data for {series}{rank}")
    return roots, weights


def _classical_formula(series, rank):
    """dim V(a) = prod_alpha (a.omega + rho, alpha) / (rho, alpha), with every
    pairing doubled so the arithmetic stays in integers."""
    roots, weights = _classical_data(series, rank)
    rho = [sum(col) / 2 for col in zip(*roots)]

    def pair(u, v):
        return sum(x * y for x, y in zip(u, v))

    base = [int(2 * pair(rho, r)) for r in roots]
    rows = [[int(2 * pair(w, r)) for w in weights] for r in roots]
    denom = math.prod(base)

    def dim(a):
        num = 1
        for c, row in zip(base, rows):
            num *= c + sum(x * y for x, y in zip(row, a))
        d, rem = divmod(num, denom)
        if rem:
            raise ArithmeticError(f"Weyl product not divisible at {a}")
        return d

    return dim


def dimension_formula(series, rank):
    """Exact dimension of the irreducible with highest weight a, or None
    where the benchmark only knows the degree list (E8)."""
    if series == "E":
        return None
    return _closed_form(series, rank) or _classical_formula(series, rank)


def expected_census(series, rank, cap):
    """(degrees, multiplicities) of every irreducible of dimension <= cap."""
    if (series, rank) == ("A", 1):
        return tuple(range(1, cap + 1)), (1,) * cap
    if (series, rank) == ("E", 8):
        if cap >= E8_NEXT:
            raise ValueError("the E8 degree list is complete only below 1763125")
        degrees = tuple(d for d in E8_DEGREES if d <= cap)
        return degrees, (1,) * len(degrees)
    dim = dimension_formula(series, rank)
    counts = Counter()
    a = [0] * rank

    def walk(i):  # dimension is strictly increasing in every coordinate
        while (d := dim(a)) <= cap:
            if i == rank - 1:
                counts[d] += 1
            else:
                walk(i + 1)
            a[i] += 1
        a[i] = 0

    walk(0)
    degrees = tuple(sorted(counts))
    return degrees, tuple(counts[d] for d in degrees)


def running_count(degrees, multiplicities):
    """R(n) for the census given as parallel tuples."""
    cumulative = list(accumulate(multiplicities))

    def r(n):
        i = bisect_right(degrees, n)
        return cumulative[i - 1] if i else 0

    return r


# --- partitions and symmetric/alternating degrees -----------------------

def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, j = 0, 1
        while (g := j * (3 * j - 1) // 2) <= m:
            sign = 1 if j % 2 else -1
            total += sign * p[m - g]
            if (g2 := j * (3 * j + 1) // 2) <= m:
                total += sign * p[m - g2]
            j += 1
        p[m] = total
    return p[n]


def self_conjugate_count(n: int) -> int:
    """Self-conjugate partitions of n, counted as partitions into distinct odd parts."""
    q = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for m in range(n, part - 1, -1):
            q[m] += q[m - part]
    return q[n]


def alt_irreducible_count(k: int) -> int:
    """Irreducibles of A_k: one per transpose pair, two per self-conjugate partition."""
    p, sc = partition_count(k), self_conjugate_count(k)
    return (p - sc) // 2 + 2 * sc


@lru_cache(maxsize=None)
def sym_degrees(k: int) -> dict:
    """f^lambda for every partition of k, by f^lambda = sum over removable
    boxes of f^(lambda - box), built upward from the empty partition."""
    if k == 0:
        return {(): 1}
    out: dict = {}
    for mu, f in sym_degrees(k - 1).items():
        for i in range(len(mu) + 1):
            if i == len(mu):
                lam = mu + (1,)
            elif i == 0 or mu[i - 1] > mu[i]:
                lam = mu[:i] + (mu[i] + 1,) + mu[i + 1:]
            else:
                continue
            out[lam] = out.get(lam, 0) + f
    return out


def _transpose(lam):
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def alt_degrees(k: int) -> Counter:
    """Degree multiset of A_k from the symmetric-group degrees."""
    counts = Counter()
    for lam, f in sym_degrees(k).items():
        conj = _transpose(lam)
        if lam == conj:
            counts[f // 2] += 2
        elif lam < conj:
            counts[f] += 1
    return counts


# --- primes and Euler-product bounds ------------------------------------

@lru_cache(maxsize=8)
def odd_primes(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[::2] = False
    sieve[1] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = np.nonzero(sieve)[0]
    primes.flags.writeable = False
    return primes


def odd_prime_powers(n: int) -> list[int]:
    out = []
    for p in odd_primes(n).tolist():
        q = p
        while q <= n:
            out.append(q)
            q *= p
    return sorted(out)


def sandwich_log_sums(s: float, bounds) -> list[float]:
    """For each bound P, S(P) = sum over odd primes p <= P of -log(1 - p^(1-s)).
    Every local factor lies in (e^(S/2), e^(100 S)) termwise, so the
    log of the odd-prime product lies in (S(P)/2, 100 S(P))."""
    primes = odd_primes(max(bounds)).astype(float)
    terms = np.cumsum(-np.log1p(-(primes ** (1.0 - s))))
    out = []
    for bound in bounds:
        i = int(np.searchsorted(primes, bound, side="right"))
        out.append(float(terms[i - 1]) if i else 0.0)
    return out


def local_log_sums(s: float, bounds) -> list[float]:
    """For each bound P, the sum over odd primes p <= P of log L_p(s), with
    L_q(s) the SL2 local zeta from the paper's degree families: five
    non-trivial families at levels <= 1 and three seeds repeated at every
    deeper level with degree and multiplicity times q, which sum to
    seeds / (1 - q^(1-s)).  Evaluated apart from the library, with log1p of
    L - 1, this pins the fold (which primes, which exponent, how summed) to
    FLOAT_RTOL; the sandwich checks the local factor itself."""
    q = odd_primes(max(bounds)).astype(float)
    excess = ((q ** -s) + (q - 3) / 2 * (q + 1) ** -s + 2 * ((q + 1) / 2) ** -s
              + (q - 1) / 2 * (q - 1) ** -s + 2 * ((q - 1) / 2) ** -s)
    seeds = (4 * q * ((q * q - 1) / 2) ** -s + (q * q - 1) / 2 * (q * q - q) ** -s
             + (q - 1) ** 2 / 2 * (q * q + q) ** -s)
    terms = np.cumsum(np.log1p(excess + seeds / (1.0 - q ** (1.0 - s))))
    out = []
    for bound in bounds:
        i = int(np.searchsorted(q, bound, side="right"))
        out.append(float(terms[i - 1]) if i else 0.0)
    return out


def odd_prime_count(bound: int) -> int:
    return int(np.searchsorted(odd_primes(bound), bound, side="right"))

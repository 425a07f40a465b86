"""Small number-theoretic helpers: the odd-prime sieve, the prime-power test, the integer log."""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceededError, integer

MAX_SIEVE_BOUND = 10**8  # the sieve takes (n + 1) / 2 bytes, and its primes 8 bytes each


def odd_primes_up_to(n: int) -> np.ndarray:
    """All odd primes <= n, ascending, as int64: a sieve of Eratosthenes over odd numbers."""
    n = max(integer(n, "n"), 0)  # a negative n sieves the same nothing as 0
    if n > MAX_SIEVE_BOUND:
        raise BudgetExceededError(f"prime bound {n} exceeds the odd-prime sieve's budget: "
                                  f"the largest bound allowed is {MAX_SIEVE_BOUND}")
    sieve = np.ones((n + 1) // 2, dtype=bool)  # index i stands for 2i + 1
    sieve[:1] = False
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:  # index 2i(i + 1) holds (2i + 1)^2, and 2i + 1 indices span 2(2i + 1)
            sieve[2 * i * (i + 1) :: 2 * i + 1] = False
    return 2 * np.flatnonzero(sieve) + 1


def integer_log(n: int, base: int) -> int:
    """The largest k with base**k <= n, exactly, for a base of 2 or more; -1 for n < 1."""
    n, base = integer(n, "n"), integer(base, "base", 2)
    if n < 1:
        return -1
    k = int(math.log(n, base))  # a float estimate, off by at most one
    while base**k > n:
        k -= 1
    while base ** (k + 1) <= n:
        k += 1
    return k


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with p prime and p**e == n, or None if n is not a prime power.

    Trial division finds any prime factor up to 1000.  Above that bound,
    n = p^e has e < n.bit_length() / 9, the largest e with an exact e-th root
    gives the only candidate p, and Miller-Rabin decides it; a p too large
    for its bases to be exact raises ValueError.
    """
    n = integer(n, "n")
    if n < 2:
        return None
    bound = min(math.isqrt(n), _TRIAL_BOUND)
    for f in range(2, bound + 1):
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            return (f, e) if n == 1 else None
    if bound < _TRIAL_BOUND:  # no factor up to the square root
        return (n, 1)
    for e in range(n.bit_length() // 9, 0, -1):  # e = 1 ends it, with p = n
        p = _root(n, e)
        if p**e == n:
            break
    if p >= _MR_LIMIT:
        raise ValueError(f"prime_power cannot test a {p.bit_length()}-bit root for primality: "
                         f"Miller-Rabin with the first 13 prime bases is exact only below "
                         f"{_MR_LIMIT}")
    return (p, e) if _is_prime(p) else None


_TRIAL_BOUND = 1000  # above 2^9
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # the first 13 prime bases are exact below it


def _root(n: int, e: int) -> int:
    """Floor of the e-th root of n >= 1: integer Newton iteration from above."""
    x = 1 << -(-n.bit_length() // e)
    while (y := ((e - 1) * x + n // x ** (e - 1)) // e) < x:
        x = y
    return x


def _is_prime(n: int) -> bool:
    """Miller-Rabin over _MR_BASES, for odd n above them."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in _MR_BASES:
        powers = [pow(a, (n - 1) >> r, n) for r in range(s, 0, -1)]  # a^(d 2^j), j < s
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True

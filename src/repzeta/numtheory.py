"""Small number-theoretic helpers: the odd-prime sieve and the prime-power test."""

from __future__ import annotations

import math

import numpy as np

from .errors import integer


def odd_primes_up_to(n: int) -> np.ndarray:
    """All odd primes <= n, ascending, as int64: a sieve of Eratosthenes over odd numbers."""
    n = max(integer(n, "n"), 0)  # a negative n sieves the same nothing as 0
    sieve = np.ones((n + 1) // 2, dtype=bool)  # index i stands for 2i + 1
    sieve[:1] = False
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:  # index 2i(i + 1) holds (2i + 1)^2, and 2i + 1 indices span 2(2i + 1)
            sieve[2 * i * (i + 1) :: 2 * i + 1] = False
    return 2 * np.flatnonzero(sieve) + 1


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with p prime and p**e == n, or None if n is not a prime power."""
    n = integer(n, "n")
    if n < 2:
        return None
    p = n
    for f in range(2, math.isqrt(n) + 1):
        if n % f == 0:
            p = f
            break
    e = 0
    m = n
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        return None
    return (p, e)

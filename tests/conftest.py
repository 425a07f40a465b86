"""Helpers shared by the test modules."""

import math

import pytest


def _odd_primes_by_sieve(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [p for p in range(3, n + 1) if sieve[p]]


@pytest.fixture
def odd_primes_by_sieve():
    """Odd primes up to n from a plain Eratosthenes sieve, kept apart from the library."""
    return _odd_primes_by_sieve


def _odd_prime_powers(n: int) -> list[int]:
    powers = []
    for p in _odd_primes_by_sieve(n):
        q = p
        while q <= n:
            powers.append(q)
            q *= p
    return sorted(powers)


@pytest.fixture
def odd_prime_powers():
    """Odd prime powers up to n, ascending, built on the sieve above."""
    return _odd_prime_powers

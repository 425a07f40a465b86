"""The odd-prime sieve and the prime-power test against a plain sieve."""

import numpy as np

from repzeta.numtheory import odd_primes_up_to, prime_power


def test_sieve_matches_a_plain_sieve(odd_primes_by_sieve):
    for n in (0, 1, 2, 3, 4, 9, 25, 100, 2003):
        assert odd_primes_up_to(n).tolist() == odd_primes_by_sieve(n)
    assert odd_primes_up_to(100).dtype == np.int64


def test_prime_power_matches_the_sieve(odd_primes_by_sieve):
    n = 3000
    expected = {}
    for p in [2] + odd_primes_by_sieve(n):
        q, e = p, 1
        while q <= n:
            expected[q] = (p, e)
            q, e = q * p, e + 1
    for m in range(-3, n + 1):
        assert prime_power(m) == expected.get(m), m

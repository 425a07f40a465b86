"""The odd-prime sieve and the prime-power test against a plain sieve, and
their integer check."""

import numpy as np
import pytest

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


@pytest.mark.parametrize("call", [prime_power, odd_primes_up_to])
def test_n_must_be_an_integer(call):
    for bad in (9.0, 20.5, "9"):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            call(bad)
    # a numpy integer gives the result of the Python int: (p, e) as ints at a prime
    for n in (7, 9, 20):
        expected = repr(call(n))
        assert repr(call(np.int64(n))) == repr(call(np.int32(n))) == expected


def test_negative_n_has_no_odd_primes():
    for n in (-5, -2, -1):
        primes = odd_primes_up_to(n)
        assert primes.tolist() == [] and primes.dtype == np.int64

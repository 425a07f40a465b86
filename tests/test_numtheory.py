"""The odd-prime sieve and the prime-power test against a plain sieve, the
integer logarithm against a plain walk, and their integer check."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repzeta.numtheory
from repzeta.errors import BudgetExceededError
from repzeta.numtheory import integer_log, odd_primes_up_to, prime_power
from repzeta.sl2local import sl2_local_zeta


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


def _log_by_walk(n, base):
    k, power = -1, 1
    while power <= n:
        k, power = k + 1, power * base
    return k


# n up to about 10^40, and the tops of the level budget, (q - 1)((10^4300 - 2) // (q + 3)) + 1
@given(n=st.integers(-3, 10**40) | st.integers(10**4299, 10**4301), base=st.integers(2, 10**6))
@example(n=0, base=2)
@example(n=2**64, base=2)
@example(n=10**4300 - 1, base=10)
def test_integer_log_matches_a_plain_walk(n, base):
    assert integer_log(n, base) == _log_by_walk(n, base)


@pytest.mark.parametrize("base", [2, 3, 7, 10, 2053, 10**6])
def test_integer_log_is_exact_around_each_power(base):
    for k in range(60):
        power = base**k
        assert integer_log(power - 1, base) == k - 1
        assert integer_log(power, base) == k
    assert integer_log(-10**50, base) == -1


def test_integer_log_needs_a_base_of_two_or_more():
    for base in (1, 0, -3):
        with pytest.raises(ValueError, match=r"^base must be >= 2, got "):
            integer_log(10, base)


def _prime_power_by_trial_division(n):
    if n < 2:
        return None
    p = next((f for f in range(2, math.isqrt(n) + 1) if n % f == 0), n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


def test_prime_power_matches_trial_division():
    for n in range(-3, 20_000):
        assert prime_power(n) == _prime_power_by_trial_division(n), n


@pytest.mark.parametrize("p", [10_000_019, 10**12 + 39])
def test_prime_power_of_a_prime_above_the_trial_bound(p):
    for e in range(1, 7):
        assert prime_power(p**e) == (p, e)
        assert prime_power(3 * p**e) is None
    assert prime_power(p * 1009) is None  # two primes above the bound
    assert prime_power(p * (p + 2)) is None
    assert prime_power(1009 * 1013) is None
    assert prime_power(3**100) == (3, 100)  # found by trial division


def test_prime_power_refuses_a_root_it_cannot_test():
    # 13 Miller-Rabin bases are exact below 3317044064679887385961981: the
    # largest prime below it is tested, a square above it has its root
    # tested, and the prime 2^89 - 1 above it is refused
    assert prime_power(3317044064679887385961813) == (3317044064679887385961813, 1)
    assert prime_power((10**13 + 37) ** 2) == (10**13 + 37, 2)
    with pytest.raises(ValueError, match="exact only below 3317044064679887385961981"):
        prime_power(2**89 - 1)


def test_local_factor_at_a_large_prime_takes_no_trial_division_to_its_root():
    start = time.perf_counter()
    sl2_local_zeta(10**14 + 31, 2.0)
    assert time.perf_counter() - start < 0.02


@pytest.mark.parametrize("call", [prime_power, odd_primes_up_to])
def test_n_must_be_an_integer(call):
    for bad in (9.0, 20.5, "9"):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            call(bad)
    # a numpy integer gives the result of the Python int: (p, e) as ints at a prime
    for n in (7, 9, 20):
        expected = repr(call(n))
        assert repr(call(np.int64(n))) == repr(call(np.int32(n))) == expected


def test_sieve_refuses_a_bound_above_its_budget(monkeypatch, odd_primes_by_sieve):
    assert repzeta.numtheory.MAX_SIEVE_BOUND == 10**8
    monkeypatch.setattr(repzeta.numtheory, "MAX_SIEVE_BOUND", 100)
    assert odd_primes_up_to(100).tolist() == odd_primes_by_sieve(100)
    for n in (101, 10**12):
        message = f"prime bound {n} exceeds the odd-prime sieve's budget: the largest bound allowed is 100"
        with pytest.raises(BudgetExceededError, match=message):
            odd_primes_up_to(n)


def test_negative_n_has_no_odd_primes():
    for n in (-5, -2, -1):
        primes = odd_primes_up_to(n)
        assert primes.tolist() == [] and primes.dtype == np.int64

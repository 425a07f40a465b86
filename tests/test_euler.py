"""Global partial Euler products, sandwich bounds, and divergence probes."""

import dataclasses
import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repzeta import euler, sl2local
from repzeta.census import DegreeCensus
from repzeta.euler import (
    ARCHIMEDEAN_TAIL_TOLERANCE,
    EulerProductConfig,
    _a1_zeta,
    _power_sum,
    divergence_probe,
    global_partial_product,
    sandwich_check,
)
from repzeta.numtheory import odd_primes_up_to, prime_power
from repzeta.rootsystems import build_root_system
from repzeta.sl2local import sl2_local_zeta
from repzeta.witten import DEFAULT_CENSUS_BUDGET, dimension_census


def _a1_census(cap=200_000):
    return dimension_census(build_root_system("A", 1), cap)


def _a1_shaped(cap):
    """The A1 census to cap, every degree 1..cap once, without the Weyl-dimension walk."""
    return DegreeCensus(cap=cap, degrees=tuple(range(1, cap + 1)), multiplicities=(1,) * cap)


def test_sandwich_at_small_prime():
    result = sandwich_check(3, 2.0)
    assert result.ok
    assert result.lower == pytest.approx((1 - 3 ** (-1.0)) ** -0.5)
    assert result.upper == pytest.approx((1 - 3 ** (-1.0)) ** -100.0)
    assert result.value == pytest.approx(745.0 / 144.0)


def test_sandwich_grid(odd_prime_powers):
    qs = odd_prime_powers(30)
    assert qs == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]
    for q in qs:
        for s in (2.0, 2.5, 3.0):
            assert sandwich_check(q, s).ok


def test_sandwich_domain():
    with pytest.raises(ValueError):
        sandwich_check(3, 1.5)
    for q in (1, 2, 4, 15):
        with pytest.raises(ValueError):
            sandwich_check(q, 2.5)
    assert sandwich_check(3**41, 2.5).value == 1.0  # q above 2^64, excess below an ulp
    with pytest.raises(ValueError, match=f"^q = {3**324} is too large"):
        sandwich_check(3**324, 2.5)  # q^2 + q overflows a float


def test_sandwich_tests_q_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return prime_power(n)

    monkeypatch.setattr(sl2local, "prime_power", counted)
    assert sandwich_check(9, 2.5).ok
    assert calls == [9]


@pytest.mark.parametrize("q,s", [(10**8 + 7, 3.0), (10**12 + 39, 2.5), (3**41, 2.0)])
def test_sandwich_holds_where_its_floats_round_to_one(q, s):
    # q^(1-s) is about one float ulp or less, so the lower bound and the value
    # both read 1.0; the verdict is taken from their logs
    result = sandwich_check(q, s)
    assert result.lower == result.value == 1.0
    assert result.ok


_ODD_PRIMES_BELOW_10K = odd_primes_up_to(10**4).tolist()


@st.composite
def _odd_prime_powers_within_the_float_guard(draw):
    """q = p^e for an odd prime p < 10^4, with e up to the largest exponent
    whose degree q^2 + q is still at most the largest float."""
    p = draw(st.sampled_from(_ODD_PRIMES_BELOW_10K))
    e_max = 1
    while p ** (2 * e_max + 2) + p ** (e_max + 1) <= sys.float_info.max:
        e_max += 1
    return p ** draw(st.integers(1, e_max))


@settings(max_examples=300, deadline=None)
@given(q=_odd_prime_powers_within_the_float_guard(), s=st.floats(2.0, 3.0))
@example(q=3**323, s=3.0)  # q^(1-s) is a subnormal float
def test_sandwich_holds_up_to_the_float_guard(q, s):
    assert sandwich_check(q, s).ok


def test_global_product_monotone_in_prime_bound():
    census = _a1_census()
    values = [
        global_partial_product(EulerProductConfig(s=2.5, prime_bound=bound), census)
        for bound in (10, 50, 100, 300)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[2] == pytest.approx(15.030669215430386, rel=1e-12)


def test_global_product_with_no_archimedean_part_is_the_local_product():
    cfg = EulerProductConfig(s=3.0, prime_bound=3, archimedean_exponent=0)
    value = global_partial_product(cfg, None)
    assert value == pytest.approx(sl2_local_zeta(3, 3.0), rel=1e-12)
    cfg = EulerProductConfig(s=3.0, prime_bound=7, archimedean_exponent=0)
    expected = math.prod(sl2_local_zeta(p, 3.0) for p in (3, 5, 7))
    assert global_partial_product(cfg, None) == pytest.approx(expected, rel=1e-12)


def test_global_product_guards():
    census = _a1_census()
    with pytest.raises(ValueError):
        global_partial_product(EulerProductConfig(s=2.0, prime_bound=100), census)
    with pytest.raises(ValueError):
        global_partial_product(EulerProductConfig(s=0.5, prime_bound=100), census)
    with pytest.raises(ValueError):
        # cap far too small for the archimedean tail tolerance
        small = dimension_census(build_root_system("A", 1), 500)
        global_partial_product(EulerProductConfig(s=2.5, prime_bound=100), small)
    with pytest.raises(ValueError):
        # archimedean part requested but no census supplied
        global_partial_product(EulerProductConfig(s=2.5, prime_bound=100), None)


def test_global_product_divergent_point_needs_acknowledgment():
    cfg = EulerProductConfig(s=2.0, prime_bound=100, archimedean_exponent=0)
    value = global_partial_product(cfg, None, acknowledge_divergence=True)
    assert value > 0


@pytest.mark.parametrize("s", [2.0, 1.01])
def test_acknowledged_divergence_still_checks_the_archimedean_tail(s):
    # the acknowledgment lifts the local product's divergence refusal only:
    # a census cap whose tail exceeds the tolerance is refused at every s, and
    # at these s no census within the budget would do, so no cap is named
    cfg = EulerProductConfig(s=s, prime_bound=100)
    message = (f"no A1 census within the budget of {DEFAULT_CENSUS_BUDGET} irreducibles "
               f"reaches it at s = {s} (--arch-exponent 0 leaves the archimedean factor out)")
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        global_partial_product(cfg, _a1_census(), acknowledge_divergence=True)


def test_a_census_past_the_budget_is_still_tail_checked():
    census = DegreeCensus(cap=2 * DEFAULT_CENSUS_BUDGET, degrees=(1,), multiplicities=(1,))
    with pytest.raises(ValueError, match="no A1 census within the budget"):
        global_partial_product(EulerProductConfig(s=1.5, prime_bound=100), census,
                               acknowledge_divergence=True)


def _tail(n, s):
    return n ** (1.0 - s) / (s - 1.0)


@settings(max_examples=100, deadline=None)
@given(s=st.floats(min_value=2.05, max_value=4.0), cap=st.integers(min_value=1, max_value=10**6))
def test_the_named_cap_is_the_least_whose_tail_is_within_the_tolerance(s, cap):
    cfg = EulerProductConfig(s=s, prime_bound=3)
    census = DegreeCensus(cap=cap, degrees=(1,), multiplicities=(1,))
    if _tail(cap, s) <= ARCHIMEDEAN_TAIL_TOLERANCE:
        assert global_partial_product(cfg, _a1_shaped(cap)) > 0
        return
    with pytest.raises(ValueError) as refused:
        global_partial_product(cfg, census)
    if _tail(DEFAULT_CENSUS_BUDGET, s) > ARCHIMEDEAN_TAIL_TOLERANCE:
        assert "no A1 census within the budget" in str(refused.value)
        return
    need = int(re.search(r"--max-dim\) to at least (\d+)$", str(refused.value))[1])
    assert cap < need <= DEFAULT_CENSUS_BUDGET
    assert _tail(need, s) <= ARCHIMEDEAN_TAIL_TOLERANCE < _tail(need - 1, s)


class _UnwalkableCensus(DegreeCensus):
    def zeta(self, s):
        raise AssertionError("the product walked the census for its zeta")

    def items(self):
        raise AssertionError("the product walked the census items")


def test_the_product_reads_only_the_census_cap():
    census = _a1_census()
    walled = _UnwalkableCensus(census.cap, census.degrees, census.multiplicities)
    cfg = EulerProductConfig(s=2.5, prime_bound=100)
    assert global_partial_product(cfg, walled) == global_partial_product(cfg, census)


def _refused_census(census, got):
    message = f'dimension_census(build_root_system("A", 1), {census.cap}); got {got}'
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        global_partial_product(EulerProductConfig(s=3.0, prime_bound=100), census)


def test_a_census_of_another_shape_is_refused():
    _refused_census(dimension_census(build_root_system("A", 2), 200_000), "degree 3 at position 2")


def test_an_a1_census_with_a_raised_multiplicity_is_refused():
    census = _a1_census()
    mults = list(census.multiplicities)
    mults[1000] += 1
    _refused_census(dataclasses.replace(census, multiplicities=tuple(mults)),
                    "multiplicity 2 at degree 1001")


def test_an_a1_census_short_of_its_cap_is_refused():
    census = _a1_shaped(200_000)
    _refused_census(dataclasses.replace(census, cap=census.cap + 1),
                    "the degrees 1 to 200000, each once")


def test_an_a1_census_with_moved_multiplicities_is_refused():
    # the multiplicities still sum to the cap, but one degree is missing and one doubled
    census = _a1_census()
    mults = list(census.multiplicities)
    mults[1000], mults[1001] = 0, 2
    _refused_census(dataclasses.replace(census, multiplicities=tuple(mults)),
                    "multiplicity 0 at degree 1001")


def test_the_shape_is_checked_after_the_tail():
    # a short census is refused for its tail, whose message is pinned, whatever its shape
    with pytest.raises(ValueError, match="leaves archimedean tail"):
        global_partial_product(EulerProductConfig(s=3.0, prime_bound=100),
                               dimension_census(build_root_system("A", 2), 100))


def _exact_partial_zeta(mp, s, cap):
    return mp.zeta(s) - mp.zeta(s, cap + 1)


@settings(max_examples=100, deadline=None)
@given(s=st.floats(min_value=1.01, max_value=12.0), cap=st.integers(min_value=1, max_value=10**7))
@example(s=3.0, cap=200_000).via("the euler subcommand's default cap")
@example(s=1.01, cap=10**7).via("the most terms the integral stands for")
@example(s=2.0, cap=32).via("the least cap past the direct sum")
@example(s=12.0, cap=31).via("the largest cap of the direct sum")
def test_the_a1_zeta_is_within_four_ulps_of_mpmath(s, cap):
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 30
    got = _a1_zeta(cap, s)
    assert abs(mp.mpf(got) - _exact_partial_zeta(mp, mp.mpf(s), cap)) <= 4 * math.ulp(got)


@settings(max_examples=60, deadline=None)
@given(s=st.floats(min_value=1.5, max_value=8.0), n=st.integers(min_value=8, max_value=10**5))
def test_the_euler_maclaurin_remainder_is_within_its_bound(s, n):
    # from k = 4 on, the remainder is far above an ulp, so the bound is seen to hold;
    # for x^(-s), whose derivatives keep their signs, the remainder also lies between
    # 0 and the first correction left out, so each correction is seen to be there
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 30
    m, K, s_mp = 4, len(euler._CORRECTIONS), mp.mpf(s)
    got, bound = _power_sum(s, n, m)
    remainder = _exact_partial_zeta(mp, s_mp, n) - mp.mpf(got)
    slack = 4 * math.ulp(got)
    assert abs(remainder) <= bound + slack
    omitted = (mp.bernoulli(2 * K + 2) / mp.factorial(2 * K + 2) * mp.rf(s_mp, 2 * K + 1)
               * (mp.mpf(m) ** (-s_mp - 2 * K - 1) - mp.mpf(n) ** (-s_mp - 2 * K - 1)))
    assert abs(remainder) <= abs(omitted) + slack
    assert remainder * omitted >= -slack * abs(omitted)


def test_a_remainder_bound_above_its_share_of_an_ulp_is_refused(monkeypatch):
    monkeypatch.setattr(euler, "_DIRECT", 2)  # from k = 2 on the remainder is visible
    with pytest.raises(ArithmeticError, match="remainder bound"):
        _a1_zeta(1000, 3.0)


@pytest.mark.parametrize("cap", [1, 32, 200_000])
@pytest.mark.parametrize("s", [16.0, 1e308, math.inf])
def test_the_a1_zeta_at_large_s_is_its_direct_sum(s, cap):
    # the terms past 32 are below 2^-80 here; at s = inf the sum is exactly 1.0
    assert _a1_zeta(cap, s) == math.fsum(n ** -s for n in range(1, min(cap, 32) + 1))


def test_config_validation():
    with pytest.raises(ValueError):
        EulerProductConfig(s=2.5, prime_bound=2)
    with pytest.raises(ValueError):
        EulerProductConfig(s=2.5, prime_bound=100, archimedean_exponent=-1)


def test_probe_at_the_divergence_point(odd_primes_by_sieve):
    report = divergence_probe(2.0, [100, 1000, 10_000])
    assert report.strictly_increasing
    assert report.exceeds_comparator
    # comparator is half the log of the zeta pole product
    primes = odd_primes_by_sieve(10_000)
    comparators = [
        0.5 * sum(-math.log(1.0 - 1.0 / p) for p in primes if p <= bound)
        for bound in (100, 1000, 10_000)
    ]
    assert list(report.comparators_log) == pytest.approx(comparators)


def test_probe_passes_on_both_checks():
    report = divergence_probe(2.0, [100, 1000])
    assert report.passed
    # no odd prime lies in (114, 126], so the product does not move
    flat = divergence_probe(2.0, [114, 126])
    assert flat.differences == (0.0,)
    assert flat.exceeds_comparator and not flat.strictly_increasing and not flat.passed
    below = dataclasses.replace(report, comparators_log=tuple(v + 1 for v in report.log_values))
    assert below.strictly_increasing and not below.exceeds_comparator and not below.passed


def test_probe_increase_is_read_from_the_differences():
    # two values rounded to one float still increase where their step is positive
    report = divergence_probe(3.0, [100, 1000])
    tied = dataclasses.replace(report, values=(report.values[0],) * 2)
    assert tied.differences[0] > 0
    assert tied.strictly_increasing


def test_probe_above_the_divergence_point_follows_the_tail_law(odd_primes_by_sieve):
    # log zeta_p(s) = p^(1-s) + (4 * 2^s - 1) p^(-s) + O(p^(2-2s)), as derived
    # in acceptance criterion 7, so on each segment of primes the log-gap lies
    # between S = sum p^(1-s) and S + 4 * 2^s * E with E = sum p^(-s); both sums
    # converge for s > 2.  Shrinking differences alone show nothing, since they
    # shrink at the divergent s = 2 as well.
    s = 2.2
    schedule = [100, 1000, 10_000]
    report = divergence_probe(s, schedule)
    assert report.strictly_increasing
    assert report.comparators_log is None
    primes = odd_primes_by_sieve(schedule[-1])
    logs = report.log_values
    for lo, hi, log_lo, log_hi in zip(schedule, schedule[1:], logs, logs[1:]):
        segment = [p for p in primes if lo < p <= hi]
        S = sum(p ** (1.0 - s) for p in segment)
        E = sum(p ** (-s) for p in segment)
        assert S < log_hi - log_lo < S + 4 * 2**s * E, (lo, hi, log_hi - log_lo, S, E)


@pytest.mark.parametrize("s", [2.5, 3.0])
def test_probe_and_product_share_one_fold(s):
    schedule = [3, 100, 1000, 10_000]
    report = divergence_probe(s, schedule)
    for bound, log_value in zip(schedule, report.log_values):
        cfg = EulerProductConfig(s=s, prime_bound=bound, archimedean_exponent=0)
        assert log_value == pytest.approx(math.log(global_partial_product(cfg, None)), rel=1e-14)


def test_integer_s_folds_as_its_float():
    # an int64 array of primes to a negative int power raised ValueError
    assert divergence_probe(3, [100, 1000]) == divergence_probe(3.0, [100, 1000])
    by_int, by_float = (
        global_partial_product(EulerProductConfig(s=s, prime_bound=100, archimedean_exponent=0), None)
        for s in (3, 3.0)
    )
    assert by_int == by_float


def test_probe_differences_keep_full_relative_precision(odd_primes_by_sieve):
    # Each difference is taken from its own segment's log-gap; two rounded
    # values subtracted would keep only the values' absolute accuracy.
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 40
    s = mp.mpf(3)
    schedule = [100, 1000, 10_000]

    def log_local_factor(q):
        # the SL2 closed form: six families at level <= 1 (degree 1 left out,
        # log1p adds it) and three geometric seeds with ratio q^(1-s)
        q = mp.mpf(q)
        finite = [(q, 1), (q + 1, (q - 3) / 2), ((q + 1) / 2, 2), (q - 1, (q - 1) / 2),
                  ((q - 1) / 2, 2)]
        seeds = [((q * q - 1) / 2, 4 * q), (q * q - q, (q * q - 1) / 2),
                 (q * q + q, (q - 1) ** 2 / 2)]
        geometric = sum(m * d**-s for d, m in seeds) / (1 - q ** (1 - s))
        return mp.log1p(sum(m * d**-s for d, m in finite) + geometric)

    primes = odd_primes_by_sieve(schedule[-1])
    values = [mp.exp(mp.fsum(log_local_factor(p) for p in primes if p <= b)) for b in schedule]
    report = divergence_probe(3.0, schedule)
    for got, lo, hi in zip(report.differences, values, values[1:]):
        assert abs(got / (hi - lo) - 1) < 1e-13


def test_probe_validation():
    with pytest.raises(ValueError):
        divergence_probe(2.0, [100])
    with pytest.raises(ValueError):
        divergence_probe(2.0, [100, 100])
    with pytest.raises(ValueError):
        divergence_probe(2.0, [1, 100])
    with pytest.raises(ValueError):
        divergence_probe(1.5, [100, 1000])
    with pytest.raises(ValueError):
        divergence_probe(3.5, [100, 1000])

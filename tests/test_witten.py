"""Dimension censuses, partial zeta sums, and abscissa estimates."""

import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repzeta.census import DegreeCensus
from repzeta.errors import BudgetExceededError
from repzeta.rootsystems import build_root_system, weyl_dim
from repzeta.witten import (
    ORDERED_EXP_DEPTH,
    abscissa_estimate,
    dimension_census,
    ordered_exp_series_check,
    zeta_partial,
)


def test_a2_census_to_ten():
    rs = build_root_system("A", 2)
    census = dimension_census(rs, 10)
    assert dict(census.items()) == {1: 1, 3: 2, 6: 2, 8: 1, 10: 2}
    assert census.total_multiplicity() == 8
    assert census.cumulative(10) == 8
    assert census.cumulative(5) == 3
    assert census.cumulative(0) == 0


def test_a1_census_is_counting():
    rs = build_root_system("A", 1)
    census = dimension_census(rs, 50)
    assert dict(census.items()) == {n: 1 for n in range(1, 51)}


@pytest.mark.parametrize("census", [
    DegreeCensus.from_counts({}, 5),
    DegreeCensus.from_counts({1: 1}, 1),
    DegreeCensus.from_counts({3: 2, 1: 1, 10**20: 7}, 10**21),
    dimension_census(build_root_system("A", 2), 1000),
    dimension_census(build_root_system("E", 8), 10**6),
], ids=["empty", "one", "wide", "A2", "E8"])
def test_write_json_streams_the_bytes_of_json_dump(tmp_path, census):
    path = tmp_path / "census.json"
    census.write_json(path)
    expected = json.dumps(census.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert path.read_text() == expected


def _box_scan(rs, max_dim):
    """Independent completeness oracle: scan a rectangular box of weights.

    Per-coordinate bounds come from monotonicity: if the weight with n in one
    slot and zeros elsewhere already exceeds max_dim, no weight with a larger
    entry there can qualify.
    """
    rank = rs.rank
    limits = []
    for i in range(rank):
        n = 0
        while True:
            w = tuple(n + 1 if j == i else 0 for j in range(rank))
            if weyl_dim(rs, w) > max_dim:
                break
            n += 1
        limits.append(n)
    counts: dict[int, int] = {}
    stack = [()]
    for i in range(rank):
        stack = [w + (n,) for w in stack for n in range(limits[i] + 1)]
    for w in stack:
        d = weyl_dim(rs, w)
        if d <= max_dim:
            counts[d] = counts.get(d, 0) + 1
    return counts


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("C", 2), ("G", 2)])
def test_census_matches_box_scan(series, rank):
    rs = build_root_system(series, rank)
    census = dimension_census(rs, 10_000)
    assert dict(census.items()) == _box_scan(rs, 10_000)


@settings(max_examples=30, deadline=None)
@given(
    group=st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                           ("C", 2), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]),
    cap=st.integers(1, 20_000),
)
def test_census_matches_box_scan_at_any_cap(group, cap):
    rs = build_root_system(*group)
    assert dict(dimension_census(rs, cap).items()) == _box_scan(rs, cap)


@pytest.mark.parametrize("series,rank,cap,fits_int64", [
    ("F", 4, 191_025, True), ("F", 4, 191_026, False),
    ("D", 6, 29_184, True), ("D", 6, 29_185, False),
    ("F", 4, 10**6, False),  # cap * rho_product passes 2^63: int64 would wrap
])
def test_census_on_each_side_of_the_int64_switch(series, rank, cap, fits_int64):
    # every partial product of coroot values is at most cap * rho_product
    rs = build_root_system(series, rank)
    assert (cap * rs.rho_product < 2**62) == fits_int64
    census = dimension_census(rs, cap)
    assert dict(census.items()) == _box_scan(rs, cap)
    assert all(type(x) is int for x in census.degrees + census.multiplicities)


def test_census_checks_exact_division():
    # A2 has rho_product 2; with 4 in its place most numerators leave a remainder
    rs = dataclasses.replace(build_root_system("A", 2), rho_product=4)
    with pytest.raises(AssertionError, match="divide exactly"):
        dimension_census(rs, 100)


def test_zeta_partial_a1_small():
    rs = build_root_system("A", 1)
    census = dimension_census(rs, 3)
    # 1 + 1/4 + 1/9
    assert abs(zeta_partial(census, 2.0) - 49.0 / 36.0) < 1e-15


def test_zeta_partial_rejects_nonpositive_s():
    rs = build_root_system("A", 1)
    census = dimension_census(rs, 10)
    with pytest.raises(ValueError):
        zeta_partial(census, 0.0)


def test_budget_rejection():
    rs = build_root_system("A", 2)
    with pytest.raises(BudgetExceededError):
        dimension_census(rs, 10_000, max_entries=5)


@pytest.mark.parametrize("series,rank,cap", [("A", 1, 1000), ("A", 2, 10_000)])
def test_budget_is_the_number_of_irreducibles(series, rank, cap):
    # A1 is one run along the last coordinate; A2 is one run per prefix
    rs = build_root_system(series, rank)
    held = dimension_census(rs, cap).total_multiplicity()
    assert dimension_census(rs, cap, max_entries=held).total_multiplicity() == held
    with pytest.raises(BudgetExceededError):
        dimension_census(rs, cap, max_entries=held - 1)


def test_a2_partial_sum_below_its_closed_form():
    """zeta_A2(2) = 4 zeta(6)/3 = 4 pi^6/2835 (Witten 1991; Zagier 1994).

    The A2 dimensions are mn(m + n)/2 over m, n >= 1, so zeta_A2(s) is
    2^s times the Mordell-Tornheim sum T(s, s, s); T(2, 2, 2) = zeta(6)/3.
    The partial sum up to N misses sum_{d > N} r_d d^-2, and for d > N
    d^-2 <= d^-1 / N, so the miss is below zeta_A2(1)/N.  Tornheim's
    T(1, 1, 1) = 2 zeta(3) gives zeta_A2(1) = 2 T(1, 1, 1) = 4 zeta(3).
    Every term is positive, so the partial sum lies in
    [4 pi^6/2835 - 4 zeta(3)/N, 4 pi^6/2835).
    """
    zeta3 = 1.2020569031595943
    n = 10**6
    value = zeta_partial(dimension_census(build_root_system("A", 2), n), 2.0)
    closed = 4 * math.pi**6 / 2835
    assert closed - 4 * zeta3 / n <= value < closed


def test_c2_partial_sum_below_its_closed_form():
    """zeta_C2(2) = 36 zeta_so(5)(2, 2, 2, 2) = pi^8/8400 (Komori, Matsumoto and
    Tsumura, Witten multiple zeta-functions associated with semisimple Lie
    algebras II).

    The C2 dimensions are uv(u + v)(u + 2v)/6 over u, v >= 1.  By AM-GM,
    u + v >= 2 sqrt(uv) and u + 2v >= 2 sqrt(2uv), so dim >= (2 sqrt2/3)(uv)^2
    and zeta_C2(1) <= (3/(2 sqrt2)) zeta(2)^2.  For d > N, d^-2 < d^-1 / N, so
    the partial sum up to N misses less than zeta_C2(1)/N.  Every term is
    positive, so the partial sum lies in
    [pi^8/8400 - (3/(2 sqrt2)) zeta(2)^2/N, pi^8/8400).
    """
    zeta2 = math.pi**2 / 6
    n = 10**6
    value = zeta_partial(dimension_census(build_root_system("C", 2), n), 2.0)
    closed = math.pi**8 / 8400
    assert closed - 3 / (2 * math.sqrt(2)) * zeta2**2 / n <= value < closed


def test_abscissa_estimate_a1_exact():
    rs = build_root_system("A", 1)
    census = dimension_census(rs, 100_000)
    est = abscissa_estimate(census)
    assert abs(est.slope - 1.0) < 1e-12
    assert abs(est.raw_ratio - 1.0) < 1e-12


def test_abscissa_estimate_needs_large_cap():
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError):
        abscissa_estimate(dimension_census(rs, 50))


def test_divergence_at_critical_exponent():
    # at s = rank/kappa = 2/3 the partial sums keep climbing without slowing
    rs = build_root_system("A", 2)
    caps = [10**3, 10**4, 10**5, 10**6]
    vals = [zeta_partial(dimension_census(rs, c), 2.0 / 3.0) for c in caps]
    increments = [b - a for a, b in zip(vals, vals[1:])]
    assert all(inc > 5.0 for inc in increments)
    assert all(a <= b for a, b in zip(increments, increments[1:]))


def test_convergence_above_critical_exponent():
    rs = build_root_system("A", 2)
    caps = [10**4, 10**5, 10**6]
    vals = [zeta_partial(dimension_census(rs, c), 1.0) for c in caps]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    assert diffs[1] < diffs[0]
    assert diffs[1] < 0.1


def test_ordered_exp_series_single_negative():
    report = ordered_exp_series_check((-0.5,))
    assert report.converges
    expected = math.exp(-0.5) / (1.0 - math.exp(-0.5))
    assert abs(report.closed_form - expected) < 1e-12
    assert report.agreement_gap < 1e-9


def test_ordered_exp_series_suffix_order_and_divergence():
    # suffix sums are reported S_1 first: (0.5, -0.5) gives S_1 = 0, S_2 = -0.5
    report = ordered_exp_series_check((0.5, -0.5))
    assert abs(report.suffix_sums[0] - 0.0) < 1e-15
    assert abs(report.suffix_sums[1] + 0.5) < 1e-15
    assert not report.converges


def test_ordered_exp_series_reports_overflowing_divergence():
    # exp(12 * 60) overflows a float: the truncated sum is inf, not an error
    report = ordered_exp_series_check((12.0,))
    assert not report.converges
    assert report.closed_form is None and report.agreement_gap is None
    assert report.truncated == math.inf


@pytest.mark.parametrize("a", [-1e-9, -1e-17, -1e-300])
def test_ordered_exp_series_closed_form_near_zero(a):
    # 1 / (e^|a| - 1) = 1/|a| - 1/2 + O(|a|); 1 - exp(a) rounds to 0 below 1e-16
    report = ordered_exp_series_check((a,))
    assert report.converges
    assert report.closed_form == pytest.approx(1.0 / -a - 0.5, rel=1e-15)
    assert report.truncated == pytest.approx(60.0, rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-40.0, max_value=40.0), min_size=1, max_size=4))
@example([-2.0, -2.225073858507203e-309])  # a lone factor 4.5e308 overflows, the product does not
def test_ordered_exp_series_closed_form_matches_mpmath(coefficients):
    mpmath = pytest.importorskip("mpmath")
    report = ordered_exp_series_check(coefficients)
    if not report.converges:
        assert report.closed_form is None
        return
    with mpmath.workdps(50):
        exact = mpmath.fprod(mpmath.exp(s) / -mpmath.expm1(s) for s in report.suffix_sums)
        expected = float(exact)
    assert report.closed_form == pytest.approx(expected, rel=1e-13)


def test_ordered_exp_series_truncated_sum_survives_an_overflowing_partial_sum():
    # The inner sum over (b_2, b_3) reaches e^955 and overflows a float, but
    # e^(-800 b_1) brings every term below e^155.
    mpmath = pytest.importorskip("mpmath")
    coefficients = (-800.0, 5.0, 11.0)
    report = ordered_exp_series_check(coefficients)
    assert math.isfinite(report.truncated)
    with mpmath.workdps(50):  # the same recursion, on 50-digit numbers
        nxt = [mpmath.mpf(1)] * (ORDERED_EXP_DEPTH + 2)
        for a in reversed(coefficients):
            cur = [mpmath.mpf(0)] * (ORDERED_EXP_DEPTH + 2)
            for b in range(ORDERED_EXP_DEPTH, 0, -1):
                cur[b] = cur[b + 1] + mpmath.exp(a * b) * nxt[b + 1]
            nxt = cur
        expected = float(nxt[1])
    assert report.truncated == pytest.approx(expected, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-40.0, max_value=40.0), min_size=1, max_size=4))
@example([-40.0, 6.0, 6.0])  # e^(-40 b_1) underflows where the inner sum overflows
def test_ordered_exp_series_truncated_sum_is_never_nan(coefficients):
    assert not math.isnan(ordered_exp_series_check(coefficients).truncated)


def test_ordered_exp_series_needs_depth_for_every_index():
    with pytest.raises(ValueError, match="too small for 61 nested indices"):
        ordered_exp_series_check((-1.0,) * 61)


def test_ordered_exp_series_two_negative_terms():
    report = ordered_exp_series_check((-1.0, -0.5))
    assert report.converges
    s1, s2 = -1.5, -0.5
    expected = (math.exp(s1) / (1 - math.exp(s1))) * (math.exp(s2) / (1 - math.exp(s2)))
    assert abs(report.closed_form - expected) < 1e-12
    assert report.agreement_gap < 1e-9

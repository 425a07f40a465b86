"""Dimension censuses, partial zeta sums, and abscissa estimates."""

import csv
import dataclasses
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repzeta.census import CHUNK, DegreeCensus
from repzeta.errors import BudgetExceededError
from repzeta.rootsystems import build_root_system, weyl_dim
from repzeta.witten import abscissa_estimate, dimension_census, zeta_partial


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


_A1 = build_root_system("A", 1)
_WRITER_CENSUSES = pytest.mark.parametrize("census", [
    DegreeCensus.from_counts({}, 5),
    DegreeCensus.from_counts({1: 1}, 1),
    DegreeCensus.from_counts({3: 2, 1: 1, 10**20: 7}, 10**21),
    dimension_census(build_root_system("A", 2), 1000),
    dimension_census(build_root_system("E", 8), 10**6),
    # A1 to n has n rows: one short of a chunk, one chunk, and one row past one and two
    dimension_census(_A1, CHUNK - 1),
    dimension_census(_A1, CHUNK),
    dimension_census(_A1, CHUNK + 1),
    dimension_census(_A1, 2 * CHUNK + 1),
], ids=["empty", "one", "wide", "A2", "E8", "chunk-1", "chunk", "chunk+1", "2chunk+1"])


@_WRITER_CENSUSES
def test_write_json_streams_the_bytes_of_json_dump(tmp_path, census):
    path = tmp_path / "census.json"
    census.write_json(path)
    expected = json.dumps(census.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()


@_WRITER_CENSUSES
def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path, census):
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["degree", "multiplicity", "cumulative"])
        total = 0
        for d, m in census.items():
            total += m
            writer.writerow([d, m, total])
    path = tmp_path / "census.csv"
    census.write_csv(path)
    assert path.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("write", [DegreeCensus.write_csv, DegreeCensus.write_json],
                         ids=["csv", "json"])
def test_writers_run_in_constant_extra_memory(tmp_path, write):
    # A1 to 157,421 writes a 14 MB JSON; the writers hold one chunk at a time
    census = dimension_census(_A1, 157_421)
    census.total_multiplicity()  # the running totals are part of the census, not the write
    tracemalloc.start()
    try:
        write(census, tmp_path / "census")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


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


# A2 at cap 2 leaves one row at the last level, as rank 1 always does
@pytest.mark.parametrize("series,rank,cap", [("A", 1, 10_000), ("A", 2, 10_000), ("C", 2, 10_000),
                                             ("G", 2, 10_000), ("A", 2, 2)],
                         ids=["A-1", "A-2", "C-2", "G-2", "A-2-cap-2"])
def test_census_matches_box_scan(series, rank, cap):
    rs = build_root_system(series, rank)
    census = dimension_census(rs, cap)
    assert dict(census.items()) == _box_scan(rs, cap)


@settings(max_examples=30, deadline=None)
@given(
    group=st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                           ("B", 4), ("C", 2), ("C", 3), ("D", 4), ("D", 5), ("G", 2),
                           ("F", 4), ("E", 6), ("E", 7), ("E", 8)]),
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


@pytest.mark.parametrize("series,rank,cap,fits_int64", [
    ("A", 2, 10**6, True), ("D", 4, 10**6, True), ("F", 4, 10**6, False), ("E", 8, 10**6, False),
])
def test_census_at_a_dimension_and_one_below_it(series, rank, cap, fits_int64):
    # a cap equal to a dimension d puts that weight exactly on the boundary
    # prod(values) = cap * rho_product, where only the exact tie-break decides
    rs = build_root_system(series, rank)
    reference = dict(dimension_census(rs, cap).items())
    dims = [d for d in reference if d > 1][-8:]
    assert dims
    for d in dims:
        assert (d * rs.rho_product < 2**62) == fits_int64  # the census dtype at cap d
        at = dict(dimension_census(rs, d).items())
        below = dict(dimension_census(rs, d - 1).items())
        assert d in at and d not in below
        assert at == {e: m for e, m in reference.items() if e <= d}
        assert below == {e: m for e, m in reference.items() if e < d}


@pytest.mark.parametrize("rank", [1, 2])
def test_budget_bounds_the_search_at_a_huge_cap(rank):
    # no row steps past max_entries + 1, so x stays far inside int64 at 10^30
    with pytest.raises(BudgetExceededError):
        dimension_census(build_root_system("A", rank), 10**30, max_entries=10)


def test_a1_past_the_int64_range_exceeds_the_default_budget():
    with pytest.raises(BudgetExceededError):
        dimension_census(_A1, 10**19)


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
    # the check at the last level counts the census itself: A1 has only
    # that level, and A2 has a level of prefixes before it
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

"""Partition combinatorics and alternating-group degree censuses."""

import functools
import gc
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repzeta import symalt
from repzeta.census import DegreeCensus
from repzeta.rootsystems import build_root_system
from repzeta.symalt import (
    MAX_PARTITION_SIZE,
    _degree_keys,
    _prime_fields,
    _words,
    alt_degree_census,
    alt_zeta,
    alt_zeta_exact,
    conjugate_partition,
    hook_degree,
    index_two_count_inequality,
    partitions,
    perfect_group_count_bound,
    sym_alt_count_inequality,
    sym_degree_census,
    wreath_log_order,
    wreath_tower_conditions,
)
from repzeta.witten import dimension_census


def _pentagonal_partition_counts(n):
    """p(0..n) from Euler's pentagonal recurrence, kept apart from the library."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        j = 1
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= m:
                    p[m] += sign * p[m - g]
            j += 1
    return p


def _distinct_odd_part_counts(n):
    """Partitions of 0..n into distinct odd parts: the self-conjugate counts."""
    sc = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for m in range(n, part - 1, -1):
            sc[m] += sc[m - part]
    return sc


PARTITION_COUNTS = _pentagonal_partition_counts(MAX_PARTITION_SIZE)


@functools.cache
def _partitions(k):
    return partitions(k)


def test_partition_counts():
    assert PARTITION_COUNTS[:15] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]
    assert PARTITION_COUNTS[40] == 37338
    for k in range(1, MAX_PARTITION_SIZE + 1):
        assert len(_partitions(k)) == PARTITION_COUNTS[k]


def test_partition_order_is_reverse_lexicographic():
    for k in range(1, MAX_PARTITION_SIZE + 1):
        parts = _partitions(k)
        assert parts[0] == (k,)
        assert parts[-1] == (1,) * k
        assert all(a > b for a, b in zip(parts, parts[1:]))
        assert set(map(type, parts)) == {tuple} and set(map(sum, parts)) == {k}
        assert all(lam[-1] >= 1 and list(lam) == sorted(lam, reverse=True) for lam in parts)


def test_conjugate_partition():
    assert conjugate_partition((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate_partition((3, 3)) == (2, 2, 2)
    assert conjugate_partition(conjugate_partition((5, 4, 2, 2, 1))) == (5, 4, 2, 2, 1)


@pytest.mark.parametrize("function", [conjugate_partition, hook_degree])
@pytest.mark.parametrize("parts", [(1, 3), (2, 0, 1), (2, 0), (), (2, 1.0), (3, 1.5), ("3", "1")])
def test_partition_functions_reject_what_is_not_a_partition(function, parts):
    with pytest.raises(ValueError, match=r"not a partition \(weakly decreasing positive parts\)"):
        function(parts)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, MAX_PARTITION_SIZE), data=st.data())
def test_conjugate_partition_is_the_column_count_involution(k, data):
    lam = _partitions(k)[data.draw(st.integers(0, PARTITION_COUNTS[k] - 1))]
    conj = conjugate_partition(lam)
    # the column-count definition: one sum over the rows per column
    assert conj == tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))
    assert conjugate_partition(conj) == lam
    assert sum(conj) == sum(lam)


def test_self_conjugate_count_is_the_distinct_odd_part_count():
    sc = _distinct_odd_part_counts(MAX_PARTITION_SIZE)
    for k in range(1, MAX_PARTITION_SIZE + 1):
        keys, self_conjugate = _degree_keys(k)
        assert len(keys) == PARTITION_COUNTS[k]
        assert len(set(self_conjugate.tolist())) == len(self_conjugate) == sc[k]


def _decoded(keys, k):
    """The degree of each packed key, one field at a time."""
    fields = _prime_fields(k)
    return [math.prod(p ** ((key >> offset) & ((1 << width) - 1)) for p, offset, width in fields)
            for key in keys.tolist()]


@settings(max_examples=10, deadline=None)
@given(k=st.integers(1, MAX_PARTITION_SIZE))
def test_degree_kernel_matches_the_hook_length_formula(k):
    every, self_conjugate = Counter(), Counter()
    for lam in _partitions(k):
        d = hook_degree(lam)
        every[d] += 1
        if conjugate_partition(lam) == lam:
            self_conjugate[d] += 1
    keys, square = _degree_keys(k)
    assert Counter(_decoded(keys, k)) == every
    assert Counter(_decoded(keys[square], k)) == self_conjugate


def test_packed_keys_and_words_fit_in_int64():
    for k in range(1, MAX_PARTITION_SIZE + 1):
        fields = _prime_fields(k)
        assert [p for p, _, _ in fields] == [p for p in range(2, k + 1)
                                             if all(p % q for q in range(2, p))]
        offset = 0
        for p, start, width in fields:
            v = 0
            while math.factorial(k) % p ** (v + 1) == 0:
                v += 1
            assert start == offset and v < 1 << width
            offset += width
        assert offset <= 62
        words = _words(k)
        assert len(set(words.tolist())) == len(words) == PARTITION_COUNTS[k]
        assert 0 < words.min() and words.max() < 1 << (k + 1)


def _count_standard_tableaux(parts):
    """Brute-force oracle: count standard fillings cell by cell.

    States are row-length vectors; a cell may be added to row i only while
    row i stays no longer than row i-1, which is exactly standardness.
    """
    target = tuple(parts)
    frontier = {(0,) * len(target): 1}
    for _ in range(sum(target)):
        nxt: dict[tuple, int] = {}
        for state, ways in frontier.items():
            for i in range(len(target)):
                if state[i] < target[i] and (i == 0 or state[i] < state[i - 1]):
                    new = state[:i] + (state[i] + 1,) + state[i + 1:]
                    nxt[new] = nxt.get(new, 0) + ways
        frontier = nxt
    return frontier[target]


def test_hook_degree_against_tableau_oracle():
    for k in range(1, 7):
        for parts in partitions(k):
            assert hook_degree(parts) == _count_standard_tableaux(parts)


def test_hook_degree_explicit():
    assert hook_degree((5,)) == 1
    assert hook_degree((4, 1)) == 4
    assert hook_degree((3, 1, 1)) == 6
    assert hook_degree((2, 2, 1)) == 5
    assert hook_degree((3, 2)) == 5


def test_sym_census_mass():
    for k in range(2, 15):
        census = sym_degree_census(k)
        assert census.sum_degree_squares() == math.factorial(k)
        assert census.total_multiplicity() == len(partitions(k))


def test_sym_census_counts_every_partition():
    # one hook degree per partition: a transpose pair counts twice, a
    # self-conjugate partition once
    for k in range(1, 21):
        expected = Counter(hook_degree(lam) for lam in partitions(k))
        assert dict(sym_degree_census(k).items()) == expected


def test_alt_five_census():
    census = alt_degree_census(5)
    assert dict(census.items()) == {1: 1, 3: 2, 4: 1, 5: 1}


def _alt_oracle(k):
    """A_k's degrees from the partitions: one irreducible per pair λ ≠ λ′, two
    of half the degree per self-conjugate λ."""
    counts = Counter()
    for lam in _partitions(k):
        conj = conjugate_partition(lam)
        if conj == lam:
            half, rem = divmod(hook_degree(lam), 2)
            assert rem == 0
            counts[half] += 2
        elif lam > conj:
            counts[hook_degree(lam)] += 1
    return counts


@pytest.mark.parametrize("k", range(5, 25))
def test_alt_census_matches_the_pairing_of_the_partitions(k):
    census = alt_degree_census(k)
    expected = _alt_oracle(k)
    assert census.degrees == tuple(sorted(expected))
    assert census.multiplicities == tuple(map(expected.__getitem__, census.degrees))
    assert census.cap == census.degrees[-1]


@pytest.mark.parametrize("corrupt,message", [
    # (k) has degree 1: marked self-conjugate, its half degree is no integer
    (lambda keys, sc: np.append(sc, np.flatnonzero(keys == 0)[0]), "has an odd degree"),
    # (3,1,1), the one self-conjugate partition of 5, left unmarked: degree 6 has no partner
    (lambda keys, sc: sc[:0], "do not pair with their transposes"),
], ids=["odd-half", "unpaired"])
def test_alt_census_refuses_a_wrong_self_conjugate_mask(monkeypatch, corrupt, message):
    degree_keys = symalt._degree_keys

    def corrupted(k):
        keys, sc = degree_keys(k)
        return keys, corrupt(keys, sc)

    monkeypatch.setattr(symalt, "_degree_keys", corrupted)
    with pytest.raises(AssertionError, match=message):
        alt_degree_census(5)


def test_alt_census_mass():
    for k in range(5, 15):
        census = alt_degree_census(k)
        assert 2 * census.sum_degree_squares() == math.factorial(k)


def test_alt_zeta_five_exact():
    assert alt_zeta_exact(5, 1) == Fraction(127, 60)
    assert abs(alt_zeta(5, 1.0) - 127.0 / 60.0) < 1e-14


def test_alt_zeta_exact_is_the_fraction_sum():
    census = alt_degree_census(28)
    assert census.zeta_exact(2) == sum((Fraction(m, d**2) for d, m in census.items()), Fraction(0))


@pytest.mark.parametrize("s", [0.5, -1])
def test_alt_zeta_exact_rejects_what_is_not_an_integer_s_at_least_zero(s):
    with pytest.raises(ValueError, match=r"use zeta\(s\)"):
        alt_zeta_exact(5, s)
    with pytest.raises(ValueError, match=r"use zeta\(s\)"):
        alt_degree_census(5).zeta_exact(s)


def test_alt_zeta_strictly_decreasing_in_k():
    values = [alt_zeta(k, 1.0) for k in range(5, 15)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_alt_zeta_decreasing_in_s():
    for k in (5, 9):
        values = [alt_zeta(k, s) for s in (0.5, 1.0, 1.5, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_perfect_group_count_bound():
    for k in (5, 12):
        res = perfect_group_count_bound(alt_degree_census(k), 1.0, 1.0)
        assert res.holds
    # an absurdly small constant must be caught
    res = perfect_group_count_bound(alt_degree_census(5), 0.1, 0.01)
    assert not res.holds


def _scan_every_n(census, s, c):
    slacks = [c * n**s + 1 - census.cumulative(n) for n in range(1, census.cap + 1)]
    min_slack = min(slacks)
    return min_slack >= 0, slacks.index(min_slack) + 1, min_slack


@settings(max_examples=300, deadline=None)
@given(
    counts=st.dictionaries(st.integers(2, 500), st.integers(1, 6), max_size=12),
    headroom=st.integers(0, 60),
    s=st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
    c=st.floats(min_value=-1.0, max_value=3.0),
)
# c * n^s + 1 rounds to 1 for n = 1 and 2: the falling slack is flat, and its
# least n is 1, not the end of the run
@example(counts={}, headroom=1, s=1.0, c=-1e-300)
def test_perfect_group_bound_matches_a_scan_of_every_n(counts, headroom, s, c):
    census = DegreeCensus.from_counts({1: 1, **counts}, max(counts, default=1) + headroom)
    res = perfect_group_count_bound(census, s, c)
    assert (res.holds, res.tightest_n, res.min_slack) == _scan_every_n(census, s, c)


def test_perfect_group_bound_beyond_a_full_scan():
    # R steps at 10^20 and the cap is 10^22, far past a scan of every n.  With
    # c < 0 the slack falls towards the cap, and near it floats round n^s to a
    # plateau, so the least n of least slack lies below the cap.
    census = DegreeCensus.from_counts({1: 1, 10**20: 1}, 10**22)
    res = perfect_group_count_bound(census, 1.0, -0.5)

    def slack(n):
        return -0.5 * n**1.0 + 1 - census.cumulative(n)

    assert not res.holds
    assert res.min_slack == slack(10**22)
    assert res.tightest_n < 10**22
    assert slack(res.tightest_n) == res.min_slack < slack(res.tightest_n - 1)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_perfect_group_bound_rejects_a_constant_that_is_not_finite(c):
    # every slack against a NaN constant is NaN, and NaN < min_slack is
    # false, so an unchecked NaN would report holds=True with slack inf
    with pytest.raises(ValueError, match="c must be finite"):
        perfect_group_count_bound(alt_degree_census(6), 1.0, c)


@pytest.mark.parametrize("s", [math.inf, math.nan])
def test_perfect_group_bound_rejects_an_exponent_that_is_not_finite(s):
    # with c = 0, 0 * n**inf is NaN for n >= 2, and NaN < min_slack is false,
    # so an unchecked s = inf would report holds=True where s = 1 fails at n = 10
    census = alt_degree_census(6)
    res = perfect_group_count_bound(census, 1.0, 0.0)
    assert (res.holds, res.tightest_n, res.min_slack) == (False, 10, -6.0)
    with pytest.raises(ValueError, match="s must be finite and positive"):
        perfect_group_count_bound(census, s, 0.0)


def test_perfect_group_bound_refuses_an_exponent_whose_powers_overflow():
    # the A_40 cap is about 5.9e22: cap**13.5 is about 1e309 / 40, cap**14 overflows
    census = alt_degree_census(40)
    cap = census.cap
    expected = {
        0.0: (False, cap, -18737.0),
        1.0: (True, 1, 1.0),
        -1.0: (False, 58965081685061800034305, -2.5294797727752935e+307),
    }
    for c, want in expected.items():
        res = perfect_group_count_bound(census, 13.5, c)
        assert (res.holds, res.tightest_n, res.min_slack) == want
        with pytest.raises(ValueError, match=f"at s=14.0 below the cap {cap}"):
            perfect_group_count_bound(census, 14.0, c)


def test_perfect_group_bound_requires_unique_trivial_character():
    census = sym_degree_census(5)  # two linear characters
    with pytest.raises(ValueError):
        perfect_group_count_bound(census, 1.0, 1.0)


def test_index_two_count_inequalities():
    for k in range(5, 11):
        assert sym_alt_count_inequality(k)


def test_index_two_count_inequality_fails_on_unrelated_censuses():
    # S_5 has 7 characters in all, and A_12 has 15 of degree at most 891, so
    # R_891(A_12) <= 2 R_1782(S_5) = 14 fails
    sym, alt = sym_degree_census(5), alt_degree_census(12)
    assert (alt.cumulative(891), sym.cumulative(1782)) == (15, 7)
    assert not index_two_count_inequality(sym, alt)


@pytest.mark.parametrize("build", [
    lambda: partitions(20),
    lambda: dimension_census(build_root_system("A", 2), 1000),
    lambda: alt_degree_census(12),
], ids=["partitions", "a2_census", "alt_census"])
def test_no_reference_cycles(build):
    # a cycle keeps a call's work alive until the next full collection
    gc.collect()
    gc.disable()
    try:
        build()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_wreath_log_order_base():
    assert abs(wreath_log_order((5, 100), 0) - math.log(60)) < 1e-12


def test_wreath_log_order_recursion():
    # each new layer contributes (l_j!/2)^(L_{j-1}) with L_{j-1} = l_0...l_{j-1}
    ells = (5, 7, 11)
    for j in (1, 2):
        big_l = math.prod(ells[:j])
        expected = wreath_log_order(ells, j - 1) \
            + big_l * (math.lgamma(ells[j] + 1) - math.log(2))
        assert abs(wreath_log_order(ells, j) - expected) < 1e-9


def test_wreath_conditions_large_layer():
    report = wreath_tower_conditions((5, 100), 1)
    assert report.growth_holds
    assert abs(report.growth_lhs - math.log(60) / math.log(100)) < 1e-12
    assert report.zeta_status == "not verifiable at desk scale"
    assert report.zeta_value is None
    assert report.branching_product == 5


def test_wreath_conditions_small_layer():
    report = wreath_tower_conditions((5, 30), 1)
    assert not report.growth_holds
    assert report.zeta_status == "holds"
    assert report.zeta_value == pytest.approx(1.0402731, abs=1e-6)
    assert report.zeta_bound == pytest.approx(1.2)


def test_wreath_conditions_validation():
    with pytest.raises(ValueError):
        wreath_tower_conditions((5,), 1)
    with pytest.raises(ValueError):
        wreath_tower_conditions((5, 4), 1)
    with pytest.raises(ValueError):
        wreath_tower_conditions((5, 6), 0)
    with pytest.raises(ValueError):
        wreath_log_order((5, 6), -1)
    with pytest.raises(ValueError):
        wreath_log_order((5,), 1)


@pytest.mark.parametrize("ells", [(5.9, 6.7), ("7", 5), (5, 6.0)], ids=["floats", "str", "float"])
def test_wreath_layer_sizes_must_be_integers(ells):
    # int() would truncate 5.9 to 5 and parse "7"; both functions refuse instead
    with pytest.raises(ValueError, match="layer sizes must be integers"):
        wreath_log_order(ells, 1)
    with pytest.raises(ValueError, match="layer sizes must be integers"):
        wreath_tower_conditions(ells, 1)


def test_wreath_layer_sizes_accept_integer_types():
    sizes = (np.int64(5), 30)
    assert wreath_log_order(sizes, 1) == wreath_log_order((5, 30), 1)
    assert wreath_tower_conditions(sizes, 1) == wreath_tower_conditions((5, 30), 1)


def test_partition_size_guard():
    for build in (partitions, sym_degree_census, alt_degree_census):
        with pytest.raises(ValueError, match=r"must be in 1\.\.40, got 41"):
            build(41)
    for build in (partitions, sym_degree_census):
        with pytest.raises(ValueError):
            build(0)

"""Exact SL2 local factors over compact discrete valuation rings."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repzeta.sl2local import (
    _excess,
    sl1_division_abscissa,
    sl2_class_count,
    sl2_degree_census,
    sl2_group_order,
    sl2_local_excess,
    sl2_local_zeta,
)

SMALL_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)


def _exact_zeta(q: int, s: int) -> Fraction:
    """Exact rational evaluation at integer s from the level-1 and level-2 censuses.

    Level j >= 2 repeats the level-2 families with degree and multiplicity both
    times q^(j-2), so the levels beyond the first form a geometric series of
    ratio q^(1-s) that starts at L_2 - L_1.
    """
    level_one, level_two = (sl2_degree_census(q, k).zeta_exact(s) for k in (1, 2))
    return level_one + (level_two - level_one) / (1 - Fraction(1, q ** (s - 1)))


def test_q3_value_at_two():
    assert _exact_zeta(3, 2) == Fraction(745, 144)
    assert abs(sl2_local_zeta(3, 2.0) - 745.0 / 144.0) < 1e-12


def test_float_matches_exact_on_grid():
    for q in (3, 5, 7, 9):
        for s in (2, 3, 4):
            assert abs(sl2_local_zeta(q, float(s)) - float(_exact_zeta(q, s))) < 1e-10


@pytest.mark.parametrize("q", [999983, 999979])
def test_excess_keeps_full_precision_near_one(q):
    # L_q(3) - 1 is about 1e-12 here, so forming L_q(3) first keeps only four
    # of its digits.
    exact = _exact_zeta(q, 3) - 1
    assert abs(Fraction(sl2_local_excess(q, 3.0)) / exact - 1) < 1e-13


@settings(max_examples=60, deadline=None)
@given(
    primes=st.lists(st.sampled_from(SMALL_ODD_PRIMES), min_size=1, max_size=8),
    s=st.floats(min_value=1.0, max_value=4.0, exclude_min=True),
)
def test_array_excess_matches_scalar_forms(primes, s):
    # The Euler fold evaluates _excess on its sieved int64 primes in numpy; an
    # int q is evaluated in Python floats, whose pow may round differently in
    # the last bits.
    excess = _excess(np.array(primes, dtype=np.int64), s)
    assert excess.shape == (len(primes),)
    for q, value in zip(primes, excess.tolist()):
        scalar = sl2_local_excess(q, s)
        assert type(scalar) is float
        assert value == pytest.approx(scalar, rel=16 * np.finfo(float).eps)
        assert sl2_local_zeta(q, s) == 1.0 + scalar


def test_excess_rejects_what_the_local_factor_rejects():
    for q in (15, 4, 1):
        with pytest.raises(ValueError):
            sl2_local_excess(q, 2.0)
    with pytest.raises(ValueError):
        sl2_local_excess(5, 1.0)
    # the least prime above 2^32: its degree q^2 + q would wrap in int64, but
    # as an int it is exact: L_q(2) - 1 = 1/q + O(q^-2)
    big = 4_294_967_311
    assert sl2_local_excess(big, 2.0) == pytest.approx(1.0 / big, rel=1e-8)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 25])
def test_level_one_identities(q):
    census = sl2_degree_census(q, 1)
    assert census.total_multiplicity() == q + 4
    assert census.sum_degree_squares() == q * (q * q - 1)


@pytest.mark.parametrize("q,k", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (9, 2)])
def test_census_counts_and_mass(q, k):
    census = sl2_degree_census(q, k)
    assert census.total_multiplicity() == sl2_class_count(q, k)
    assert census.sum_degree_squares() == sl2_group_order(q, k)


def test_class_count_formula():
    # (q + 4) + sum_{j=2}^{k} q^(j-2) (q^2 + 3q)
    assert sl2_class_count(3, 1) == 7
    assert sl2_class_count(3, 2) == 25
    assert sl2_class_count(3, 3) == 79
    assert sl2_class_count(5, 1) == 9
    assert sl2_class_count(5, 2) == 49
    assert sl2_class_count(7, 1) == 11


def test_group_order_formula():
    assert sl2_group_order(3, 1) == 24
    assert sl2_group_order(3, 2) == 648
    assert sl2_group_order(5, 2) == 15_000


def test_level_contributions_shrink_geometrically():
    # what each level adds to the sum of m * d^(-2) scales by exactly 1/q
    q = 3
    sums = [sl2_degree_census(q, j).zeta_exact(2) for j in range(1, 6)]
    levels = [b - a for a, b in zip(sums, sums[1:])]
    for a, b in zip(levels, levels[1:]):
        assert b == a / q


def test_even_and_composite_q_rejected():
    for f in (sl2_degree_census, sl2_class_count, sl2_group_order):
        for q, k in ((4, 1), (2, 1), (15, 1), (1, 1), (-3, 1), (3, 0)):
            with pytest.raises(ValueError):
                f(q, k)


def test_s_at_or_below_one_rejected():
    with pytest.raises(ValueError):
        sl2_local_zeta(3, 1.0)
    with pytest.raises(ValueError):
        sl2_local_zeta(3, 0.5)


def test_division_algebra_abscissa():
    assert sl1_division_abscissa(2) == 1
    assert sl1_division_abscissa(4) == Fraction(1, 2)
    assert sl1_division_abscissa(100) == Fraction(1, 50)
    with pytest.raises(ValueError):
        sl1_division_abscissa(1)

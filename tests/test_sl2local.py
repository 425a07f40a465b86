"""Exact SL2 local factors over compact discrete valuation rings."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repzeta.sl2local
from repzeta.errors import BudgetExceededError
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
        assert value == pytest.approx(scalar, rel=16 * np.finfo(float).eps, abs=0)
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
    assert sl2_local_excess(big, 2.0) == pytest.approx(1.0 / big, rel=1e-8, abs=0)
    big = 3**41  # above 2^64, where numpy takes no log of an int
    exact = float(_exact_zeta(big, 2) - 1)
    assert sl2_local_excess(big, 2.0) == pytest.approx(exact, rel=1e-12, abs=0)
    big = 3**324  # its degree q^2 + q is above the largest float
    with pytest.raises(ValueError, match=f"^q = {big} is too large: the degree q\\^2 \\+ q "
                       "overflows a float$"):
        sl2_local_excess(big, 2.0)


def test_excess_where_every_degree_power_underflows():
    # at q = 3^227 and s = 3 each d^-3 is below the least float, while the
    # excess, about q^-2, is a normal one; abs=0, since approx's default
    # absolute tolerance of 1e-12 would pass 0.0 as well
    big = 3**227
    assert sl2_local_excess(big, 3.0) == pytest.approx(big ** -2.0, rel=1e-12, abs=0)
    exact = float(_exact_zeta(big, 3) - 1)
    assert sl2_local_excess(big, 3.0) == pytest.approx(exact, rel=1e-12, abs=0)


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


def _class_count(q, k):
    """(q+4) + (q+3)(q^k - q)/(q - 1), the class count at level k, in closed form."""
    return (q + 4) + (q + 3) * (q**k - q) // (q - 1)


def _refused_above(q, largest, digits=2000):
    """Each closed-form function refuses the level above the largest, naming that level."""
    assert repzeta.sl2local.MAX_DEGREE_DIGITS == digits
    assert len(str(sl2_class_count(q, largest))) == digits
    assert sl2_group_order(q, largest) == q ** (3 * largest - 2) * (q * q - 1)
    message = (f"^level k = {largest + 1} at q = {q} has a class count over {digits} digits: "
               f"the largest level within the budget is {largest}$")
    for f in (sl2_degree_census, sl2_class_count, sl2_group_order):
        with pytest.raises(BudgetExceededError, match=message):
            f(q, largest + 1)


@pytest.mark.parametrize("q,largest", [(7, 2366), (9, 2095), (11, 1920), (13, 1795)])
def test_a_level_with_a_degree_over_the_budget_is_refused(q, largest):
    # the class count has 2000 digits at the largest level, and the
    # level above has a degree q^k (q+1) over 2000 digits
    assert 10**1999 <= _class_count(q, largest) < 10**2000 <= q**largest * (q + 1)
    _refused_above(q, largest)


@pytest.mark.parametrize("q,largest", [(3, 4190), (5, 2860)])
def test_a_level_with_a_class_count_over_the_budget_is_refused(q, largest):
    # the class count, the largest number a level's census prints or writes,
    # is above every degree: the level above the largest has degrees of 2000
    # digits at most, but a class count of 2001
    assert 10**1999 <= _class_count(q, largest) < 10**2000 <= _class_count(q, largest + 1)
    assert q**largest * (q + 1) < 10**2000
    _refused_above(q, largest)


# A budget of 4300 digits, CPython's int-to-str limit, is the most any budget
# could print: the closed form stays exact there too.
@pytest.mark.parametrize("q,largest", [(5, 6151), (9, 4506), (13, 3860)])
def test_a_level_with_a_degree_over_4300_digits_is_refused(monkeypatch, q, largest):
    monkeypatch.setattr(repzeta.sl2local, "MAX_DEGREE_DIGITS", 4_300)
    assert 10**4299 <= _class_count(q, largest) < 10**4300 <= q**largest * (q + 1)
    _refused_above(q, largest, 4300)


@pytest.mark.parametrize("q,largest", [(3, 9011), (7, 5087), (11, 4128)])
def test_a_level_with_a_class_count_over_4300_digits_is_refused(monkeypatch, q, largest):
    monkeypatch.setattr(repzeta.sl2local, "MAX_DEGREE_DIGITS", 4_300)
    assert 10**4299 <= _class_count(q, largest) < 10**4300 <= _class_count(q, largest + 1)
    assert q**largest * (q + 1) < 10**4300
    _refused_above(q, largest, 4300)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 99991, 10**6 + 3])
def test_the_largest_level_matches_a_walk_over_class_counts(q):
    for digits in range(1, 61):
        k = 0
        while _class_count(q, k + 1) < 10**digits:
            k += 1
        assert repzeta.sl2local._largest_level(q, digits) == k, digits


def test_a_far_level_is_refused_at_once():
    repzeta.sl2local._largest_level.cache_clear()  # time the search, not the cache
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="^level k = 1000000000 at q = 3 has a class "
                       "count over 2000 digits: the largest level within the budget is 4190$"):
        sl2_class_count(3, 10**9)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("q,largest", [(3, 5), (5, 3), (7, 3), (11, 2), (997, 0), (1009, 0)])
def test_the_level_budget_is_exact_at_its_boundary(monkeypatch, q, largest):
    monkeypatch.setattr(repzeta.sl2local, "MAX_DEGREE_DIGITS", 3)
    if largest:
        census = sl2_degree_census(q, largest)
        assert census.total_multiplicity() == _class_count(q, largest) < 1000
    assert _class_count(q, largest + 1) >= 1000
    message = f"the largest level within the budget is {largest}$"
    with pytest.raises(BudgetExceededError, match=message):
        sl2_degree_census(q, largest + 1)


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

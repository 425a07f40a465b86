"""The Dirichlet sums of a degree census, float and exact, and the table writer."""

import csv
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repzeta import census
from repzeta.census import DegreeCensus, write_table
from repzeta.errors import integers
from repzeta.euler import _a1_zeta
from repzeta.rootsystems import build_root_system
from repzeta.witten import dimension_census

degree_counts = st.dictionaries(
    st.integers(min_value=1, max_value=10**25), st.integers(min_value=1, max_value=10**6),
    min_size=1, max_size=40,
)


@pytest.fixture(scope="module")
def a1_census():
    return dimension_census(build_root_system("A", 1), 200_000)


@settings(max_examples=200, deadline=None)
@given(counts=degree_counts, s=st.floats(min_value=-3.0, max_value=4.0))
def test_zeta_is_the_fsum_of_its_terms_bit_for_bit(counts, s):
    terms = [m * d ** (-s) for d, m in counts.items()]
    assert DegreeCensus.from_counts(counts, max(counts)).zeta(s) == math.fsum(terms)


@settings(max_examples=200, deadline=None)
@given(counts=degree_counts, s=st.integers(min_value=0, max_value=4))
def test_zeta_is_within_s_plus_3_ulps_of_the_exact_sum(counts, s):
    # a term is within s + 2.04 units of 2^-53 relative: s from float(d) raised to
    # the power s, 1.04 from pow (glibc's is within 0.52 ulp) and 1 from the product
    # by m; fsum adds half an ulp, and 2^-53 relative is at most an ulp.  The terms,
    # not the sum, set the bound: 4.68 ulps is seen at d ~ 5.4e24, m ~ 8e5, s = 4
    got = DegreeCensus.from_counts(counts, max(counts)).zeta(s)
    want = sum((Fraction(m, d**s) for d, m in counts.items()), Fraction(0))
    assert abs(Fraction(got) - want) <= (s + 3) * Fraction(math.ulp(got))


@pytest.mark.parametrize("s", [1.05, 1.5, 2.0, 2.5, 3.0, 3.5, 3.99])
def test_the_a1_zeta_to_200000_is_within_an_ulp_of_mpmath_and_euler_maclaurin(a1_census, s):
    # each term n^(-s) rounds once, and the sum once more; an ascending float
    # loop over the same terms is 6468 ulps off at s = 3
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 30
    got = a1_census.zeta(s)
    exact = mp.zeta(s) - mp.zeta(s, a1_census.cap + 1)
    assert abs(mp.mpf(got) - exact) <= math.ulp(got)
    assert abs(got - _a1_zeta(a1_census.cap, s)) <= math.ulp(got)


@pytest.mark.parametrize("s", [-308.0, -309.0, float("nan"), float("-inf")])
def test_zeta_refuses_a_sum_that_is_not_a_finite_float(s):
    # at s = -308 the product 10**6 * 10.0**308 overflows to inf; at s = -309
    # the power itself raises OverflowError; a NaN s makes every term NaN
    census = DegreeCensus.from_counts({10: 10**6}, 10)
    message = f"zeta at s={s} is not finite: largest degree 10"
    with pytest.raises(ValueError, match=re.escape(message)):
        census.zeta(s)


def test_zeta_at_infinity_counts_the_degree_one_characters():
    assert DegreeCensus.from_counts({1: 3, 2: 5, 10: 10**6}, 10).zeta(float("inf")) == 3.0


@settings(max_examples=100, deadline=None)
@given(counts=degree_counts, s=st.integers(min_value=0, max_value=4))
def test_zeta_exact_is_the_fraction_sum(counts, s):
    want = sum((Fraction(m, d**s) for d, m in counts.items()), Fraction(0))
    assert DegreeCensus.from_counts(counts, max(counts)).zeta_exact(s) == want



def test_direct_construction_sets_the_running_totals():
    census = DegreeCensus(cap=10, degrees=(1, 3, 8), multiplicities=(2, 5, 1))
    assert [census.cumulative(n) for n in range(10)] == [0, 2, 2, 7, 7, 7, 7, 7, 8, 8]
    assert census.total_multiplicity() == 8
    assert census == DegreeCensus.from_counts({1: 2, 3: 5, 8: 1}, 10)


def test_from_counts_checks_every_entry_in_bulk():
    census = DegreeCensus.from_counts({np.int64(8): np.int32(1), 1: 2, np.int32(3): 5}, 10)
    assert census == DegreeCensus.from_counts({1: 2, 3: 5, 8: 1}, 10)
    assert all(type(x) is int for x in census.degrees + census.multiplicities)
    assert DegreeCensus.from_counts({}, 3).degrees == ()
    for counts, message in (({1: 1, 4.0: 2}, "degree must be an integer, got 4.0"),
                            ({1: 1, 4: "2"}, "multiplicity must be an integer, got '2'"),
                            ({0: 1, 4: 2}, "degree 0 outside [1, 10]"),
                            ({1: 1, 11: 2}, "degree 11 outside [1, 10]"),
                            ({1: 1, 4: 0, 7: -1}, "multiplicity for degree 4 must be >= 1, got 0")):
        with pytest.raises(ValueError, match=re.escape(message)):
            DegreeCensus.from_counts(counts, 10)


def test_integers_names_the_first_value_that_is_not_an_integer():
    assert integers([np.int64(3), True, 7], "n") == [3, 1, 7]
    assert [type(x) for x in integers((np.int32(3), 4), "n")] == [int, int]
    with pytest.raises(ValueError, match=re.escape("n must be an integer, got 2.5")):
        integers([1, 2.5, "3"], "n")


table_columns = st.integers(min_value=1, max_value=6).flatmap(
    lambda width: st.lists(st.tuples(*[st.integers(min_value=-10**30, max_value=10**30)] * width),
                           max_size=50).map(lambda rows: (width, rows)))


@settings(max_examples=100, deadline=None)
@given(table=table_columns, chunk=st.integers(min_value=1, max_value=7))
def test_write_table_writes_the_bytes_of_csv_writer(tmp_path_factory, table, chunk):
    # integers only: on a bool %d writes 1 where csv.writer writes True
    width, rows = table
    header = [f"c{i}" for i in range(width)]
    folder = tmp_path_factory.mktemp("table")
    with open(folder / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    columns = tuple(zip(*rows)) if rows else ((),) * width
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census, "CHUNK", chunk)  # rows cross chunk boundaries
        write_table(folder / "table.csv", ",".join(header), columns)
    assert (folder / "table.csv").read_bytes() == (folder / "reference.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(counts=st.dictionaries(st.integers(min_value=1, max_value=10**25),
                              st.integers(min_value=1, max_value=10**6), max_size=40),
       chunk=st.integers(min_value=1, max_value=7))
def test_census_write_json_writes_the_bytes_of_json_dump(tmp_path_factory, counts, chunk):
    censused = DegreeCensus.from_counts(counts, max(counts, default=1))
    path = tmp_path_factory.mktemp("census") / "census.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census, "CHUNK", chunk)  # entries cross chunk boundaries
        censused.write_json(path)
    expected = json.dumps(censused.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()

"""The Dirichlet sums of a degree census: float and exact."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repzeta.census import DegreeCensus

degree_counts = st.dictionaries(
    st.integers(min_value=1, max_value=10**25), st.integers(min_value=1, max_value=10**6),
    min_size=1, max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(counts=degree_counts, s=st.floats(min_value=-3.0, max_value=4.0))
def test_zeta_is_the_ascending_loop_bit_for_bit(counts, s):
    total = 0.0
    for d, m in sorted(counts.items()):
        total += m * d ** (-s)
    assert DegreeCensus.from_counts(counts, max(counts)).zeta(s) == total


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

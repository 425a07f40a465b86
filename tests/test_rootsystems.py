"""Root system data, Weyl dimension arithmetic, and threshold chains."""

import math
import random
from fractions import Fraction

import pytest

from repzeta.rootsystems import (
    build_root_system,
    coroot_values,
    coxeter_number,
    log_dim_gap,
    positive_root_count,
    threshold_subsystem_chain,
    weyl_dim,
    witten_abscissa,
)

COXETER_TABLE = {
    ("A", 1): 2, ("A", 2): 3, ("A", 5): 6,
    ("B", 2): 4, ("B", 3): 6, ("C", 2): 4, ("C", 3): 6, ("C", 5): 10,
    ("D", 4): 6, ("D", 5): 8,
    ("G", 2): 6, ("F", 4): 12, ("E", 6): 12, ("E", 7): 18, ("E", 8): 30,
}

KAPPA_TABLE = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 5): 15,
    ("B", 2): 4, ("B", 3): 9, ("C", 2): 4, ("C", 3): 9, ("C", 5): 25,
    ("D", 4): 12, ("D", 5): 20,
    ("G", 2): 6, ("F", 4): 24, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
}


def test_coxeter_numbers_match_table():
    for (series, rank), h in COXETER_TABLE.items():
        assert coxeter_number(series, rank) == h


def test_positive_root_counts_match_table():
    for (series, rank), kappa in KAPPA_TABLE.items():
        assert positive_root_count(series, rank) == kappa
        rs = build_root_system(series, rank)
        assert rs.kappa == kappa
        assert len(rs.coroot_matrix) == kappa


def test_highest_coroot_height_is_coxeter_minus_one():
    for series, rank in COXETER_TABLE:
        rs = build_root_system(series, rank)
        heights = [sum(row) for row in rs.coroot_matrix]
        assert max(heights) == rs.coxeter - 1
        # the simple coroots themselves are present, at height 1
        assert heights.count(1) == rank


def test_abscissa_is_two_over_coxeter():
    for (series, rank), h in COXETER_TABLE.items():
        rs = build_root_system(series, rank)
        assert witten_abscissa(rs) == Fraction(2, h)
        assert witten_abscissa(rs) == Fraction(rank, rs.kappa)


def test_a1_dimensions():
    rs = build_root_system("A", 1)
    assert [weyl_dim(rs, (n,)) for n in range(6)] == [1, 2, 3, 4, 5, 6]


def test_a2_dimension_closed_form():
    rs = build_root_system("A", 2)
    for a in range(8):
        for b in range(8):
            expected, rem = divmod((a + 1) * (b + 1) * (a + b + 2), 2)
            assert rem == 0
            assert weyl_dim(rs, (a, b)) == expected


def _box_multiset(rs, oracle, box):
    """Compare dimension multisets over a box; immune to diagram orientation."""
    ours = sorted(
        weyl_dim(rs, coords)
        for coords in _box_points(rs.rank, box)
    )
    theirs = sorted(oracle(*coords) for coords in _box_points(rs.rank, box))
    return ours, theirs


def _box_points(rank, box):
    if rank == 2:
        return [(a, b) for a in range(box) for b in range(box)]
    if rank == 3:
        return [(a, b, c) for a in range(box) for b in range(box) for c in range(box)]
    raise ValueError(rank)


def test_c2_dimension_closed_form():
    # dim(a, b) = (a+1)(b+1)(a+b+2)(a+2b+3)/6 in one of the two orientations
    rs = build_root_system("C", 2)
    oracle = lambda a, b: (a + 1) * (b + 1) * (a + b + 2) * (a + 2 * b + 3) // 6
    ours, theirs = _box_multiset(rs, oracle, 7)
    assert ours == theirs


def test_g2_dimension_closed_form():
    rs = build_root_system("G", 2)
    oracle = lambda a, b: (
        (a + 1) * (b + 1) * (a + b + 2) * (a + 2 * b + 3)
        * (a + 3 * b + 4) * (2 * a + 3 * b + 5) // 120
    )
    ours, theirs = _box_multiset(rs, oracle, 6)
    assert ours == theirs
    assert sorted({weyl_dim(rs, (a, b)) for a in range(2) for b in range(2)})[:3] == [1, 7, 14]


def test_a3_dimension_closed_form():
    rs = build_root_system("A", 3)
    oracle = lambda a, b, c: (
        (a + 1) * (b + 1) * (c + 1) * (a + b + 2) * (b + c + 2) * (a + b + c + 3) // 12
    )
    ours, theirs = _box_multiset(rs, oracle, 5)
    assert ours == theirs


def test_weyl_dim_integrality_and_monotonicity_random():
    rng = random.Random(20260819)
    for series, rank in [("A", 1), ("A", 2), ("A", 3), ("C", 2), ("G", 2), ("B", 3), ("D", 4)]:
        rs = build_root_system(series, rank)
        for _ in range(50):
            w = tuple(rng.randrange(0, 30) for _ in range(rank))
            d = weyl_dim(rs, w)
            assert isinstance(d, int) and d >= 1
            for i in range(rank):
                bumped = w[:i] + (w[i] + 1,) + w[i + 1:]
                assert weyl_dim(rs, bumped) > d


def test_coroot_values_at_zero_are_heights():
    rs = build_root_system("A", 2)
    assert sorted(coroot_values(rs, (0, 0))) == [1, 1, 2]


def test_threshold_chain_structure():
    rs = build_root_system("A", 2)
    # at weight 0 every coroot value (1, 1, 2) is already below e
    assert threshold_subsystem_chain(rs, (0, 0)) == [(1, 3)]
    chain = threshold_subsystem_chain(rs, (100, 0))
    sizes = [size for _, size in chain]
    assert sizes[-1] == rs.kappa
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    # intermediate spans are proper subsystems for a very lopsided weight
    assert sizes[0] < rs.kappa


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4),
    ("E", 6),
])
def test_threshold_chain_sizes_match_an_independent_rank_count(series, rank):
    sympy = pytest.importorskip("sympy")
    rs = build_root_system(series, rank)
    rows = [list(row) for row in rs.coroot_matrix]
    rng = random.Random(rank)
    weights = [(0,) * rank, (200,) + (0,) * (rank - 1), (0,) * (rank - 1) + (30,)]
    weights += [tuple(rng.randrange(0, 60) for _ in range(rank)) for _ in range(2)]
    for weight in weights:
        values = coroot_values(rs, weight)
        chain = threshold_subsystem_chain(rs, weight)
        assert [j for j, _ in chain] == list(range(1, len(chain) + 1))
        for j, size in chain:
            members = [row for row, v in zip(rows, values) if v < math.exp(j)]
            others = [row for row, v in zip(rows, values) if v >= math.exp(j)]
            # a coroot lies in the span exactly when adding it keeps the rank
            span_rank = sympy.Matrix(members).rank() if members else 0
            joining = sum(1 for row in others if sympy.Matrix(members + [row]).rank() == span_rank)
            assert size == len(members) + joining
        assert chain[-1][1] == rs.kappa


def test_log_dim_gap_stays_bounded():
    rng = random.Random(7)
    for series in ("A", "C"):
        rs = build_root_system(series, 2)
        for _ in range(100):
            w = tuple(rng.randrange(0, 2000) for _ in range(2))
            assert log_dim_gap(rs, w) < 5.0


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        build_root_system("E", 9)
    with pytest.raises(ValueError):
        build_root_system("H", 2)
    with pytest.raises(ValueError):
        build_root_system("B", 1)
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        weyl_dim(rs, (1,))
    with pytest.raises(ValueError):
        weyl_dim(rs, (-1, 0))
    with pytest.raises(ValueError):
        weyl_dim(rs, (1.5, 0))

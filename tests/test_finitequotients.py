"""Brute-force SL2 censuses over finite quotient rings, both flavors."""

import ast
import csv
import hashlib
import io
import math
import pathlib
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repzeta.finitequotients as fq
from repzeta.cli import main
from repzeta.errors import BudgetExceededError
from repzeta.finitequotients import (
    QuotientRing,
    build_sl2_group,
    class_growth_exponents,
    conjugacy_classes,
    predicted_order,
)
from repzeta.sl2local import sl2_class_count

EXPECTED_COUNTS = {(3, 1): 7, (3, 2): 25, (5, 1): 9, (7, 1): 11}

# the modules that compute censuses and zeta values in closed form or from them
CLOSED_FORM_MODULES = {"sl2local", "census", "euler", "witten"}


def test_the_brute_force_imports_no_closed_form():
    # brute force checks the closed form, so it is never fed from it: no
    # import of finitequotients names one of those modules, however spelled
    names = set()
    for node in ast.walk(ast.parse(pathlib.Path(fq.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    assert not names & CLOSED_FORM_MODULES


@pytest.mark.parametrize("flavor", ["char0", "charp"])
@pytest.mark.parametrize("p,k", sorted(EXPECTED_COUNTS))
def test_orders_and_counts_both_flavors(flavor, p, k):
    ring = QuotientRing(p, k, flavor)
    group = build_sl2_group(ring)
    assert group.order == predicted_order(ring) == p ** (3 * k - 2) * (p * p - 1)
    classes = conjugacy_classes(group)
    assert classes.count == EXPECTED_COUNTS[(p, k)]
    assert sum(classes.sizes) == group.order


def test_level_two_at_five_both_flavors():
    counts = {}
    for flavor in ("char0", "charp"):
        group = build_sl2_group(QuotientRing(5, 2, flavor))
        assert group.order == 15_000
        counts[flavor] = conjugacy_classes(group).count
    assert counts == {"char0": 49, "charp": 49}


def test_identity_is_a_singleton_class():
    group = build_sl2_group(QuotientRing(3, 2, "char0"))
    classes = conjugacy_classes(group)
    one = (1, 0, 0, 1)
    idx = classes.representatives.index(one)
    assert classes.sizes[idx] == 1


# SHA-256 of the class CSV that `census sl2 --out` writes.  (3, 4), of order
# 472,392, is over the CLI budget; its digests were recorded while the orbit
# permutations still came from a binary search over sorted matrix codes.
LARGER_LEVEL_CSV_SHA256 = {
    (7, 2, "char0"): "5eafb6011c90558b3d4994187bad7f7c6da607cc8cc5427dab430a889c3a292e",
    (7, 2, "charp"): "8b10f3984762f7a88adb43ee642bfbcdf5565dc7f5dae68a7d1c77eac704fa6f",
    (3, 4, "char0"): "0709ff02473705e9bfd9f9df7c52286ad43af89cc1b1d33ff113bbba1bc8b347",
    (3, 4, "charp"): "388bcb40789f48d9bc337380904e99e0d5ea1a558190f573044c81a652a67a4a",
}


@pytest.mark.parametrize("p,k,flavor", list(LARGER_LEVEL_CSV_SHA256))
def test_larger_levels_match_the_closed_form(p, k, flavor):
    # The budget comes from the group order, not from sl2local, so the brute
    # force stays independent of the closed form it is checked against.
    ring = QuotientRing(p, k, flavor)
    group = build_sl2_group(ring, max_order=predicted_order(ring))
    classes = conjugacy_classes(group)
    assert classes.count == sl2_class_count(p, k) == {7: 81, 3: 241}[p]
    assert sum(classes.sizes) == group.order
    assert all(type(x) is int for rep in classes.representatives for x in rep)
    assert all(type(s) is int for s in classes.sizes)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["rep_a", "rep_b", "rep_c", "rep_d", "class_size"])
    for rep, size in zip(classes.representatives, classes.sizes):
        writer.writerow(list(rep) + [size])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == LARGER_LEVEL_CSV_SHA256[p, k, flavor]


@pytest.mark.parametrize("flavor", ["char0", "charp"])
def test_build_and_classes_peak_at_most_50_bytes_per_element(flavor):
    # The group keeps 24 bytes an element (two packed columns, three left
    # permutations, the inversion) and the classes add 12 (three
    # conjugations); a gather adds its result and an 8-byte intp copy of its
    # index while it runs.  Orbit labels gathered over the whole array read
    # 52.4, and 56.4 if they also held an image across the next gather.
    ring = QuotientRing(7, 2, flavor)
    tracemalloc.start()
    try:
        classes = conjugacy_classes(build_sl2_group(ring))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert classes.count == 81
    assert peak <= 50 * predicted_order(ring)


def _left_orbit_count(ring, generators):
    group = build_sl2_group(ring)
    left = [group.left_permutation(g) for g in generators]
    return len(set(fq._orbit_labels(left).tolist()))


def test_generation_certificate_counts_cosets():
    # The two classic elementaries generate SL2(Z/9) but over F_3[t]/(t^2)
    # only SL2(F_3), of index 648 / 24 = 27.
    for flavor, orbits in (("char0", 1), ("charp", 27)):
        ring = QuotientRing(3, 2, flavor)
        assert _left_orbit_count(ring, fq._elementaries(ring)[:2]) == orbits
        assert _left_orbit_count(ring, fq._elementaries(ring)) == 1


@pytest.mark.parametrize("flavor", ["char0", "charp"])
@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 2), (3, 3)])
def test_orbit_walk_counts_the_cosets_the_orbit_labels_count(flavor, p, k):
    # n / |H x0| against the number of left orbits, each labelled by its
    # least index.  The first two elementaries generate only SL2(F_p) over
    # F_p[t]/(t^k), of index p^(3k - 3).
    group = build_sl2_group(QuotientRing(p, k, flavor))
    for count, expected in ((None, 1), (2, p ** (3 * k - 3) if flavor == "charp" else 1)):
        left = [group.left_permutation(g) for g in group.generators[:count]]
        cosets = group.order // fq._orbit_size(left)
        assert cosets == len(set(fq._orbit_labels(left).tolist())) == expected


@pytest.mark.parametrize("flavor", ["char0", "charp"])
@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2), (5, 2)])
def test_orbit_walk_under_conjugation_is_the_class_of_index_zero(flavor, p, k):
    group = build_sl2_group(QuotientRing(p, k, flavor))
    classes = conjugacy_classes(group)
    # index 0 is the least element, so its class is listed first
    assert classes.representatives[0] == fq._tuples(col[:1] for col in group.cols)[0]
    assert fq._orbit_size(fq._conjugations(group)) == classes.sizes[0]


def _least_in_component(perms, n):
    """Least index of each element's component, by a plain union-find over
    the edges x -- perm[x], each union keeping the smaller root."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for x, y in enumerate(perm.tolist()):
            rx, ry = find(x), find(y)
            parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(n)]


def _cycle(order, n):
    """The permutation of range(n) that moves order[i] to order[i + 1] and fixes the rest."""
    perm = np.arange(n)
    perm[order] = np.roll(order, -1)
    return perm


@st.composite
def _permutation_sets(draw):
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perms = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "n-cycle", "partial cycle", "identity"]))
        order = rng.permutation(n)
        if kind == "random":
            perms.append(order)
        elif kind == "n-cycle":
            perms.append(_cycle(order, n))
        elif kind == "partial cycle":
            perms.append(_cycle(order[: draw(st.integers(1, n))], n))
        else:
            perms.append(np.arange(n))
    return perms


@settings(max_examples=200, deadline=None)
@given(perms=_permutation_sets())
@example(perms=[np.array([1, 0])])
@example(perms=[_cycle(np.arange(256), 256)])  # one round moves only the last label
@example(perms=[_cycle(np.arange(255, -1, -1), 256), np.arange(256)])
def test_orbit_labels_are_the_least_index_of_each_component(perms):
    labels = fq._orbit_labels(perms)
    assert labels.tolist() == _least_in_component(perms, len(perms[0]))


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("n", [1, 300, 1000])
def test_orbit_labels_in_blocks_are_the_least_index_of_each_component(monkeypatch, block, n):
    # blocks smaller than the permutations, so a block reads labels that
    # earlier blocks of the same round lowered
    monkeypatch.setattr(fq, "_BLOCK", block)
    rng = np.random.default_rng(n + block)
    perm_sets = [[rng.permutation(n)], [_cycle(rng.permutation(n)[: n // 2 + 1], n)],
                 [_cycle(np.arange(n - 1, -1, -1), n), np.arange(n)],
                 [_cycle(rng.permutation(n)[:3], n) for _ in range(3)]]
    for perms in perm_sets:
        assert fq._orbit_labels(perms).tolist() == _least_in_component(perms, n)


@pytest.mark.parametrize("flavor", ["char0", "charp"])
def test_orbit_labels_leave_their_permutations_unchanged(flavor):
    # the labels are lowered in place; the permutations they are read through are not
    group = build_sl2_group(QuotientRing(3, 2, flavor))
    perms = fq._conjugations(group)
    before = [perm.copy() for perm in perms]
    labels = fq._orbit_labels(perms)
    assert all(np.array_equal(perm, copy) for perm, copy in zip(perms, before))
    assert len(set(labels.tolist())) == conjugacy_classes(group).count == 25


def test_build_certifies_generation_without_labelling_orbits(monkeypatch):
    def refuse(perms):
        raise AssertionError("the build labelled every left orbit")

    monkeypatch.setattr(fq, "_orbit_labels", refuse)
    assert build_sl2_group(QuotientRing(3, 2, "charp")).order == 648


@pytest.mark.parametrize("flavor", ["char0", "charp"])
def test_orbit_labels_reject_an_image_outside_the_group(flavor, monkeypatch):
    ring = QuotientRing(3, 2, flavor)
    group = build_sl2_group(ring)
    u, v = group.packed
    a, b, c, d = group.cols
    # diag(2, 1) x has a valid pair (2a, 2b) and determinant 2; with a a
    # unit, the element at its index shares its first column (2a, c) and
    # differs only in d, so only the second column catches it.  diag(3, 1) x
    # has a and b nonunits, and its index lands on an element of another
    # pair.  No index is out of range.
    m = ring.size
    unit = a % 3 != 0
    image = tuple(fq._left_table(ring, (2, 0, 0, 1))[x[unit]] for x in (u, v))
    assert (ring.add(ring.mul(image[0] // m, image[1] % m),
                     ring.neg(ring.mul(image[1] // m, image[0] % m))) == 2).all()
    idx = group.index(*image)
    assert np.array_equal(u[idx], image[0]) and (v[idx] != image[1]).all()
    with pytest.raises(AssertionError, match=re.escape("x -> y maps some element outside the set")):
        group.locate(image, "x -> y")
    t = fq._left_table(ring, (3, 0, 0, 1))
    idx = group.index(t[u], t[v])
    assert (t[u] // m % 3 == 0).all() and (t[v] // m % 3 == 0).all()
    assert ((a[idx] != t[u] // m) | (b[idx] != t[v] // m)).all()
    for g in ((2, 0, 0, 1), (3, 0, 0, 1)):
        monkeypatch.setattr(fq, "_elementaries", lambda ring: (g,))
        with pytest.raises(AssertionError,
                           match=re.escape(f"x -> {g} x maps some element outside the set")):
            build_sl2_group(ring)


@pytest.mark.parametrize("flavor", ["char0", "charp"])
def test_a_packed_column_of_m_squared_or_more_raises_index_error(flavor):
    # The gathers check their bounds: a column past the index tables is an
    # IndexError, never clipped or wrapped onto some element.  (m, 1) is the
    # identity; with a = 1 a unit, v is read at m^2 + v of Q's 2 m^2 entries.
    ring = QuotientRing(3, 2, flavor)
    group = build_sl2_group(ring)
    m2 = ring.size**2
    assert group.index(np.array([ring.size]), np.array([1])).tolist() == [
        fq._tuples(group.cols).index((1, 0, 0, 1))]
    for image in ((m2, 1), (ring.size, m2), (m2 + 5, 1), (ring.size, 2 * m2)):
        image = tuple(np.array([x], dtype=np.int32) for x in image)
        with pytest.raises(IndexError):
            group.index(*image)
        with pytest.raises(IndexError):
            group.locate(image, "x -> y")


def test_build_rejects_generators_that_do_not_generate(monkeypatch):
    # The case the module docstring warns about: the classic pair alone over
    # the polynomial ring.  The enumeration is complete, but the build must
    # still refuse a generator set that does not generate.
    all_elementaries = fq._elementaries
    monkeypatch.setattr(fq, "_elementaries", lambda ring: all_elementaries(ring)[:2])
    with pytest.raises(AssertionError, match="27 left orbits"):
        build_sl2_group(QuotientRing(3, 2, "charp"))


def _matmul(ring, x, y):
    """x y for two matrix tuples, entry by entry with the ring's scalar tables."""
    return tuple(int(ring.add(ring.mul(x[2 * i], y[j]), ring.mul(x[2 * i + 1], y[2 + j])))
                 for i in (0, 1) for j in (0, 1))


def _index_of(group):
    """Index of a matrix tuple in the group's sorted table, read off all four entries."""
    return {x: i for i, x in enumerate(fq._tuples(group.cols))}.__getitem__


def _sl2_by_scan(ring):
    """Every solution of ad - bc = 1, found by scanning all four entries, as
    four entry columns ordered by (a, b, c if a is a unit else d)."""
    r = np.arange(ring.size, dtype=np.int32)
    b, c, d = (x.ravel() for x in np.meshgrid(r, r, r, indexing="ij"))
    found = []
    for a in range(ring.size):
        solves = ring.add(ring.mul(a, d), ring.neg(ring.mul(b, c))) == 1
        found.append((np.full(np.count_nonzero(solves), a, dtype=np.int32),
                      b[solves], c[solves], d[solves]))
    a, b, c, d = (np.concatenate(col) for col in zip(*found))
    order = np.lexsort((np.where(a % ring.p != 0, c, d), b, a))
    return tuple(col[order] for col in (a, b, c, d))


@pytest.mark.parametrize("flavor", ["char0", "charp"])
@pytest.mark.parametrize("p,k", [(3, 1), (43, 1), (5, 2)])
def test_index_inverts_the_enumeration(flavor, p, k):
    # The enumeration is SL2 in key order, and the closed-form index of its
    # i-th element is i.
    ring = QuotientRing(p, k, flavor)
    packed = fq._sl2_elements(ring)
    reference = _sl2_by_scan(ring)
    assert len(packed[0]) == predicted_order(ring)
    group = build_sl2_group(ring)
    assert all(np.array_equal(x, y) for x, y in zip(group.packed, packed))
    assert all(np.array_equal(col, ref) for col, ref in zip(group.cols, reference))
    index = group.index(*packed)
    assert index.dtype == np.int32
    assert np.array_equal(index, np.arange(predicted_order(ring)))


@pytest.mark.parametrize("flavor", ["char0", "charp"])
def test_group_keeps_its_sorted_table(flavor):
    ring = QuotientRing(3, 2, flavor)
    group = build_sl2_group(ring)
    m = ring.size
    a, b, c, d = (col.astype(np.int64) for col in group.cols)
    assert all(col.dtype == np.int32 for col in group.cols)
    keys = (a * m + b) * m + np.where(a % 3 != 0, c, d)
    assert (np.diff(keys) > 0).all()
    assert np.array_equal(group.index(*group.packed), np.arange(group.order))
    assert all(x.dtype == np.int32 for x in (*group.packed, *group.tables))
    assert group.order == len(set(fq._tuples(group.cols))) == 648
    assert all(perm.dtype == np.int32 for perm in (*group.left, group.inverse))
    assert len(build_sl2_group(QuotientRing(3, 1, flavor)).generators) == 2
    assert len(group.generators) == len(group.left) == 3
    index_of = _index_of(group)
    elements = fq._tuples(group.cols)
    for g, left in zip(group.generators, group.left):
        assert np.array_equal(np.sort(left), np.arange(group.order))
        assert left.tolist() == [index_of(_matmul(ring, g, x)) for x in elements]


def _random_elements(group, count, seed):
    idx = np.random.default_rng(seed).integers(group.order, size=count)
    return fq._tuples(col[idx] for col in group.cols)


@pytest.mark.parametrize("flavor", ["char0", "charp"])
@pytest.mark.parametrize("p,k", [(3, 2), (5, 1)])
def test_left_table_is_the_product_on_every_column_vector(flavor, p, k):
    ring = QuotientRing(p, k, flavor)
    group = build_sl2_group(ring)
    m = ring.size
    for g in group.generators + tuple(_random_elements(group, 4, seed=p * k)):
        table = fq._left_table(ring, g).tolist()
        assert len(table) == m * m
        for x in range(m):
            for y in range(m):
                first, _, second, _ = _matmul(ring, g, (x, 0, y, 0))
                assert table[x * m + y] == first * m + second


@pytest.mark.parametrize("flavor", ["char0", "charp"])
def test_left_permutations_by_random_elements_match_the_matrix_product(flavor):
    ring = QuotientRing(3, 2, flavor)
    group = build_sl2_group(ring)
    index_of = _index_of(group)
    elements = fq._tuples(group.cols)
    for g in _random_elements(group, 5, seed=32):
        left = group.left_permutation(g)
        assert left.dtype == np.int32
        assert left.tolist() == [index_of(_matmul(ring, g, x)) for x in elements]


def test_orders_of_two_to_the_31_are_refused_before_enumerating():
    # 11^7 (11^2 - 1) = 2,338,460,520 is within the budget but not int32
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="over the int32 index limit of 2147483647; "
                       "the largest level within it at p = 11 is k = 2"):
        build_sl2_group(QuotientRing(11, 3), max_order=10**10)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("flavor", ["char0", "charp"])
@pytest.mark.parametrize("p,k", [(3, 2), (5, 1)])
def test_composed_conjugations_match_the_matrix_product(flavor, p, k):
    # g x g^-1 computed entry by entry on tuples and looked up by all four entries,
    # against the permutations composed from the left and inversion ones.
    ring = QuotientRing(p, k, flavor)
    group = build_sl2_group(ring)
    index_of = _index_of(group)
    elements = fq._tuples(group.cols)
    conjugations = fq._conjugations(group)
    assert len(conjugations) == len(group.generators)
    for g, perm in zip(group.generators, conjugations):
        a, b, c, d = g
        g_inv = (d, int(ring.neg(b)), int(ring.neg(c)), a)
        assert _matmul(ring, g, g_inv) == (1, 0, 0, 1)
        assert perm.tolist() == [index_of(_matmul(ring, _matmul(ring, g, x), g_inv))
                                 for x in elements]


@pytest.mark.parametrize("p,k,flavor", [(3, 2, "char0"), (3, 2, "charp"), (5, 1, "char0"),
                                         (7, 1, "char0"), (5, 2, "charp"), (3, 3, "char0")])
def test_representatives_are_least_in_classes_closed_on_tuples(p, k, flavor):
    # An oracle apart from the key order: each class is closed under
    # conjugation by the generators with tuple products, and its members are
    # compared as tuples.  Ordering the unit-a elements by (a, b, d) instead
    # puts the representatives out of tuple order at (3, 3), not below it.
    ring = QuotientRing(p, k, flavor)
    group = build_sl2_group(ring)
    classes = conjugacy_classes(group)
    conjugators = [(g, (g[3], int(ring.neg(g[1])), int(ring.neg(g[2])), g[0]))
                   for g in group.generators]
    for rep, size in zip(classes.representatives, classes.sizes):
        members, todo = {rep}, [rep]
        while todo:
            x = todo.pop()
            for g, g_inv in conjugators:
                y = _matmul(ring, _matmul(ring, g, x), g_inv)
                if y not in members:
                    members.add(y)
                    todo.append(y)
        assert rep == min(members)
        assert size == len(members)
    reps = classes.representatives
    assert all(x < y for x, y in zip(reps, reps[1:]))


@pytest.mark.parametrize("flavor", ["char0", "charp"])
@pytest.mark.parametrize("p,k", [(3, 2), (5, 2)])
def test_inversion_is_an_involution_fixing_only_plus_minus_one(flavor, p, k):
    # x^2 = 1 with x in SL2 gives x = x^-1, so a = d and b = c = -b; with 2 a
    # unit, b = c = 0 and a^2 = 1, so x = +-1.
    ring = QuotientRing(p, k, flavor)
    group = build_sl2_group(ring)
    iota = group.inverse
    assert np.array_equal(iota[iota], np.arange(group.order))
    minus_one = int(ring.neg(1))
    fixed = np.flatnonzero(iota == np.arange(group.order))
    assert fq._tuples(col[fixed] for col in group.cols) == [(1, 0, 0, 1),
                                                            (minus_one, 0, 0, minus_one)]


def test_ring_flavor_determines_label_but_not_census():
    for p, k in ((3, 1), (3, 2)):
        a = QuotientRing(p, k, "char0")
        b = QuotientRing(p, k, "charp")
        assert a.label() != b.label()
        ca = conjugacy_classes(build_sl2_group(a))
        cb = conjugacy_classes(build_sl2_group(b))
        assert ca.count == cb.count
        assert sorted(ca.sizes) == sorted(cb.sizes)


def test_budget_error_names_predicted_order():
    ring = QuotientRing(3, 2, "char0")
    with pytest.raises(BudgetExceededError) as err:
        build_sl2_group(ring, max_order=100)
    assert "648" in str(err.value)


def test_budget_error_names_the_largest_level_within_it(capsys):
    assert main(["census", "sl2", "--p", "3", "--k", "4"]) == 2
    err = capsys.readouterr().err
    assert "order 472392" in err
    assert "the largest level within it at p = 3 is k = 3 (order 17496)" in err
    with pytest.raises(BudgetExceededError, match="no level at p = 3 is within it"):
        build_sl2_group(QuotientRing(3, 1, "char0"), max_order=23)


LEVEL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 2039, 2053, 10**14 + 31)
LEVEL_LIMITS = (*range(1, 3000), 200_000, 17_496, 472_392, 2**31 - 1)


def _largest_level_by_walk(fits):
    k = 0
    while fits(k + 1):
        k += 1
    return k


def _remedy(p, k, detail=""):
    if k:
        return f"the largest level within it at p = {p} is k = {k}{detail}"
    return f"no level at p = {p} is within it"


def _refusal(error, call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except error as exc:
        return str(exc)
    raise AssertionError(f"{call.__name__}{args} was not refused")


def test_both_level_bounds_match_a_plain_walk(monkeypatch):
    # a ring of any p at level 10 has an SL2 order above 2^31; only its p,
    # its k and its label are read before the budget refuses it
    ring = QuotientRing.__new__(QuotientRing)
    ring.k, ring.flavor = 10, "char0"
    for p in LEVEL_PRIMES:
        ring.p = p
        for limit in LEVEL_LIMITS:
            k = _largest_level_by_walk(lambda j: p ** (3 * j - 2) * (p * p - 1) <= limit)
            detail = f" (order {p ** (3 * k - 2) * (p * p - 1)})" if k else ""
            message = _refusal(BudgetExceededError, build_sl2_group, ring, max_order=limit)
            assert message.endswith(_remedy(p, k, detail)), message
            monkeypatch.setattr(fq, "_MAX_TABLE_SIZE", limit)
            k = _largest_level_by_walk(lambda j: p**j <= limit)
            message = _refusal(ValueError, QuotientRing, p, k + 1)
            assert message.endswith(f"the largest size allowed is {limit}; {_remedy(p, k)}")


def test_polynomial_ring_arithmetic_and_unit_inverses():
    p, k = 3, 3
    charp = QuotientRing(p, k, "charp")

    def digits(a):
        return [a // p**i % p for i in range(k)]

    def encode(ds):
        return sum(d * p**i for i, d in enumerate(ds))

    for a in range(p**k):
        da = digits(a)
        assert charp.neg(a) == encode([-x % p for x in da])
        for b in range(p**k):
            db = digits(b)
            assert charp.add(a, b) == encode([(x + y) % p for x, y in zip(da, db)])
            product = [sum(da[i] * db[n - i] for i in range(n + 1)) % p for n in range(k)]
            assert charp.mul(a, b) == encode(product)
    for ring in (charp, QuotientRing(p, k, "char0")):
        units = np.array([a for a in range(p**k) if a % p])
        assert (ring.mul(units, ring.inv(units)) == 1).all()


def test_ring_validation():
    with pytest.raises(ValueError):
        QuotientRing(2, 1, "char0")  # even residue characteristic
    for p in (6, 9, 1, -3):  # not prime; 9 is a prime power
        with pytest.raises(ValueError):
            QuotientRing(p, 1, "char0")
    with pytest.raises(ValueError):
        QuotientRing(3, 0, "char0")
    with pytest.raises(ValueError):
        QuotientRing(3, 1, "weird")


def test_ring_size_bound_keeps_int32_products_exact():
    # 3^6 = 729 <= 2048 < 3^7; 2053 is the least prime above the bound.  Table
    # indices a * size + b stay below 2048^2 < 2^31.
    last = np.array([728], dtype=np.int32)
    for flavor in ("char0", "charp"):
        ring = QuotientRing(3, 6, flavor)
        assert ring.add(last, last).dtype == np.int32
        assert ring.mul(last, ring.inv(last)).tolist() == [1]
        assert ring.add(last, ring.neg(last)).tolist() == [0]
        for p, k in ((3, 7), (2053, 1)):
            with pytest.raises(ValueError, match="largest size allowed is 2048"):
                QuotientRing(p, k, flavor)


@pytest.mark.parametrize("p,k,remedy", [
    (3, 7, "the largest level within it at p = 3 is k = 6"),
    (13, 3, "the largest level within it at p = 13 is k = 2"),
    # 3^(10^6) has more digits than int-to-str conversion allows
    (3, 10**6, "the largest level within it at p = 3 is k = 6"),
    # a prime: refused by its size, before it is tested
    (10**14 + 31, 1, "no level at p = 100000000000031 is within it"),
])
def test_ring_size_is_refused_before_p_is_factored_or_p_to_the_k_formed(p, k, remedy):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="largest size allowed is 2048") as exc:
        QuotientRing(p, k)
    assert time.perf_counter() - start < 0.1
    assert str(exc.value).endswith(remedy)


@pytest.mark.parametrize("p,k", [(3, 3), (5, 2)])
def test_integer_ring_tables_are_modular_arithmetic(p, k):
    ring = QuotientRing(p, k, "char0")
    m = p**k
    r = np.arange(m, dtype=np.int32)
    a, b = (x.ravel() for x in np.meshgrid(r, r, indexing="ij"))
    assert np.array_equal(ring.add(a, b), (a + b) % m)
    assert np.array_equal(ring.mul(a, b), a * b % m)


@pytest.mark.parametrize("flavor", ["char0", "charp"])
@pytest.mark.parametrize("p,k", [(3, 3), (5, 2), (7, 1)])
def test_negation_and_inverse_tables(flavor, p, k):
    ring = QuotientRing(p, k, flavor)
    r = np.arange(p**k, dtype=np.int32)
    assert (ring.add(r, ring.neg(r)) == 0).all()
    units = r[r % p != 0]
    assert (ring.mul(units, ring.inv(units)) == 1).all()
    assert ring.neg(0) == 0 and ring.inv(1) == 1


@pytest.mark.parametrize("flavor", ["char0", "charp"])
def test_ring_operations_return_int32_in_the_shape_of_their_input(flavor):
    ring = QuotientRing(5, 2, flavor)
    r = np.arange(ring.size, dtype=np.int32)
    grid = r.reshape(5, 5)
    for a in (7, r, grid):
        for value in (ring.add(a, 3), ring.mul(a, a), ring.neg(a), ring.inv(a)):
            assert value.dtype == np.int32 and value.shape == np.shape(a)
    assert np.array_equal(ring.add(grid, grid), ring.add(r, r).reshape(5, 5))
    assert np.array_equal(ring.mul(grid, 7), ring.mul(r, 7).reshape(5, 5))
    assert np.array_equal(ring.inv(grid), ring.inv(r).reshape(5, 5))
    assert [ring.neg(int(x)) for x in r] == ring.neg(r).tolist()
    assert [ring.add(int(x), 3) for x in r] == ring.add(r, 3).tolist()


def test_class_growth_exponents_q3():
    gammas = class_growth_exponents({1: 7, 2: 25, 3: 79}, 3)
    expected = [
        math.log(7) / math.log(3),
        math.log(25) / (2 * math.log(3)),
        math.log(79) / (3 * math.log(3)),
    ]
    assert gammas == pytest.approx(expected)
    assert gammas == pytest.approx([1.7712, 1.4650, 1.3257], abs=5e-4)
    assert all(a > b for a, b in zip(gammas, gammas[1:]))


def test_class_growth_exponents_q5():
    gammas = class_growth_exponents({1: 9, 2: 49}, 5)
    assert gammas == pytest.approx([1.3652, 1.2091], abs=5e-4)


def test_class_growth_exponents_validation():
    with pytest.raises(ValueError):
        class_growth_exponents({}, 3)
    with pytest.raises(ValueError):
        class_growth_exponents({1: 7}, 1)
    with pytest.raises(ValueError):
        class_growth_exponents({0: 7}, 3)
    with pytest.raises(ValueError):
        class_growth_exponents({1: 0}, 3)

"""Brute-force SL2 censuses over finite quotient rings, both flavors."""

import csv
import hashlib
import io
import math

import numpy as np
import pytest

import repzeta.finitequotients as fq
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
# 472,392, is over the CLI budget; its digests were recorded before the orbit
# permutations switched from a binary search to a dense key table.
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


def _left_orbit_count(ring, generators):
    _, cols = fq._sl2_elements(ring)
    labels = fq._orbit_labels(ring, cols, [(g, fq._IDENTITY) for g in generators])
    return len(set(labels.tolist()))


def test_generation_certificate_counts_cosets():
    # The two classic elementaries generate SL2(Z/9) but over F_3[t]/(t^2)
    # only SL2(F_3), of index 648 / 24 = 27.
    for flavor, orbits in (("char0", 1), ("charp", 27)):
        ring = QuotientRing(3, 2, flavor)
        assert _left_orbit_count(ring, fq._elementaries(ring)[:2]) == orbits
        assert _left_orbit_count(ring, fq._elementaries(ring)) == 1


@pytest.mark.parametrize("flavor", ["char0", "charp"])
def test_orbit_labels_reject_an_image_outside_the_group(flavor):
    ring = QuotientRing(3, 2, flavor)
    _, cols = fq._sl2_elements(ring)
    keys = set(fq._keys(ring, cols).tolist())

    def image_keys(g):
        return set(fq._keys(ring, fq._image(ring, g, fq._IDENTITY, cols)).tolist())

    # diag(2, 1) x has determinant 2, yet every image's key is some element's
    # key, so only comparing all four entries catches it; diag(3, 1) x has a
    # and b nonunits, a key that no element has.
    assert image_keys((2, 0, 0, 1)) <= keys
    assert not image_keys((3, 0, 0, 1)) & keys
    for g in ((2, 0, 0, 1), (3, 0, 0, 1)):
        with pytest.raises(AssertionError, match="maps some element outside the set"):
            fq._orbit_labels(ring, cols, [(g, fq._IDENTITY)])


def test_build_rejects_generators_that_do_not_generate(monkeypatch):
    # The case the module docstring warns about: the classic pair alone over
    # the polynomial ring.  The enumeration is complete, but the build must
    # still refuse a generator set that does not generate.
    all_elementaries = fq._elementaries
    monkeypatch.setattr(fq, "_elementaries", lambda ring: all_elementaries(ring)[:2])
    with pytest.raises(AssertionError, match="27 left orbits"):
        build_sl2_group(QuotientRing(3, 2, "charp"))


@pytest.mark.parametrize("flavor", ["char0", "charp"])
def test_group_keeps_its_sorted_table(flavor):
    ring = QuotientRing(3, 2, flavor)
    group = build_sl2_group(ring)
    m = ring.size
    a, b, c, d = (col.astype(np.int64) for col in group.cols)
    assert all(col.dtype == np.int32 for col in group.cols)
    assert group.codes.dtype == np.int64
    assert (np.diff(group.codes) > 0).all()
    assert np.array_equal(group.codes, ((a * m + b) * m + c) * m + d)
    assert group.order == len(group.codes) == 648


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

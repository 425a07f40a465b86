"""Brute-force SL2 censuses over finite quotient rings, both flavors."""

import math
import random

import numpy as np
import pytest

import repzeta.finitequotients as fq
from repzeta.errors import BudgetExceededError
from repzeta.finitequotients import (
    FiniteMatrixGroup,
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


@pytest.mark.parametrize("p,k,flavor", [(7, 2, "char0"), (7, 2, "charp"), (3, 4, "charp")])
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


def _left_orbit_count(ring, generators):
    codes, cols = fq._sl2_elements(ring)
    labels = fq._orbit_labels(ring, codes, cols, [(g, fq._IDENTITY) for g in generators])
    return len(set(labels.tolist()))


def test_generation_certificate_counts_cosets():
    # The two classic elementaries generate SL2(Z/9) but over F_3[t]/(t^2)
    # only SL2(F_3), of index 648 / 24 = 27.
    for flavor, orbits in (("char0", 1), ("charp", 27)):
        ring = QuotientRing(3, 2, flavor)
        assert _left_orbit_count(ring, fq._elementaries(ring)[:2]) == orbits
        assert _left_orbit_count(ring, fq._elementaries(ring)) == 1


def test_build_rejects_generators_that_do_not_generate(monkeypatch):
    # The case the module docstring warns about: the classic pair alone over
    # the polynomial ring.  The enumeration is complete, but the build must
    # still refuse a generator set that does not generate.
    all_elementaries = fq._elementaries
    monkeypatch.setattr(fq, "_elementaries", lambda ring: all_elementaries(ring)[:2])
    with pytest.raises(AssertionError, match="27 left orbits"):
        build_sl2_group(QuotientRing(3, 2, "charp"))


def test_element_order_invariance():
    ring = QuotientRing(3, 2, "charp")
    group = build_sl2_group(ring)
    baseline = conjugacy_classes(group)
    shuffled = list(group.elements)
    random.Random(11).shuffle(shuffled)
    regrouped = FiniteMatrixGroup(ring=ring, generators=group.generators,
                                  elements=tuple(shuffled))
    reshuffled = conjugacy_classes(regrouped)
    assert reshuffled.count == baseline.count
    assert sorted(reshuffled.sizes) == sorted(baseline.sizes)
    assert reshuffled == baseline


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
    # 46340^2 < 2^31 - 1 < 46341^2; 46337 is the largest prime below the bound
    ring = QuotientRing(46337, 1, "char0")
    a = np.array([46336, 2, 23169], dtype=np.int32)
    assert ring.mul(a, a).tolist() == [1, 4, 23169 * 23169 % 46337]
    assert ring.inv(a[:1]).tolist() == [46336]
    for p, k in ((46349, 1), (3, 10)):
        with pytest.raises(ValueError, match="largest size allowed is 46340"):
            QuotientRing(p, k, "char0")


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

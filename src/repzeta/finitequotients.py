"""Brute-force SL2 over finite local rings: enumeration and conjugacy counts.

Two ring flavors with the same residue field F_p: integers mod p^k and
truncated polynomials F_p[t]/(t^k).  Elements are encoded as integers in
[0, p^k): the residue itself in the first case, the base-p digit string of
the polynomial in the second (so the uniformizer power pi^j encodes as p^j
in both, and a is a unit exactly when a % p != 0).  Either ring is its
addition and multiplication tables over the encoded elements; only filling
them depends on the flavor.

A matrix (a, b, c, d) of SL2 has the key (a m + b) m + (c if a is a unit
else d), m = p^k: (a, b, c) fixes d = a^-1 (1 + bc) when a is a unit, and
(a, b, d) fixes c when it is not, as b is then a unit.  So the pairs (a, b)
not both nonunits, times a free third entry, are the m^3 (1 - 1/p^2) = |SL2|
keys, enumerated in order.  An element's index is its key less m for each of
the ceil(a/p) m/p + [p | a] ceil(b/p) nonunit pairs below (a, b).  A build
raises unless the elements solve ad - bc = 1, number the predicted order and
have the indices 0, 1, ..., n - 1 (so they are distinct).  Left
multiplication by each generator g acts on them as an index permutation L_g.
The generators generate the group exactly when the orbit H x0 of one element
x0 under the L_g, H the subgroup they generate, is all of it: every left
coset has |H| elements, so n / |H x0| counts the cosets, and it must be 1.
That certifies the generator set on every build.

The generators are E12(1), E21(1) and E12(pi), the last one dropped at k = 1.
The first two generate SL2(F_p) mod pi (over F_p[t]/(t^k) they generate no
more than that).  For p odd the conjugates of E12(pi) under SL2(F_p) span the
first layer of the congruence filtration, I + pi X with X in sl2(F_p), and a
commutator of I + pi X with I + pi^j Y is I + pi^(j+1) [X, Y] modulo
pi^(j+2); since 2 is a unit, [sl2, sl2] = sl2, so the three generators reach
every layer and hence the whole group.

Conjugation by g is composed from permutations that were each checked:
g x g^-1 = L_g(iota(L_g(iota(x)))), where iota is the inversion
x -> (d, -b, -c, a), indexed the same way, so its permutation is
L_g[iota[L_g[iota]]], three gathers.  The orbits of these permutations,
their connected components, are the conjugacy classes, each represented by
its least index.

That element is also the class's lexicographically least.  A class that is
not scalar mod p holds an element with a = 0: a cyclic vector of x, lifted
by Nakayama's lemma, conjugates x in GL2 to (0, -1; 1, t), and conjugating
that by diag(1, u^-1), u the conjugator's determinant, keeps a = 0 and
brings the conjugator into SL2.  In a class that is scalar mod p, every a
is +-1 mod p, a unit.  With a = 0, c = -b^-1 is fixed by b; with a a unit,
d is fixed by (a, b, c).  So on every element that can be least in its
class, key order is lexicographic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import BudgetExceededError, integer
from .numtheory import prime_power

DEFAULT_GROUP_BUDGET = 200_000
_MAX_TABLE_SIZE = 2048  # the size*size operation tables, and their int32 indices

Matrix = tuple[int, int, int, int]


class QuotientRing:
    """Finite local ring of size p^k: Z/p^k ("char0") or F_p[t]/t^k ("charp").

    Arguments are encoded elements in [0, p^k), as ints or int32 arrays.
    `mul` and `add` read the flattened operation tables at a * size + b;
    `neg` and `inv` read tables taken off add == 0 and mul == 1 (inv gives 0
    at a nonunit).
    """

    def __init__(self, p: int, k: int, flavor: str = "char0"):
        if flavor not in ("char0", "charp"):
            raise ValueError(f"flavor must be 'char0' or 'charp', got {flavor!r}")
        p, k = integer(p, "p"), integer(k, "k", 1)
        if p < 3 or p % 2 == 0:
            raise ValueError(f"p must be an odd prime, got {p}")
        k_max = 0  # decided before factoring p or forming p^k, whose costs grow with p and k
        while p ** (k_max + 1) <= _MAX_TABLE_SIZE:
            k_max += 1
        if k > k_max:
            remedy = (f"the largest level within it at p = {p} is k = {k_max}" if k_max else
                      f"no level at p = {p} is within it")
            raise ValueError(f"ring size p^k = {p}^{k} needs operation tables of that size "
                             f"squared; the largest size allowed is {_MAX_TABLE_SIZE}; {remedy}")
        if prime_power(p) != (p, 1):
            raise ValueError(f"p must be an odd prime, got {p}")
        size = p**k
        self.p = p
        self.k = k
        self.flavor = flavor
        self.size = size
        add, mul = _tables(p, k, flavor)
        self._neg = np.argmax(add == 0, axis=1).astype(np.int32)
        self._inv = np.argmax(mul == 1, axis=1).astype(np.int32)
        self._add = add.ravel()
        self._mul = mul.ravel()

    def add(self, a, b):
        return self._add[a * self.size + b]

    def mul(self, a, b):
        return self._mul[a * self.size + b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        return self._inv[a]

    def label(self) -> str:
        if self.flavor == "char0":
            return f"Z/{self.p}^{self.k}"
        return f"F_{self.p}[t]/(t^{self.k})"


def _tables(p: int, k: int, flavor: str):
    """Addition and multiplication tables of the ring, over encoded elements.

    Z/p^k works mod p^k; F_p[t]/(t^k) works digit by digit, mod p, and
    multiplies by convolving the digit strings.
    """
    r = np.arange(p**k, dtype=np.int32)
    if flavor == "char0":
        return np.add.outer(r, r) % r.size, np.multiply.outer(r, r) % r.size
    digits = [r // p**i % p for i in range(k)]
    add = np.zeros((r.size, r.size), dtype=np.int32)
    mul = np.zeros_like(add)
    for n in range(k):
        add += np.add.outer(digits[n], digits[n]) % p * p**n
        conv = sum(np.multiply.outer(digits[i], digits[n - i]) for i in range(n + 1))
        mul += conv % p * p**n
    return add, mul


def predicted_order(ring: QuotientRing) -> int:
    """|SL2| over the ring: p^(3k-2) (p^2 - 1)."""
    return _sl2_order(ring.p, ring.k)


def _sl2_order(p: int, k: int) -> int:
    return p ** (3 * k - 2) * (p * p - 1)


@dataclass
class FiniteMatrixGroup:
    """SL2 over a ring as its table: the four int32 entry columns (a, b, c, d),
    in key order, so an element's row is its index.  `left[i]` is the
    certified int32 index permutation x -> generators[i] x, and `inverse`
    the one of x -> x^-1."""

    ring: QuotientRing
    generators: tuple[Matrix, ...]
    cols: tuple[np.ndarray, ...] = field(repr=False)
    left: tuple[np.ndarray, ...] = field(repr=False)
    inverse: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.cols[0])


def build_sl2_group(ring: QuotientRing, *, max_order: int = DEFAULT_GROUP_BUDGET) -> FiniteMatrixGroup:
    """Enumerate SL2 over the ring and certify its elementary generators.

    The elements are the solutions of ad - bc = 1, enumerated in key order
    as their entry columns.  The build raises unless they number exactly the
    predicted order and are distinct, which certifies completeness.  The
    generators are E12(1), E21(1) and, when k > 1, E12(pi); left
    multiplication by them must map the elements onto themselves, and the
    orbit of the element at index 0 under it must be the whole group: the
    n / |H x0| left cosets of the subgroup H they generate must be one, which
    certifies that they generate the group.  Each image's index, in those and
    in the inversion permutation, is read off its entries.
    """
    max_order = integer(max_order, "max_order", 1)
    order = predicted_order(ring)
    if order > max_order:
        k = 0
        while _sl2_order(ring.p, k + 1) <= max_order:
            k += 1
        remedy = (f"the largest level within it at p = {ring.p} is k = {k} "
                  f"(order {_sl2_order(ring.p, k)})" if k else
                  f"no level at p = {ring.p} is within it")
        raise BudgetExceededError(
            f"SL2 over {ring.label()} has order {order}, over the budget of {max_order}; {remedy}"
        )
    cols = _sl2_elements(ring)
    if len(cols[0]) != order:
        raise AssertionError(
            f"enumeration over {ring.label()} found {len(cols[0])} elements, expected {order}"
        )
    gens = _elementaries(ring)
    # each image is a call argument, so its columns are freed before the next is built
    left = tuple(_permutation(ring, cols, _image(ring, g, cols), f"x -> {g} x") for g in gens)
    a, b, c, d = cols
    inverse = _permutation(ring, cols, (d, ring.neg(b), ring.neg(c), a), "x -> x^-1")
    cosets = order // _orbit_size(left)
    if cosets != 1:
        raise AssertionError(
            f"the {len(gens)} elementaries over {ring.label()} leave {cosets} left orbits, "
            "so they do not generate SL2"
        )
    return FiniteMatrixGroup(ring=ring, generators=gens, cols=cols, left=left, inverse=inverse)


@dataclass(frozen=True)
class ConjugacyClasses:
    """Conjugacy partition: lexicographically least representatives, sorted."""

    representatives: tuple[Matrix, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.representatives)


def conjugacy_classes(group: FiniteMatrixGroup) -> ConjugacyClasses:
    """Partition the group into conjugacy classes.

    The classes are the orbits of conjugation by the group's generators on
    its table.  Each class is represented by its least index, which
    is its lexicographically least element (see the module docstring), and
    the classes are listed in the order of their representatives.
    """
    labels = _orbit_labels(_conjugations(group))
    roots, sizes = np.unique(labels, return_counts=True)
    return ConjugacyClasses(representatives=tuple(_tuples(col[roots] for col in group.cols)),
                            sizes=tuple(sizes.tolist()))


def _elementaries(ring: QuotientRing) -> tuple[Matrix, ...]:
    gens: tuple[Matrix, ...] = ((1, 1, 0, 1), (1, 0, 1, 1))
    if ring.k > 1:
        gens += ((1, ring.p, 0, 1),)  # E12(pi): pi encodes as p in either flavor
    return gens


def _sl2_elements(ring: QuotientRing):
    """Every solution of ad - bc = 1, as four entry columns in key order.

    The pairs (a, b) that are not both nonunits, in order, each with t over
    the ring.  With a a unit, c = t and d = a^-1 (1 + bc); with a a nonunit,
    b is a unit, d = t and c = b^-1 (ad - 1).
    """
    r = np.arange(ring.size, dtype=np.int32)
    a, b = (x.ravel() for x in np.meshgrid(r, r, indexing="ij"))
    pairs = (a % ring.p != 0) | (b % ring.p != 0)
    a, b = (np.repeat(x[pairs], ring.size) for x in (a, b))
    t = np.tile(r, np.count_nonzero(pairs))
    unit = a % ring.p != 0
    c = np.where(unit, t, ring.mul(ring.inv(b), ring.add(ring.mul(a, t), ring.neg(1))))
    d = np.where(unit, ring.mul(ring.inv(a), ring.add(1, ring.mul(b, t))), t)
    if not np.all(ring.add(ring.mul(a, d), ring.neg(ring.mul(b, c))) == 1):
        raise AssertionError(f"enumeration over {ring.label()} produced ad - bc != 1")
    if not np.array_equal(_index(ring, (a, b, c, d)), np.arange(len(a))):
        raise AssertionError(f"enumeration over {ring.label()} is not in index order")
    return a, b, c, d


def _tuples(cols) -> list[Matrix]:
    return list(zip(*(col.tolist() for col in cols)))


def _image(ring: QuotientRing, g: Matrix, cols):
    """Entry columns of g x for every x: entry (i, j) is g_i0 x_0j + g_i1 x_1j."""
    image = []
    for i in (0, 1):
        for j in (0, 1):
            pairs = ((g[2 * i + k], cols[2 * k + j]) for k in (0, 1))
            terms = (x if c == 1 else ring.mul(c, x) for c, x in pairs if c)
            image.append(reduce(ring.add, terms))
    return image


def _index(ring: QuotientRing, cols):
    """Index in the enumeration, as int64, of each element given as four entry
    columns: its key less m = p^k for each pair of nonunits below (a, b) (see
    the module docstring).  Off SL2 it may be out of range or another's."""
    a, b, c, d = cols
    p, m = ring.p, ring.size
    unit = a % p != 0
    index = a.astype(np.int64) * m + b
    index -= (a + p - 1) // p * (m // p) + np.where(unit, 0, (b + p - 1) // p)
    index *= m
    index += np.where(unit, c, d)
    return index


def _conjugations(group: FiniteMatrixGroup) -> list[np.ndarray]:
    """Index of g x g^-1 for every element x, one permutation per generator g,
    composed as L_g[iota[L_g[iota]]] from g x g^-1 = L_g(iota(L_g(iota(x))))."""
    iota = group.inverse
    return [left[iota[left[iota]]] for left in group.left]


def _orbit_labels(perms):
    """Least index in each element's orbit under the index permutations `perms`.

    The orbits are the connected components of the permutations.  Each round
    takes the minimum of every label and its image's label along each
    permutation, then jumps once, labels[labels]; the loop stops at the
    first round that changes nothing.  Labels only fall, labels[x] <= x, and
    each label is always a member of its element's orbit.  A round that
    changes nothing leaves labels[x] <= labels[perm[x]] for every x and every
    permutation; walking round a cycle of a permutation, those inequalities
    force equality, so the label is constant on each orbit.  A member of the
    orbit that is at most every member is the least index.
    """
    labels = np.arange(len(perms[0]), dtype=np.int32)
    while True:
        previous = labels
        for perm in perms:
            labels = np.minimum(labels, labels[perm])
        labels = labels[labels]
        if np.array_equal(labels, previous):
            return labels


def _orbit_size(perms) -> int:
    """Size of the orbit of index 0 under the index permutations `perms`.

    A walk out from index 0: each level maps the indices first reached on
    the level before through every permutation, and the walk stops at a
    level that reaches nothing new, so each element's images are gathered
    once.  Forward images suffice, since a permutation's inverse is one of
    its powers.
    """
    reached = np.zeros(len(perms[0]), dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        new = reached.copy()
        for perm in perms:
            new[perm[frontier]] = True
        frontier = np.flatnonzero(new ^ reached)
        reached = new
    return int(np.count_nonzero(reached))


def _permutation(ring: QuotientRing, cols, image, name: str):
    """Index, as int32, of each image element, given as four entry columns,
    among the group's elements `cols`.

    An image whose index is out of range, or whose four entries differ from
    those of the element at its index, raises; the second test catches an
    image off SL2, whose index may be an element's.
    """
    n = len(cols[0])
    idx = _index(ring, image)
    found = (idx < n).all() and all(np.array_equal(col[idx], x) for col, x in zip(cols, image))
    if not found:
        raise AssertionError(f"{name} maps some element outside the set")
    return idx.astype(np.int32)


def class_growth_exponents(counts: dict[int, int], q: int) -> list[float]:
    """log_q of the class count at level k, divided by k, in level order.

    This is the finite-level estimate of the conjugacy growth exponent; for
    SL2 it decreases toward 1 as the level grows.
    """
    if not counts:
        raise ValueError("need class counts for at least one level")
    q = integer(q, "q", 2)
    out = []
    for k in sorted([integer(k, "level") for k in counts]):
        n = integer(counts[k], "class count")
        if k < 1 or n < 1:
            raise ValueError(f"invalid level/count pair ({k}, {n})")
        out.append(math.log(n) / (k * math.log(q)))
    return out

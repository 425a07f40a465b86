"""Brute-force SL2 over finite local rings: enumeration and conjugacy counts.

Two ring flavors with the same residue field F_p: integers mod p^k and
truncated polynomials F_p[t]/(t^k).  Elements are encoded as integers in
[0, p^k): the residue itself in the first case, the base-p digit string of
the polynomial in the second (so the uniformizer power pi^j encodes as p^j
in both, and a is a unit exactly when a % p != 0).  A matrix (a, b, c, d)
encodes as ((a m + b) m + c) m + d with m = p^k, so sorting codes sorts
matrices lexicographically.

The group is enumerated directly as the solutions of ad - bc = 1, and a
build raises unless they number exactly the predicted order, all distinct.
Each generator then acts on the sorted elements as an index permutation,
and one orbit routine takes the connected components of such permutations.
Under left multiplication there must be exactly one component, which
certifies the generator set: one pair of elementaries per uniformizer power
is needed, since over the polynomial ring the two classic elementaries only
generate the subgroup defined over the prime field.  Under conjugation the
components are the conjugacy classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import BudgetExceededError
from .numtheory import prime_power

DEFAULT_GROUP_BUDGET = 200_000
_MAX_TABLE_SIZE = 2048  # polynomial flavor builds size*size op tables
# entries are int32 and so are their products: size^2 must stay below 2^31
_MAX_RING_SIZE = math.isqrt(np.iinfo(np.int32).max)

Matrix = tuple[int, int, int, int]
_IDENTITY: Matrix = (1, 0, 0, 1)


class QuotientRing:
    """Finite local ring of size p^k: Z/p^k ("char0") or F_p[t]/t^k ("charp").

    `mul`, `add` and `neg` act elementwise on encoded numpy arrays or ints.
    """

    def __init__(self, p: int, k: int, flavor: str = "char0"):
        if flavor not in ("char0", "charp"):
            raise ValueError(f"flavor must be 'char0' or 'charp', got {flavor!r}")
        if p % 2 == 0 or prime_power(p) != (p, 1):
            raise ValueError(f"p must be an odd prime, got {p}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        size = p**k
        if size > _MAX_RING_SIZE:
            raise ValueError(f"ring size p^k = {size} overflows int32 entry products; "
                             f"the largest size allowed is {_MAX_RING_SIZE}")
        self.p = p
        self.k = k
        self.flavor = flavor
        self.size = size
        self.zero = 0
        self.one = 1
        if flavor == "char0":
            self.mul = lambda a, b: a * b % size
            self.add = lambda a, b: (a + b) % size
            self.neg = lambda a: -a % size
        else:
            if size > _MAX_TABLE_SIZE:
                raise ValueError(
                    f"polynomial flavor builds {size}x{size} operation tables; "
                    f"size bound is {_MAX_TABLE_SIZE}"
                )
            mul, add, neg = _polynomial_tables(p, k)
            self.mul = lambda a, b: mul[a, b]
            self.add = lambda a, b: add[a, b]
            self.neg = lambda a: neg[a]

    def inv(self, a):
        """Inverse of each unit in a: a^(|R^x| - 1), where |R^x| = p^(k-1)(p-1)."""
        e = self.p ** (self.k - 1) * (self.p - 1) - 1
        out = np.ones_like(a)
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def label(self) -> str:
        if self.flavor == "char0":
            return f"Z/{self.p}^{self.k}"
        return f"F_{self.p}[t]/(t^{self.k})"


def _polynomial_tables(p: int, k: int):
    """Addition, multiplication and negation tables of F_p[t]/(t^k), encoded."""
    r = np.arange(p**k, dtype=np.int32)
    digits = [r // p**i % p for i in range(k)]
    add = np.zeros((r.size, r.size), dtype=np.int32)
    mul = np.zeros_like(add)
    for n in range(k):
        add += np.add.outer(digits[n], digits[n]) % p * p**n
        conv = sum(np.multiply.outer(digits[i], digits[n - i]) for i in range(n + 1))
        mul += conv % p * p**n
    neg = sum(-digits[n] % p * p**n for n in range(k))
    return mul, add, neg


def predicted_order(ring: QuotientRing) -> int:
    """|SL2| over the ring: p^(3k-2) (p^2 - 1)."""
    p, k = ring.p, ring.k
    return p ** (3 * k - 2) * (p * p - 1)


@dataclass
class FiniteMatrixGroup:
    ring: QuotientRing
    generators: tuple[Matrix, ...]
    elements: np.ndarray = field(repr=False)  # int32 rows (a, b, c, d), shape (order, 4)

    @property
    def order(self) -> int:
        return len(self.elements)


def build_sl2_group(ring: QuotientRing, *, max_order: int = DEFAULT_GROUP_BUDGET) -> FiniteMatrixGroup:
    """Enumerate SL2 over the ring and certify its elementary generators.

    The elements are the solutions of ad - bc = 1, sorted lexicographically,
    as the rows of an int32 array.
    The build raises unless they number exactly the predicted order and are
    distinct, which certifies completeness.  Generators are the upper/lower
    elementaries with every uniformizer power as off-diagonal entry; left
    multiplication by them must map the elements onto themselves and leave
    one orbit, which certifies that they generate the group.
    """
    order = predicted_order(ring)
    if order > max_order:
        raise BudgetExceededError(
            f"SL2 over {ring.label()} has order {order}, over the budget of {max_order}"
        )
    codes, cols = _sl2_elements(ring)
    if len(codes) != order:
        raise AssertionError(
            f"enumeration over {ring.label()} found {len(codes)} elements, expected {order}"
        )
    gens = _elementaries(ring)
    labels = _orbit_labels(ring, codes, cols, [(g, _IDENTITY) for g in gens])
    cosets = np.unique(labels).size
    if cosets != 1:
        raise AssertionError(
            f"the {len(gens)} elementaries over {ring.label()} leave {cosets} left orbits, "
            "so they do not generate SL2"
        )
    return FiniteMatrixGroup(ring=ring, generators=gens, elements=np.stack(cols, axis=1))


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

    The classes are the orbits of conjugation by the group's generators; the
    elements may come in any order.  Each class is represented by its
    lexicographically least element, and the classes are listed in the order
    of their representatives.
    """
    ring = group.ring
    codes, cols = _sort_by_code(ring, np.asarray(group.elements, dtype=np.int32).T)
    labels = _orbit_labels(ring, codes, cols, [(g, _inverse(ring, g)) for g in group.generators])
    roots, sizes = np.unique(labels, return_counts=True)
    return ConjugacyClasses(representatives=tuple(_tuples(col[roots] for col in cols)),
                            sizes=tuple(sizes.tolist()))


def _elementaries(ring: QuotientRing) -> tuple[Matrix, ...]:
    gens: list[Matrix] = []
    for j in range(ring.k):
        u = ring.p**j  # pi^j, in either flavor
        gens.append((ring.one, u, ring.zero, ring.one))
        gens.append((ring.one, ring.zero, u, ring.one))
    return tuple(gens)


def _sl2_elements(ring: QuotientRing):
    """Every solution of ad - bc = 1, as sorted codes and four entry columns.

    With a a unit, b and c are free and d = a^-1 (1 + bc).  With a a nonunit,
    b must be a unit, d is free and c = b^-1 (ad - 1).
    """
    r = np.arange(ring.size, dtype=np.int32)
    units, nonunits = r[r % ring.p != 0], r[r % ring.p == 0]
    a1, b1, c1 = (x.ravel() for x in np.meshgrid(units, r, r, indexing="ij"))
    d1 = ring.mul(ring.inv(a1), ring.add(ring.one, ring.mul(b1, c1)))
    a2, b2, d2 = (x.ravel() for x in np.meshgrid(nonunits, units, r, indexing="ij"))
    c2 = ring.mul(ring.inv(b2), ring.add(ring.mul(a2, d2), ring.neg(ring.one)))
    cols = tuple(np.concatenate(pair) for pair in ((a1, a2), (b1, b2), (c1, c2), (d1, d2)))
    a, b, c, d = cols
    if not np.all(ring.add(ring.mul(a, d), ring.neg(ring.mul(b, c))) == ring.one):
        raise AssertionError(f"enumeration over {ring.label()} produced ad - bc != 1")
    return _sort_by_code(ring, cols)


def _sort_by_code(ring: QuotientRing, cols):
    """Sort matrices by code; raise on a duplicate."""
    codes = _image_codes(ring, _IDENTITY, _IDENTITY, cols)
    by_code = np.argsort(codes)
    codes = codes[by_code]
    if np.any(codes[1:] == codes[:-1]):
        raise AssertionError("the matrices are not distinct")
    return codes, tuple(col[by_code] for col in cols)


def _tuples(cols) -> list[Matrix]:
    return list(zip(*(col.tolist() for col in cols)))


def _inverse(ring: QuotientRing, g: Matrix) -> Matrix:
    a, b, c, d = g
    return (d, ring.neg(b), ring.neg(c), a)


def _image_codes(ring: QuotientRing, g: Matrix, h: Matrix, cols):
    """Codes of g x h for every x: entry (i, j) is the sum of g_ik x_kl h_lj."""
    code = np.zeros(len(cols[0]), dtype=np.int64)
    for i in (0, 1):
        for j in (0, 1):
            coefs = (ring.mul(g[2 * i + k], h[2 * l + j]) for k in (0, 1) for l in (0, 1))
            terms = (x if c == 1 else ring.mul(c, x) for c, x in zip(coefs, cols) if c)
            code *= ring.size
            code += reduce(ring.add, terms)
    return code


def _orbit_labels(ring: QuotientRing, codes, cols, actions):
    """Least index in each element's orbit under the maps x -> g x h, (g, h) in actions.

    Each map becomes an index permutation of the sorted elements (an image
    outside them raises), and the orbits are the connected components of
    those permutations: min-label propagation along each permutation, then
    pointer jumping, until nothing changes.  One direction suffices, since a
    permutation's edges lie on its cycles.
    """
    last = len(codes) - 1
    perms = []
    for g, h in actions:
        target = _image_codes(ring, g, h, cols)
        idx = np.minimum(np.searchsorted(codes, target), last)
        if not np.array_equal(codes[idx], target):
            raise AssertionError(f"x -> {g} x {h} maps some element outside the set")
        perms.append(idx.astype(np.int32))
    labels = np.arange(len(codes), dtype=np.int32)
    while True:
        previous = labels
        for perm in perms:
            labels = np.minimum(labels, labels[perm])
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        if np.array_equal(labels, previous):
            return labels


def class_growth_exponents(counts: dict[int, int], q: int) -> list[float]:
    """log_q of the class count at level k, divided by k, in level order.

    This is the finite-level estimate of the conjugacy growth exponent; for
    SL2 it decreases toward 1 as the level grows.
    """
    import math

    if not counts:
        raise ValueError("need class counts for at least one level")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    out = []
    for k in sorted(counts):
        n = counts[k]
        if k < 1 or n < 1:
            raise ValueError(f"invalid level/count pair ({k}, {n})")
        out.append(math.log(n) / (k * math.log(q)))
    return out

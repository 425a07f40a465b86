"""Brute-force SL2 over finite local rings: enumeration and conjugacy counts.

Two ring flavors with the same residue field F_p: integers mod p^k and
truncated polynomials F_p[t]/(t^k).  Elements are encoded as integers in
[0, p^k): the residue itself in the first case, the base-p digit string of
the polynomial in the second (so the uniformizer power pi^j encodes as p^j
in both, and a is a unit exactly when a % p != 0).  Either ring is its
addition and multiplication tables over the encoded elements; only filling
them depends on the flavor.

A matrix (a, b, c, d) of SL2 is held as its packed columns u = a m + c and
v = b m + d, m = p^k.  Its key is (a m + b) m + (c if a is a unit else d):
(a, b, c) fixes d = a^-1 (1 + bc) when a is a unit, and (a, b, d) fixes c
when it is not, as b is then a unit.  So the pairs (a, b) not both nonunits,
times a free third entry, are the m^3 (1 - 1/p^2) = |SL2| keys, enumerated
in order.  An element's index is its key less m for each of the
ceil(a/p) m/p + [p | a] ceil(b/p) nonunit pairs below (a, b); by column, it
is P[u] + Q[F[u] + v], in int32 tables of m^2 or 2 m^2 entries:
P[a m + c] = (a m - ceil(a/p) m/p) m + [a unit] c, F[u] = m^2 if a is a unit
and 0 if not, and Q holds (b - ceil(b/p)) m + d at b m + d and b m at
m^2 + b m + d.  Any two columns index an element of a's block, which is
theirs exactly when both columns match it.  A build raises unless the
elements solve ad - bc = 1, number the predicted order (below 2^31, for
int32 indices) and have the indices 0, 1, ..., n - 1 (so they are distinct).
Left multiplication by g acts on each column alone, through the table
T_g[x m + y] of g (x, y)^T packed the same way; the index of (T_g[u], T_g[v]),
checked against both columns, gives the index permutation L_g.
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
x -> (d, -b, -c, a), whose packed columns (d m + (-c), (-b) m + a) are
indexed and checked the same way, so its permutation is L_g[iota[L_g[iota]]],
three gathers.  The orbits of these permutations, their connected
components, are the conjugacy classes, each represented by its least index.

That element is also the class's lexicographically least.  A class that is
not scalar mod p holds an element with a = 0: a cyclic vector of x, lifted
by Nakayama's lemma, conjugates x in GL2 to (0, -1; 1, t), and conjugating
that by diag(1, u^-1), u the conjugator's determinant, keeps a = 0 and
brings the conjugator into SL2.  In a class that is scalar mod p, every a
is +-1 mod p, a unit.  With a = 0, c = -b^-1 is fixed by b; with a a unit,
d is fixed by (a, b, c).  So on every element that can be least in its
class, key order is lexicographic.

Every gather, a[idx] above, is a.take(idx) with take's default bounds check
(mode "raise"), so an index out of range still raises IndexError: numpy
gathers through int32 indices faster with take than with fancy indexing.
take converts its whole index to intp first, 8 bytes an element, a copy
fancy indexing does not make.  `_orbit_labels` runs while the group and
its conjugations are held; it lowers its labels in place, block by block,
so its copies stay the size of a block and it adds only the labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, integer
from .numtheory import integer_log, prime_power

DEFAULT_GROUP_BUDGET = 200_000
_MAX_TABLE_SIZE = 2048  # the size*size operation tables, and their int32 indices
_MAX_ORDER = 2**31 - 1  # int32 element indices
_BLOCK = 1 << 16  # elements per gather of _orbit_labels, which bounds its intp index copies

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
        if k > (k_max := integer_log(_MAX_TABLE_SIZE, p)):  # before p is factored or p^k formed
            raise ValueError(f"ring size p^k = {p}^{k} needs operation tables of that size "
                             f"squared; the largest size allowed is {_MAX_TABLE_SIZE}; "
                             f"{_largest_level_within(p, k_max)}")
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
        return self._add.take(a * self.size + b)

    def mul(self, a, b):
        return self._mul.take(a * self.size + b)

    def neg(self, a):
        return self._neg.take(a)

    def inv(self, a):
        return self._inv.take(a)

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


def _largest_level_within(p: int, k: int, detail: str = "") -> str:
    """The remedy a budget's refusal names: k, the largest level within it at p."""
    return (f"the largest level within it at p = {p} is k = {k}{detail}" if k else
            f"no level at p = {p} is within it")


@dataclass
class FiniteMatrixGroup:
    """SL2 over a ring as its table: the two int32 packed columns (u, v), in
    key order, so an element's row is its index, and the index tables
    (P, F, Q).  `left[i]` is the certified int32 index permutation
    x -> generators[i] x, and `inverse` the one of x -> x^-1."""

    ring: QuotientRing
    generators: tuple[Matrix, ...]
    packed: tuple[np.ndarray, np.ndarray] = field(repr=False)
    tables: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    left: tuple[np.ndarray, ...] = field(default=(), repr=False)
    inverse: np.ndarray | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return len(self.packed[0])

    @property
    def cols(self):
        """The four int32 entry columns (a, b, c, d)."""
        (a, c), (b, d) = (np.divmod(x, self.ring.size) for x in self.packed)
        return a, b, c, d

    def index(self, u, v):
        """Index, as int32, of each element given as packed columns (off SL2, another's)."""
        p, f, q = self.tables
        return p.take(u) + q.take(f.take(u) + v)

    def locate(self, image, name: str):
        """Index of each element given as packed columns, which raises unless
        both columns are those of the element at that index."""
        idx = self.index(*image)
        if not all(np.array_equal(col.take(idx), x) for col, x in zip(self.packed, image)):
            raise AssertionError(f"{name} maps some element outside the set")
        return idx

    def left_permutation(self, g: Matrix):
        """Index permutation x -> g x, through T_g on each packed column."""
        t = _left_table(self.ring, g)
        return self.locate(tuple(t.take(x) for x in self.packed), f"x -> {g} x")


def build_sl2_group(ring: QuotientRing, *, max_order: int = DEFAULT_GROUP_BUDGET) -> FiniteMatrixGroup:
    """Enumerate SL2 over the ring and certify its elementary generators.

    The elements are the solutions of ad - bc = 1, enumerated in key order
    as their packed columns.  The build raises unless they number exactly the
    predicted order and are distinct, which certifies completeness.  The
    generators are E12(1), E21(1) and, when k > 1, E12(pi); left
    multiplication by them must map the elements onto themselves, and the
    orbit of the element at index 0 under it must be the whole group: the
    n / |H x0| left cosets of the subgroup H they generate must be one, which
    certifies that they generate the group.  Each image's index, in those and
    in the inversion permutation, is read off its packed columns.  An order
    of 2^31 or more is refused before anything is enumerated.
    """
    max_order = integer(max_order, "max_order", 1)
    order = predicted_order(ring)
    limit = min(max_order, _MAX_ORDER)
    if order > limit:
        p = ring.p  # p^(3k-2) (p^2 - 1) <= limit exactly when 3k - 2 <= log_p(limit // (p^2 - 1))
        k = (integer_log(limit // (p * p - 1), p) + 2) // 3
        over = (f"the budget of {max_order}" if limit == max_order else
                f"the int32 index limit of {_MAX_ORDER}")
        raise BudgetExceededError(
            f"SL2 over {ring.label()} has order {order}, over {over}; "
            f"{_largest_level_within(p, k, f' (order {_sl2_order(p, k)})')}"
        )
    group = FiniteMatrixGroup(ring, _elementaries(ring), _sl2_elements(ring), _index_tables(ring))
    if group.order != order:
        raise AssertionError(
            f"enumeration over {ring.label()} found {group.order} elements, expected {order}"
        )
    if not np.array_equal(group.index(*group.packed), np.arange(order)):
        raise AssertionError(f"enumeration over {ring.label()} is not in index order")
    group.left = tuple(group.left_permutation(g) for g in group.generators)
    (u, v), m = group.packed, ring.size
    group.inverse = group.locate((v % m * m + ring.neg(u % m), ring.neg(v // m) * m + u // m),
                                 "x -> x^-1")
    cosets = order // _orbit_size(group.left)
    if cosets != 1:
        raise AssertionError(
            f"the {len(group.generators)} elementaries over {ring.label()} leave {cosets} "
            "left orbits, so they do not generate SL2"
        )
    return group


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
    roots = np.flatnonzero(labels == np.arange(len(labels), dtype=np.int32))
    (a, c), (b, d) = (np.divmod(x.take(roots), group.ring.size) for x in group.packed)
    return ConjugacyClasses(representatives=tuple(_tuples((a, b, c, d))),
                            sizes=tuple(np.bincount(labels).take(roots).tolist()))


def _elementaries(ring: QuotientRing) -> tuple[Matrix, ...]:
    gens: tuple[Matrix, ...] = ((1, 1, 0, 1), (1, 0, 1, 1))
    if ring.k > 1:
        gens += ((1, ring.p, 0, 1),)  # E12(pi): pi encodes as p in either flavor
    return gens


def _sl2_elements(ring: QuotientRing):
    """Every solution of ad - bc = 1, as its two packed columns in key order.

    The pairs (a, b) that are not both nonunits, in order, each with t over
    the ring.  The entry that t does not fill is z + w t, one row of the
    multiplication table and one addition per pair: with a a unit, c = t and
    d = a^-1 + (a^-1 b) t; with a a nonunit, b is a unit, d = t and
    c = -b^-1 + (b^-1 a) t.
    """
    p, m = ring.p, ring.size
    r = np.arange(m, dtype=np.int32)
    a, b = np.divmod(np.arange(m * m, dtype=np.int32), m)
    pairs = (a % p != 0) | (b % p != 0)
    a, b = a[pairs], b[pairs]
    unit = a % p != 0
    inv = ring.inv(np.where(unit, a, b))
    z = np.where(unit, inv, ring.neg(inv))
    w = ring.mul(inv, np.where(unit, b, a))
    other = ring.add(z[:, None], ring.mul(w[:, None], r))
    c = np.where(unit[:, None], r, other)
    d = np.where(unit[:, None], other, r)
    if not np.all(ring.add(ring.mul(a[:, None], d), ring.neg(ring.mul(b[:, None], c))) == 1):
        raise AssertionError(f"enumeration over {ring.label()} produced ad - bc != 1")
    c += (a * m)[:, None]
    d += (b * m)[:, None]
    return c.ravel(), d.ravel()


def _index_tables(ring: QuotientRing):
    """P, F and Q of the module docstring, as int32: an index is P[u] + Q[F[u] + v]."""
    p, m = ring.p, ring.size
    r = np.arange(m, dtype=np.int64)
    unit, ceil = r % p != 0, (r + p - 1) // p
    P = ((r * m - ceil * (m // p)) * m)[:, None] + np.outer(unit, r)
    F = np.repeat(unit * m * m, m)
    Q = np.concatenate(((((r - ceil) * m)[:, None] + r).ravel(), np.repeat(r * m, m)))
    return tuple(x.ravel().astype(np.int32) for x in (P, F, Q))


def _left_table(ring: QuotientRing, g: Matrix):
    """T_g: g (x, y)^T packed as (g0 x + g1 y) m + (g2 x + g3 y), at x m + y."""
    r = np.arange(ring.size, dtype=np.int32)
    g0, g1, g2, g3 = (ring.mul(e, r) for e in g)
    return (ring.add(g0[:, None], g1) * ring.size + ring.add(g2[:, None], g3)).ravel()


def _tuples(cols) -> list[Matrix]:
    return list(zip(*(col.tolist() for col in cols)))


def _conjugations(group: FiniteMatrixGroup) -> list[np.ndarray]:
    """Index of g x g^-1 for every element x, one permutation per generator g,
    composed as L_g[iota[L_g[iota]]] from g x g^-1 = L_g(iota(L_g(iota(x))))."""
    iota = group.inverse
    return [left.take(iota.take(left.take(iota))) for left in group.left]


def _orbit_labels(perms):
    """Least index in each element's orbit under the index permutations `perms`.

    The orbits are the connected components of the permutations.  Each round
    lowers every label, in place, to the minimum of itself and its image's
    label along each permutation, then jumps once, labels[labels]; both go
    block by block, and a block reads the labels earlier blocks have already
    lowered.  The loop stops, before the jump, at the first round in which no
    image fell below its label, a round that changes nothing.  Labels only
    fall, labels[x] <= x, and each label is always a member of its element's
    orbit.  In a round that changes nothing every image is compared with the
    labels the round ends with, so it still leaves labels[x] <= labels[perm[x]]
    for every x and every permutation; walking round a cycle of a permutation,
    those inequalities force equality, so the label is constant on each
    orbit.  A member of the orbit that is at most every member is the least
    index.  The blocks bound the intp copy each gather makes of its index
    (see the module docstring), and no image of the whole array is formed:
    the loop adds the labels, 4 bytes an element, to the permutations.
    """
    labels = np.arange(len(perms[0]), dtype=np.int32)
    blocks = [slice(i, i + _BLOCK) for i in range(0, len(labels), _BLOCK)]
    while True:
        fell = False
        for perm in perms:
            for b in blocks:
                block, image = labels[b], labels.take(perm[b])
                fell = fell or bool((image < block).any())
                np.minimum(block, image, out=block)
        if not fell:
            return labels
        for b in blocks:
            labels[b] = labels.take(labels[b])


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
            new[perm.take(frontier)] = True
        frontier = np.flatnonzero(new ^ reached)
        reached = new
    return int(np.count_nonzero(reached))


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

"""Irreducible root systems and the Weyl dimension formula.

A complex simple Lie group of type X_r is described here by the table of its
positive coroots, written in the basis of simple coroots.  That table is all
the Weyl dimension formula needs: for a dominant weight with coordinates
a = (a_1, ..., a_r) in the fundamental-weight basis,

    dim V(a) = prod_j (B[j].a + c[j]) / prod_j c[j]

where row j of B lists the simple-coroot coefficients of the j-th positive
coroot and c[j] is its row sum (the coroot evaluated at the Weyl vector).  One
table, _TYPES, gives each series its ranks and Coxeter number h.

The threshold chain comes from one exact elimination over the coroots in
ascending value at weight + rho.  The coroots below any threshold span what
their basis vectors span, so each coroot enters the span with the last basis
vector its reduction uses, or with its own value if it adds one.  Whether a
value v lies below e^j is decided exactly, as j > floor(ln v).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceededError, integer

# Each series: its least rank, its largest (None: unbounded) and its Coxeter number h of a rank
_TYPES = {
    "A": (1, None, lambda r: r + 1),
    "B": (2, None, lambda r: 2 * r),
    "C": (2, None, lambda r: 2 * r),
    "D": (3, None, lambda r: 2 * r - 2),
    "E": (6, 8, {6: 12, 7: 18, 8: 30}.get),
    "F": (4, 4, lambda r: 12),
    "G": (2, 2, lambda r: 6),
}
MAX_POSITIVE_ROOTS = 2_000  # the closure of A62 (1,953 roots) takes about 1 s


def _check_type(series: str, rank: int) -> int:
    """rank as an int; ValueError unless series and rank name an irreducible type."""
    if series not in _TYPES:
        raise ValueError(f"unknown series {series!r}; expected one of A B C D E F G")
    rank = integer(rank, "rank")
    lo, hi, _ = _TYPES[series]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"invalid rank {rank} for series {series} (allowed: {lo}..{hi or 'any'})")
    return rank


def coxeter_number(series: str, rank: int) -> int:
    """Coxeter number h of the irreducible system, from _TYPES."""
    return _TYPES[series][2](_check_type(series, rank))


def positive_root_count(series: str, rank: int) -> int:
    """Number of positive roots; always rank * h / 2."""
    rank = _check_type(series, rank)
    return rank * coxeter_number(series, rank) // 2


def _cartan_matrix(series: str, rank: int) -> list[list[int]]:
    """Cartan matrix with entries A[i][j] = <alpha_i, alpha_j-coroot>."""
    r = rank
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def chain(i, j):
        a[i][j] = -1
        a[j][i] = -1

    if series in ("A", "B", "C"):
        for i in range(r - 1):
            chain(i, i + 1)
        if series == "B" and r >= 2:
            # last simple root short: the long neighbour pairs to -2 against it
            a[r - 2][r - 1] = -2
        if series == "C" and r >= 2:
            # last simple root long
            a[r - 1][r - 2] = -2
    elif series == "D":
        for i in range(r - 3):
            chain(i, i + 1)
        chain(r - 3, r - 2)
        chain(r - 3, r - 1)
    elif series == "G":
        a[0][1] = -1
        a[1][0] = -3
    elif series == "F":
        chain(0, 1)
        chain(2, 3)
        a[1][2] = -2
        a[2][1] = -1
    else:  # E6, E7, E8: chain 0-2-3-4-...-(r-1), extra node 1 hangs off node 3
        chain(0, 2)
        for i in range(2, r - 1):
            chain(i, i + 1)
        chain(1, 3)
    return a


def _positive_roots(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    """Positive roots (simple-root coordinates) by reflection closure.

    A positive root b of height above 1 pairs positively with some simple
    coroot, as (b, b) > 0 is a non-negative sum of the (b, alpha_i).  Then
    s_i(b) = b - <b, alpha_i-coroot> alpha_i is a positive root of smaller
    height, so every positive root is reached from a simple root through
    positive roots alone.  The closure keeps only the non-negative images:
    s_i maps every positive root but alpha_i to a positive root.
    """
    r = len(cartan)
    cols = [tuple(cartan[k][i] for k in range(r)) for i in range(r)]
    simple = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(r):
                pairing = sum(c * col for c, col in zip(root, cols[i]) if c)
                image = root[:i] + (root[i] - pairing,) + root[i + 1:]
                if min(image) >= 0 and image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return sorted(seen, key=lambda t: (sum(t), t))


@dataclass(frozen=True)
class RootSystem:
    """Coroot table of an irreducible root system.

    coroot_matrix: one row per positive coroot, entries = coefficients in the
    simple-coroot basis (non-negative integers).  rho_values[j] is the j-th
    row sum, i.e. the coroot paired against the Weyl vector.
    """

    series: str
    rank: int
    coroot_matrix: tuple[tuple[int, ...], ...]
    rho_values: tuple[int, ...]
    coxeter: int
    rho_product: int

    @property
    def kappa(self) -> int:
        return len(self.coroot_matrix)

    def label(self) -> str:
        return f"{self.series}{self.rank}"


def build_root_system(series: str, rank: int) -> RootSystem:
    """Construct the coroot table for series/rank, with table cross-checks.

    The positive coroots of X_r are the positive roots of the dual system,
    whose Cartan matrix is the transpose, so the closure runs on that.  One
    table per type: the rank (made an int) and the kappa budget are checked first.
    """
    if (kappa := positive_root_count(series, rank)) > MAX_POSITIVE_ROOTS:
        largest = _TYPES[series][0]
        while positive_root_count(series, largest + 1) <= MAX_POSITIVE_ROOTS:
            largest += 1
        raise BudgetExceededError(
            f"{series}{rank} has {kappa} positive roots, above the root-system closure's budget "
            f"of {MAX_POSITIVE_ROOTS}: the largest rank of series {series} within it is {largest}")
    return _root_system(series, _check_type(series, rank))


@lru_cache(maxsize=None)
def _root_system(series: str, rank: int) -> RootSystem:
    cartan = _cartan_matrix(series, rank)
    transposed = [list(col) for col in zip(*cartan)]
    rows = _positive_roots(transposed)
    kappa = positive_root_count(series, rank)
    if len(rows) != kappa:
        raise AssertionError(
            f"closure produced {len(rows)} positive coroots for {series}{rank}, expected {kappa}"
        )
    h = coxeter_number(series, rank)
    c = tuple(sum(row) for row in rows)
    if max(c) != h - 1:
        raise AssertionError(f"highest coroot height {max(c)} != h-1 for {series}{rank}")
    return RootSystem(
        series=series,
        rank=rank,
        coroot_matrix=tuple(rows),
        rho_values=c,
        coxeter=h,
        rho_product=math.prod(c),
    )


def _check_weight(rs: RootSystem, weight) -> tuple[int, ...]:
    """The coordinates as Python ints, so a numpy integer brings no int64
    overflow into the coroot values; ValueError unless each is a
    non-negative integer."""
    a = tuple(weight)
    if len(a) != rs.rank:
        raise ValueError(f"weight has {len(a)} coordinates, {rs.label()} needs {rs.rank}")
    out = []
    for v in a:
        try:
            i = operator.index(v)
        except TypeError:
            i = -1  # not an integer: refused below, as a negative one is
        if i < 0:
            raise ValueError(f"weight coordinates must be non-negative integers, got {v!r}")
        out.append(i)
    return tuple(out)


def coroot_values(rs: RootSystem, weight) -> list[int]:
    """Values of every positive coroot at weight + rho (all >= 1)."""
    a = _check_weight(rs, weight)
    out = []
    for row, c in zip(rs.coroot_matrix, rs.rho_values):
        out.append(c + sum(b * x for b, x in zip(row, a) if b))
    return out


def weyl_dim(rs: RootSystem, weight) -> int:
    """Dimension of the irreducible with the given highest weight (exact)."""
    dim, rem = divmod(math.prod(coroot_values(rs, weight)), rs.rho_product)
    if rem:
        raise AssertionError(f"Weyl dimension formula did not divide exactly for {weight}")
    return dim


def witten_abscissa(rs: RootSystem) -> Fraction:
    """Abscissa of convergence of the Witten zeta function: rank/kappa = 2/h."""
    return Fraction(rs.rank, rs.kappa)


def _entry_index(v: int) -> int:
    """The least j >= 1 with v < e^j, that is 1 + floor(ln v), for an int v >= 1.

    decimal's ln is correctly rounded, so ln v lies strictly between the
    neighbours of the result; when both have one floor, ln v has it too.
    ln v is irrational for v >= 2, so doubling the precision ends.
    """
    if v == 1:
        return 1
    prec = 20
    while True:
        ctx = Context(prec=prec)
        x = Decimal(v).ln(ctx)
        floor = math.floor(x.next_minus(ctx))
        if floor == math.floor(x.next_plus(ctx)):
            return floor + 1
        prec *= 2


def threshold_subsystem_chain(rs: RootSystem, weight) -> list[tuple[int, int]]:
    """Sizes of the nested root subsystems cut out by coroot-value thresholds.

    For j = 1, 2, ... collect the positive coroots whose value at weight+rho
    is below e^j, take the rational span, and count the positive coroots
    lying in that span.  Returns [(j, size)] up to the first j at which the
    span has swallowed the whole system.
    """
    values = coroot_values(rs, weight)
    basis: list[tuple[int, list[Fraction], int]] = []  # (pivot, row, entry index)
    entries = []
    for i in sorted(range(rs.kappa), key=values.__getitem__):
        vec = [Fraction(x) for x in rs.coroot_matrix[i]]
        entry = 0
        for p, b, e in basis:
            if vec[p]:
                coef = vec[p] / b[p]
                vec = [v - coef * bv for v, bv in zip(vec, b)]
                entry = e
        pivot = next((k for k, v in enumerate(vec) if v), None)
        if pivot is not None:
            entry = _entry_index(values[i])
            basis.append((pivot, vec, entry))
        entries.append(entry)
    return [(j, sum(e <= j for e in entries)) for j in range(1, max(entries) + 1)]


def log_dim_gap(rs: RootSystem, weight) -> float:
    """|log dim - sum_j (kappa - size_j)| over the threshold chain.

    The j-sum counts, for each positive coroot, how many thresholds it stays
    outside of, which tracks log dim up to a constant depending only on the
    root system.  Useful as an empirical sanity check of that constant.
    """
    chain = threshold_subsystem_chain(rs, weight)
    total = sum(rs.kappa - size for _, size in chain)
    return abs(math.log(weyl_dim(rs, weight)) - total)

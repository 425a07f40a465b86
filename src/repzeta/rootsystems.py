"""Irreducible root systems and the Weyl dimension formula.

A complex simple Lie group of type X_r is described here by the table of its
positive coroots, written in the basis of simple coroots.  That table is all
the Weyl dimension formula needs: for a dominant weight with coordinates
a = (a_1, ..., a_r) in the fundamental-weight basis,

    dim V(a) = prod_j (B[j].a + c[j]) / prod_j c[j]

where row j of B lists the simple-coroot coefficients of the j-th positive
coroot and c[j] is its row sum (the coroot evaluated at the Weyl vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

_VALID_RANKS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _check_type(series: str, rank: int) -> None:
    if series not in _VALID_RANKS:
        raise ValueError(f"unknown series {series!r}; expected one of A B C D E F G")
    lo, hi = _VALID_RANKS[series]
    if rank < lo or (hi is not None and rank > hi):
        upper = hi if hi is not None else "any"
        raise ValueError(f"invalid rank {rank} for series {series} (allowed: {lo}..{upper})")


def coxeter_number(series: str, rank: int) -> int:
    """Coxeter number h of the irreducible system, from the classical table."""
    _check_type(series, rank)
    if series == "A":
        return rank + 1
    if series in ("B", "C"):
        return 2 * rank
    if series == "D":
        return 2 * rank - 2
    if series == "G":
        return 6
    if series == "F":
        return 12
    return {6: 12, 7: 18, 8: 30}[rank]


def positive_root_count(series: str, rank: int) -> int:
    """Number of positive roots; always rank * h / 2."""
    return rank * coxeter_number(series, rank) // 2


def _cartan_matrix(series: str, rank: int) -> list[list[int]]:
    """Cartan matrix with entries A[i][j] = <alpha_i, alpha_j-coroot>."""
    _check_type(series, rank)
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

    Every root is a Weyl image of a simple root, so closing the simple roots
    under the simple reflections s_i(b) = b - <b, alpha_i-coroot> alpha_i
    reaches all of them.
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
                if pairing == 0:
                    continue
                image = list(root)
                image[i] -= pairing
                timage = tuple(image)
                if timage not in seen:
                    seen.add(timage)
                    nxt.append(timage)
        frontier = nxt
    positive = [root for root in seen if min(root) >= 0]
    positive.sort(key=lambda t: (sum(t), t))
    return positive


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


@lru_cache(maxsize=None)
def build_root_system(series: str, rank: int) -> RootSystem:
    """Construct the coroot table for series/rank, with table cross-checks.

    The positive coroots of X_r are the positive roots of the dual system,
    whose Cartan matrix is the transpose, so the closure runs on that.
    """
    _check_type(series, rank)
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
    if Fraction(rank, kappa) != Fraction(2, h):
        raise AssertionError(f"rank/kappa != 2/h for {series}{rank}")
    prod = 1
    for v in c:
        prod *= v
    return RootSystem(
        series=series,
        rank=rank,
        coroot_matrix=tuple(rows),
        rho_values=c,
        coxeter=h,
        rho_product=prod,
    )


def _check_weight(rs: RootSystem, weight) -> tuple[int, ...]:
    a = tuple(weight)
    if len(a) != rs.rank:
        raise ValueError(f"weight has {len(a)} coordinates, {rs.label()} needs {rs.rank}")
    for v in a:
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"weight coordinates must be non-negative integers, got {v!r}")
    return a


def coroot_values(rs: RootSystem, weight) -> list[int]:
    """Values of every positive coroot at weight + rho (all >= 1)."""
    a = _check_weight(rs, weight)
    out = []
    for row, c in zip(rs.coroot_matrix, rs.rho_values):
        out.append(c + sum(b * x for b, x in zip(row, a) if b))
    return out


def weyl_dim(rs: RootSystem, weight) -> int:
    """Dimension of the irreducible with the given highest weight (exact)."""
    num = 1
    for v in coroot_values(rs, weight):
        num *= v
    dim, rem = divmod(num, rs.rho_product)
    if rem:
        raise AssertionError(f"Weyl dimension formula did not divide exactly for {weight}")
    return dim


def witten_abscissa(rs: RootSystem) -> Fraction:
    """Abscissa of convergence of the Witten zeta function: rank/kappa = 2/h."""
    return Fraction(rs.rank, rs.kappa)


def _reduce(row, basis: list[tuple[int, list[Fraction]]]) -> list[Fraction]:
    """What is left of row (exact rationals) after elimination against the
    echelon basis, stored as (pivot, row) pairs; zero iff row is in its span."""
    vec = [Fraction(x) for x in row]
    for p, b in basis:
        if vec[p]:
            coef = vec[p] / b[p]
            vec = [v - coef * bv for v, bv in zip(vec, b)]
    return vec


def _echelon_basis(rows) -> list[tuple[int, list[Fraction]]]:
    """Echelon basis of the span of the given rows, as (pivot, row) pairs."""
    basis: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        vec = _reduce(row, basis)
        p = next((i for i, v in enumerate(vec) if v), None)
        if p is not None:
            basis.append((p, vec))
    return basis


def threshold_subsystem_chain(rs: RootSystem, weight) -> list[tuple[int, int]]:
    """Sizes of the nested root subsystems cut out by coroot-value thresholds.

    For j = 1, 2, ... collect the positive coroots whose value at weight+rho
    is below e^j, take the rational span, and count the positive coroots
    lying in that span.  Returns [(j, size)] up to the first j at which the
    span has swallowed the whole system.
    """
    values = coroot_values(rs, weight)
    rows = rs.coroot_matrix
    kappa = rs.kappa
    chain: list[tuple[int, int]] = []
    j = 1
    while True:
        threshold = math.exp(j)
        members = [rows[i] for i, v in enumerate(values) if v < threshold]
        if len(members) == kappa:
            size = kappa
        elif not members:
            size = 0
        else:
            basis = _echelon_basis(members)
            size = sum(1 for row in rows if not any(_reduce(row, basis)))
        chain.append((j, size))
        if size == kappa:
            return chain
        j += 1


def log_dim_gap(rs: RootSystem, weight) -> float:
    """|log dim - sum_j (kappa - size_j)| over the threshold chain.

    The j-sum counts, for each positive coroot, how many thresholds it stays
    outside of, which tracks log dim up to a constant depending only on the
    root system.  Useful as an empirical sanity check of that constant.
    """
    chain = threshold_subsystem_chain(rs, weight)
    total = sum(rs.kappa - size for _, size in chain)
    return abs(math.log(weyl_dim(rs, weight)) - total)

"""Character degrees of symmetric and alternating groups, and wreath towers.

Degrees of S_k come from partitions via the hook length formula.  Restricting
to A_k, a partition and its transpose give the same degree (one entry), while
a self-conjugate partition splits into two irreducibles of half the degree.
The wreath-tower helpers evaluate the growth conditions under which an
iterated permutational wreath product of alternating groups keeps a finite
abscissa target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .census import DegreeCensus, check_exact_exponent

MAX_PARTITION_SIZE = 40


def partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k in reverse lexicographic order: (k) first, (1,..,1) last.

    Zoghbi and Stojmenović's ZS1 (Int. J. Comput. Math. 70, 1998).  Every part
    after the last part above 1 is a 1, so a step lowers that part by one and
    refills greedily from it with the freed 1s; it never reads the tail of 1s.
    Constant amortised work per partition, apart from copying it out.
    """
    if k < 1 or k > MAX_PARTITION_SIZE:
        raise ValueError(f"partition size must be in 1..{MAX_PARTITION_SIZE}, got {k}")
    parts = [1] * k
    parts[0] = k
    size = 1  # parts in use
    h = 0  # index of the last part above 1
    out = [(k,)]
    while parts[0] > 1:
        if parts[h] == 2:
            parts[h] = 1
            h -= 1
            size += 1
        else:
            r = parts[h] - 1
            t = size - h  # the 1 taken from parts[h] plus the 1s after it
            parts[h] = r
            while t >= r:
                h += 1
                parts[h] = r
                t -= r
            if t > 1:
                h += 1
                parts[h] = t
            size = h + 2 if t == 1 else h + 1
        out.append(tuple(parts[:size]))
    return out


def _check_partition(parts) -> tuple[int, ...]:
    """parts as a tuple, or ValueError unless they are weakly decreasing and positive."""
    t = tuple(parts)
    if not t or t[-1] < 1 or any(a < b for a, b in zip(t, t[1:])):
        raise ValueError(f"not a partition (weakly decreasing positive parts): {parts!r}")
    return t


def _transpose(parts: tuple[int, ...]) -> tuple[int, ...]:
    """conjugate_partition of a valid partition, in O(len(parts) + parts[0]).

    Walking up from the bottom row, row i (1-based) is the lowest row to reach
    the columns from len(conj) up to its own length, so each of them has length i.
    """
    conj: list[int] = []
    for i in range(len(parts), 0, -1):
        conj.extend([i] * (parts[i - 1] - len(conj)))
    return tuple(conj)


def conjugate_partition(parts) -> tuple[int, ...]:
    """Transpose of the Young diagram, in one pass over the rows."""
    return _transpose(_check_partition(parts))


def _hook_degree(parts: tuple[int, ...], conj: tuple[int, ...]) -> int:
    """hook_degree of a valid partition whose conjugate is already known."""
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    degree, rem = divmod(math.factorial(sum(parts)), hooks)
    if rem:
        raise AssertionError(f"hook product does not divide {sum(parts)}! for {parts}")
    return degree


def hook_degree(parts) -> int:
    """Character degree of S_k at the partition: k! / product of hook lengths."""
    t = _check_partition(parts)
    return _hook_degree(t, _transpose(t))


def _transpose_pairs(k: int):
    """(degree, self-conjugate) once per pair {partition, transpose} of k: both have one degree.

    The walk keeps the lexicographically smaller member of each pair.  When
    λ₁ > ℓ(λ), the transpose starts with λ′₁ = ℓ(λ) < λ₁, so λ′ < λ and λ is
    skipped before any transpose is built; that is about half the partitions.
    When λ₁ < ℓ(λ), λ is the smaller one, and only λ₁ = ℓ(λ) needs the full
    comparison.  Each transpose costs O(λ₁ + ℓ(λ)).
    """
    for lam in partitions(k):
        if lam[0] > len(lam):
            continue
        conj = _transpose(lam)
        if lam <= conj:
            yield _hook_degree(lam, conj), lam == conj


def sym_degree_census(k: int) -> DegreeCensus:
    """Full degree census of S_k; degree-square sum equals k!."""
    counts: dict[int, int] = {}
    for d, self_conjugate in _transpose_pairs(k):
        counts[d] = counts.get(d, 0) + (1 if self_conjugate else 2)
    census = DegreeCensus.from_counts(counts, max(counts))
    if census.sum_degree_squares() != math.factorial(k):
        raise AssertionError(f"S_{k} census degree-square sum != {k}!")
    return census


def alt_degree_census(k: int) -> DegreeCensus:
    """Full degree census of A_k for k >= 5.

    Each unordered pair {partition, transpose} contributes one degree; each
    self-conjugate partition contributes the degree twice at half size (the
    half-degrees are always even in total count, never fractional).
    """
    if k < 5:
        raise ValueError(f"alternating census needs k >= 5, got {k}")
    counts: dict[int, int] = {}
    for d, self_conjugate in _transpose_pairs(k):
        if self_conjugate and d % 2:
            raise AssertionError(f"a self-conjugate partition of {k} has odd degree {d}")
        d, m = (d // 2, 2) if self_conjugate else (d, 1)
        counts[d] = counts.get(d, 0) + m
    census = DegreeCensus.from_counts(counts, max(counts))
    if 2 * census.sum_degree_squares() != math.factorial(k):
        raise AssertionError(f"A_{k} census degree-square sum != {k}!/2")
    return census


def alt_zeta(k: int, s: float) -> float:
    """Complete zeta sum of A_k at s."""
    return alt_degree_census(k).zeta(s)


def alt_zeta_exact(k: int, s: int) -> Fraction:
    """Exact rational zeta value of A_k at a non-negative integer s."""
    check_exact_exponent(s)
    return alt_degree_census(k).zeta_exact(s)


@dataclass(frozen=True)
class PerfectBoundResult:
    holds: bool
    constant: float
    exponent: float
    tightest_n: int
    min_slack: float


def perfect_group_count_bound(census: DegreeCensus, s: float, c: float) -> PerfectBoundResult:
    """Check R(n) <= c * n^s + 1 for every n up to the census cap.

    Valid input is the census of a group with exactly one linear character
    (a perfect group); with c = zeta(s) - 1 the inequality always holds, and
    the result reports the least n of least slack.  R is constant between
    census degrees, so the slack is monotone there: one n per run is read.
    """
    if census.cumulative(1) != 1:
        raise ValueError("count bound needs exactly one degree-1 character (perfect group)")
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    tightest_n = 1
    min_slack = math.inf
    for lo, hi in zip(census.degrees, census.degrees[1:] + (census.cap + 1,)):
        r = census.cumulative(lo)
        n, last = lo, hi - 1
        if c < 0:  # the slack falls: bisect for the first n where it reaches its floor
            floor = c * last**s + 1 - r
            while n < last:
                mid = (n + last) // 2
                if c * mid**s + 1 - r <= floor:
                    last = mid
                else:
                    n = mid + 1
        slack = c * n**s + 1 - r
        if slack < min_slack:
            min_slack = slack
            tightest_n = n
    return PerfectBoundResult(
        holds=min_slack >= 0, constant=c, exponent=s, tightest_n=tightest_n, min_slack=min_slack
    )


def index_two_count_inequality(sym: DegreeCensus, alt: DegreeCensus) -> bool:
    """Index-2 transfer inequalities between the S_k and A_k degree counts.

    For a subgroup of index 2: R_n(A) <= 2 R_{2n}(S) and R_n(S) <= 2 R_n(A) for
    every n; the right sides never fall, so each is checked where its left side steps.
    """
    return all(alt.cumulative(n) <= 2 * sym.cumulative(2 * n) for n in alt.degrees) and all(
        sym.cumulative(n) <= 2 * alt.cumulative(n) for n in sym.degrees)


def sym_alt_count_inequality(k: int) -> bool:
    """index_two_count_inequality for S_k and A_k."""
    return index_two_count_inequality(sym_degree_census(k), alt_degree_census(k))


def wreath_log_order(ells, j: int) -> float:
    """log |W_j| for the tower W_0 = A_{l_0}, W_j = (A_{l_j})^(L_{j-1}) wr-ext W_{j-1},
    where L_{j-1} = l_0 * ... * l_{j-1}; each layer multiplies the order by
    (l_j! / 2)^(L_{j-1}).  Computed in log space via lgamma."""
    ells = tuple(int(v) for v in ells)
    if j < 0 or j >= len(ells):
        raise ValueError(f"tower level {j} out of range for {len(ells)} layer sizes")
    if any(v < 5 for v in ells[: j + 1]):
        raise ValueError("layer sizes must all be >= 5")
    log_order = math.lgamma(ells[0] + 1) - math.log(2)
    big_l = ells[0]
    for i in range(1, j + 1):
        log_order += big_l * (math.lgamma(ells[i] + 1) - math.log(2))
        big_l *= ells[i]
    return log_order


NOT_VERIFIABLE = "not verifiable at desk scale"


@dataclass(frozen=True)
class WreathConditionsReport:
    ells: tuple[int, ...]
    r: int
    log_order_prev: float
    branching_product: int
    growth_lhs: float
    growth_holds: bool
    zeta_status: str  # "holds" / "fails" / NOT_VERIFIABLE
    zeta_value: float | None
    zeta_bound: float


def wreath_tower_conditions(ells, r: int) -> WreathConditionsReport:
    """Evaluate the two sufficient conditions at tower level r.

    Growth condition: log |W_{r-1}| / log l_r < 1/r.  Zeta condition:
    zeta_{A_{l_r}}(1/r) < 1 + 1/L_{r-1}, decidable exactly only when l_r is
    small enough to enumerate partitions (l_r <= 40); otherwise reported as
    not verifiable at desk scale.
    """
    ells = tuple(int(v) for v in ells)
    if r < 1:
        raise ValueError(f"tower level r must be >= 1, got {r}")
    if len(ells) < r + 1:
        raise ValueError(f"need at least {r + 1} layer sizes, got {len(ells)}")
    if any(v < 5 for v in ells[: r + 1]):
        raise ValueError("layer sizes must all be >= 5")
    log_prev = wreath_log_order(ells, r - 1)
    big_l = 1
    for v in ells[:r]:
        big_l *= v
    lhs = log_prev / math.log(ells[r])
    growth_holds = lhs < 1.0 / r
    zeta_bound = 1.0 + 1.0 / big_l
    if ells[r] <= MAX_PARTITION_SIZE:
        value = alt_zeta(ells[r], 1.0 / r)
        status = "holds" if value < zeta_bound else "fails"
    else:
        value = None
        status = NOT_VERIFIABLE
    return WreathConditionsReport(
        ells=ells,
        r=r,
        log_order_prev=log_prev,
        branching_product=big_l,
        growth_lhs=lhs,
        growth_holds=growth_holds,
        zeta_status=status,
        zeta_value=value,
        zeta_bound=zeta_bound,
    )

"""Character degrees of symmetric and alternating groups, and wreath towers.

Degrees of S_k come from partitions via the hook length formula.  Restricting
to A_k, a partition and its transpose give the same degree (one entry), while
a self-conjugate partition splits into two irreducibles of half the degree.
The wreath-tower helpers evaluate the growth conditions under which an
iterated permutational wreath product of alternating groups keeps a finite
abscissa target.

The censuses never list partitions.  Each partition λ of k is one int64 word,
the bitmask Σ_i 2^(λ_i + ℓ − 1 − i) of its β-set (at most k + 1 bits), and
numpy counts the hooks of one length in every word at once with
np.bitwise_count.  A degree k!/H is its prime exponents packed into one int64
key, k!'s key minus the hook product H's.  A census stays in key space until
its end: the 2-field sits at offset 0, so halving a self-conjugate degree
subtracts 1 from its key, and A_k's pairing and halving are one np.unique
over weighted keys.  Each distinct key is then decoded once.  `partitions`
(ZS1) and `hook_degree` stay the scalar forms the kernel is tested against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .census import DegreeCensus, check_exact_exponent
from .errors import integer
from .numtheory import odd_primes_up_to

MAX_PARTITION_SIZE = 40


def _check_size(k: int) -> int:
    """k as an int in 1..MAX_PARTITION_SIZE, the sizes a census word holds in int64."""
    k = integer(k, "partition size k")
    if k < 1 or k > MAX_PARTITION_SIZE:
        raise ValueError(f"partition size must be in 1..{MAX_PARTITION_SIZE}, got {k}")
    return k


def partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k in reverse lexicographic order: (k) first, (1,..,1) last.

    Zoghbi and Stojmenović's ZS1 (Int. J. Comput. Math. 70, 1998).  Every part
    after the last part above 1 is a 1, so a step lowers that part by one and
    refills greedily from it with the freed 1s; it never reads the tail of 1s.
    Constant amortised work per partition, apart from copying it out.
    """
    k = _check_size(k)
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
    """parts as a tuple of ints, or ValueError unless they are integers, weakly
    decreasing and positive."""
    try:
        t = tuple(map(operator.index, parts))
    except TypeError:
        t = ()  # not integers: refused below, as the empty tuple is
    if not t or t[-1] < 1 or any(a < b for a, b in zip(t, t[1:])):
        raise ValueError(f"not a partition (weakly decreasing positive parts): {parts!r}")
    return t


def conjugate_partition(parts) -> tuple[int, ...]:
    """Transpose of the Young diagram, in one pass over the rows.

    Walking up from the bottom row, row i (1-based) is the lowest row to reach
    the columns from len(conj) up to its own length, so each of them has length i.
    """
    t = _check_partition(parts)
    conj: list[int] = []
    for i in range(len(t), 0, -1):
        conj.extend([i] * (t[i - 1] - len(conj)))
    return tuple(conj)


def hook_degree(parts) -> int:
    """Character degree of S_k at the partition: k! / product of hook lengths."""
    t = _check_partition(parts)
    conj = conjugate_partition(t)
    hooks = math.prod(row - j + conj[j] - i - 1 for i, row in enumerate(t) for j in range(row))
    degree, rem = divmod(math.factorial(sum(t)), hooks)
    if rem:
        raise AssertionError(f"hook product does not divide {sum(t)}! for {t}")
    return degree


def _words(k: int) -> np.ndarray:
    """The β-set word Σ_i 2^(λ_i + ℓ − 1 − i) of every partition λ of k, as int64.

    A new top row of length m on a partition μ with ℓ rows, none longer than
    m, keeps μ's beads and adds one at m + ℓ.  The words of n are built that
    way from those of n − m, m = 1..n, so they come ordered by largest part,
    and the partitions of n − m with largest part at most m are a prefix.
    """
    words = [np.zeros(1, np.int64)]
    ends = [[1]]  # ends[n][m]: how many partitions of n have largest part <= m
    for n in range(1, k + 1):
        below = [words[n - m][: ends[n - m][min(m, n - m)]] for m in range(1, n + 1)]
        sizes = list(map(len, below))
        w = np.concatenate(below)
        top = np.repeat(np.arange(1, n + 1, dtype=np.uint8), sizes)  # the new row's m
        w |= np.int64(1) << (np.bitwise_count(w) + top)
        ends.append(list(accumulate(sizes, initial=0)))
        words.append(w)
    return words[k]


def _prime_fields(k: int) -> list[tuple[int, int, int]]:
    """(p, offset, width) for each prime p <= k: a bit field wide enough for v_p(k!)."""
    fields = []
    offset = 0
    for p in [2] * (k >= 2) + odd_primes_up_to(k).tolist():
        width = sum(k // p**i for i in range(1, k.bit_length())).bit_length()
        fields.append((p, offset, width))
        offset += width
    return fields


def _packed(n: int, fields) -> int:
    """n's exponent of each field's prime, written into that field."""
    key = 0
    for p, offset, _ in fields:
        while n % p == 0:
            n //= p
            key += 1 << offset
    return key


def _degree_keys(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The packed key of each partition's S_k degree, and the indices of the self-conjugate ones.

    A hook of length h is a pair of positions x and x + h of the word with no
    bead at x and a bead at x + h, so the hooks of length h of every word are
    counted at once by np.bitwise_count(~w & (w >> h)).  A hook product H
    divides k!, so packed(k!) − Σ_h packed(h) · count_h never borrows from a
    prime's field: it is an exact int64 key for the degree k!/H.  A
    self-conjugate λ has λ₁ = ℓ(λ), so its top bead sits at 2ℓ − 1; among
    those, it is the one whose word reversed over 2ℓ bits is its complement.
    """
    k = _check_size(k)
    words = _words(k)
    fields = _prime_fields(k)
    packed = {h: _packed(h, fields) for h in range(2, k + 1)}  # hooks of length 1 add nothing
    key = np.full(len(words), sum(packed.values()), np.int64)  # packed(k!)
    holes = ~words
    for h, packed_h in packed.items():
        key -= np.bitwise_count(holes & (words >> h)) * np.int64(packed_h)

    rows = np.bitwise_count(words)
    square = np.flatnonzero((words >> (2 * rows - 1)) == 1)
    w, bits = words[square], 2 * rows[square].astype(np.int64)
    reverse = np.zeros_like(w)
    for x in range(k + 1):
        reverse |= ((w >> x) & 1) << (k - x)
    return key, square[(w ^ (reverse >> (k + 1 - bits))) == (1 << bits) - 1]


def _census(k: int, keys: np.ndarray, counts: np.ndarray) -> DegreeCensus:
    """The census with counts[i] irreducibles of the degree whose key is keys[i].

    The keys are distinct, so each degree is decoded once.  The primes go in
    runs whose share of k! stays below 2^63, so a run's part of every degree
    is one int64 product of power-table look-ups, and one Python multiply
    per run joins the parts.
    """
    fields = _prime_fields(k)
    top = _packed(math.factorial(k), fields)
    runs, share = [np.ones(len(keys), np.int64)], 1
    for p, offset, width in fields:
        v = (top >> offset) & ((1 << width) - 1)  # v_p(k!)
        if share * p**v >= 2**63:
            runs.append(np.ones(len(keys), np.int64))
            share = 1
        runs[-1] *= (p ** np.arange(v + 1, dtype=np.int64))[(keys >> offset) & ((1 << width) - 1)]
        share *= p**v
    degrees = runs[0].tolist()
    for run in runs[1:]:
        degrees = list(map(operator.mul, degrees, run.tolist()))
    order = sorted(range(len(degrees)), key=degrees.__getitem__)
    counts = counts.tolist()
    return DegreeCensus(cap=degrees[order[-1]], degrees=tuple(map(degrees.__getitem__, order)),
                        multiplicities=tuple(map(counts.__getitem__, order)))


def sym_degree_census(k: int) -> DegreeCensus:
    """Full degree census of S_k; degree-square sum equals k!."""
    k = _check_size(k)
    keys, _ = _degree_keys(k)
    census = _census(k, *np.unique(keys, return_counts=True))
    if census.sum_degree_squares() != math.factorial(k):
        raise AssertionError(f"S_{k} census degree-square sum != {k}!")
    return census


def alt_degree_census(k: int) -> DegreeCensus:
    """Full degree census of A_k for k >= 5.

    Each unordered pair {partition, transpose} contributes one degree; each
    self-conjugate partition contributes two irreducibles of half its
    degree.  Both are counted in key space: the 2-field sits at offset 0, so
    a half degree's key is one less, and with weight 1 per partition and 4
    per self-conjugate one every weighted count is twice a multiplicity.  An
    odd count, or a self-conjugate degree that is odd, is an AssertionError.
    """
    k = integer(k, "alternating census k", 5)
    keys, self_conjugate = _degree_keys(k)
    _, _, width = _prime_fields(k)[0]
    if not (keys[self_conjugate] & ((1 << width) - 1)).all():
        raise AssertionError(f"a self-conjugate partition of {k} has an odd degree")
    keys[self_conjugate] -= 1  # half the degree
    halves = keys[self_conjugate]
    keys, twice = np.unique(keys, return_counts=True)
    np.add.at(twice, np.searchsorted(keys, halves), 3)  # weight 4 per self-conjugate partition
    if (twice & 1).any():
        raise AssertionError(f"partitions of {k} of one degree do not pair with their transposes")
    census = _census(k, keys, twice >> 1)
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
    if not (s > 0 and math.isfinite(s)):
        raise ValueError(f"s must be finite and positive, got {s}")
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    try:
        census.cap**s  # every n**s of the walk is at most this
    except OverflowError:
        raise ValueError(f"n**s overflows a float at s={s} below the cap {census.cap}") from None
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


def _layer_sizes(ells, level: int) -> tuple[int, ...]:
    """The layer sizes as ints; ValueError unless all are integers and those
    up to tower level `level` exist and are >= 5."""
    try:
        ells = tuple(map(operator.index, ells))
    except TypeError:
        raise ValueError(f"layer sizes must be integers, got {ells!r}") from None
    if not 0 <= level < len(ells):
        raise ValueError(f"tower level {level} out of range for {len(ells)} layer sizes")
    if any(v < 5 for v in ells[: level + 1]):
        raise ValueError("layer sizes must all be >= 5")
    return ells


def wreath_log_order(ells, j: int) -> float:
    """log |W_j| for the tower W_0 = A_{l_0}, W_j = (A_{l_j})^(L_{j-1}) wr-ext W_{j-1},
    where L_{j-1} = l_0 * ... * l_{j-1}; each layer multiplies the order by
    (l_j! / 2)^(L_{j-1}).  Computed in log space via lgamma."""
    j = integer(j, "tower level j")
    ells = _layer_sizes(ells, j)
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
    r = integer(r, "tower level r", 1)
    ells = _layer_sizes(ells, r)
    log_prev = wreath_log_order(ells, r - 1)
    big_l = math.prod(ells[:r])
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

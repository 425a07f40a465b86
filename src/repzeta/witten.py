"""Witten zeta machinery: exhaustive dimension censuses and partial sums.

The Witten zeta function of a simple complex group is sum 1/dim^s over the
irreducibles; enumerating all dominant weights whose Weyl dimension stays
under a cap gives its census exactly.  Pruning the weight search is sound
because the dimension is strictly increasing in every weight coordinate.

The census engine walks the first r - 1 weight coordinates with an odometer
and cuts a prefix as soon as its dimension with the last coordinate t at 0
exceeds the cap.  For each surviving prefix the largest t within the cap is
found by doubling t and then bisecting, on exact integer numerators.  Every
dimension for t = 0..T then comes from one numpy product: the coroot values
that vary with t, times the product of the constant ones, divided exactly by
the product of the values at rho.  Every partial product is at most
cap * rho_product, so the dtype is int64 when that bound is below 2^62 and
numpy object (Python ints) otherwise, as for E8 and F4 at large caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .census import DegreeCensus
from .errors import BudgetExceededError
from .rootsystems import RootSystem

DEFAULT_CENSUS_BUDGET = 10_000_000
ABSCISSA_SAMPLE_POINTS = 32  # geometric sample points over the top decade of the census
ORDERED_EXP_DEPTH = 60  # largest index b_i in the truncated ordered exponential sums


def _last_within(const: int, linear: list[tuple[int, int]], limit: int) -> int:
    """Largest t with const * prod(v + b*t) <= limit, given that t = 0 qualifies
    and some b > 0: double t past the limit, then bisect."""

    def within(t: int) -> bool:
        return const * math.prod(v + b * t for v, b in linear) <= limit

    lo, hi = 0, 1
    while within(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if within(mid):
            lo = mid
        else:
            hi = mid
    return lo


def dimension_census(
    rs: RootSystem, max_dim: int, *, max_entries: int = DEFAULT_CENSUS_BUDGET
) -> DegreeCensus:
    """Census of all irreducible dimensions <= max_dim (complete, exact).

    Walks the first rank - 1 weight coordinates, cutting a prefix as soon as
    its dimension with the last coordinate at zero exceeds the cap (valid by
    coordinate monotonicity), and evaluates each surviving prefix along the
    last coordinate in one exact numpy product.  Raises BudgetExceededError
    if more than max_entries irreducibles would be recorded.
    """
    if max_dim < 1:
        raise ValueError(f"max_dim must be >= 1, got {max_dim}")
    if max_entries < 1:
        raise ValueError("max_entries must be >= 1")
    rho = rs.rho_product
    limit = max_dim * rho  # dim <= max_dim exactly when its numerator <= limit
    dtype = np.int64 if limit < 2**62 else object
    heads = [row[:-1] for row in rs.coroot_matrix]
    slopes = [row[-1] for row in rs.coroot_matrix]
    prefix = [0] * (rs.rank - 1)
    chunks = []
    recorded = 0
    while True:
        values = [c + sum(b * x for b, x in zip(head, prefix) if b)
                  for head, c in zip(heads, rs.rho_values)]
        if math.prod(values) > limit:
            # the last nonzero coordinate was just raised: reset it, carry left
            k = max(i for i, x in enumerate(prefix) if x)
            prefix[k] = 0
            if k == 0:
                break
            prefix[k - 1] += 1
            continue
        const = math.prod(v for v, b in zip(values, slopes) if not b)
        linear = [(v, b) for v, b in zip(values, slopes) if b]
        last = _last_within(const, linear, limit)
        recorded += last + 1
        if recorded > max_entries:
            raise BudgetExceededError(
                f"dimension census for {rs.label()} exceeded budget of "
                f"{max_entries} irreducibles below {max_dim}"
            )
        t = np.arange(last + 1, dtype=dtype)
        num = np.full(last + 1, const, dtype=dtype)
        for v, b in linear:
            num *= v + b * t
        if (num % rho).any():
            raise AssertionError(
                f"Weyl dimension formula did not divide exactly along {rs.label()} prefix {prefix}"
            )
        chunks.append(num // rho)
        if not prefix:
            break
        prefix[-1] += 1
    dims, counts = np.unique(np.concatenate(chunks), return_counts=True)
    del chunks
    degrees, mults = dims.tolist(), counts.tolist()
    del dims, counts
    return DegreeCensus(cap=max_dim, degrees=tuple(degrees), multiplicities=tuple(mults))


def zeta_partial(census: DegreeCensus, s: float) -> float:
    """Partial zeta sum: multiplicity * degree^(-s), ascending degree order."""
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    return census.zeta(s)


@dataclass(frozen=True)
class AbscissaEstimate:
    slope: float
    raw_ratio: float
    sample_points: tuple[tuple[int, int], ...]


def abscissa_estimate(census: DegreeCensus) -> AbscissaEstimate:
    """Estimate the growth exponent of R(n) from the top decade of the census.

    Fits log R(n) against log n by least squares at geometrically spaced n in
    [cap/10, cap]; also reports the raw ratio log R(cap) / log cap.  Needs a
    cap of at least 100 and at least 10 usable sample points.
    """
    n_max = census.cap
    if n_max < 100:
        raise ValueError(f"census cap {n_max} too small for an abscissa estimate (need >= 100)")
    lo = n_max / 10.0
    samples: list[tuple[int, int]] = []
    seen: set[int] = set()
    for i in range(ABSCISSA_SAMPLE_POINTS):
        n = round(lo * 10.0 ** (i / (ABSCISSA_SAMPLE_POINTS - 1)))
        n = min(max(n, 1), n_max)
        if n in seen:
            continue
        seen.add(n)
        rn = census.cumulative(n)
        if rn > 0:
            samples.append((n, rn))
    if len(samples) < 10:
        raise ValueError(f"only {len(samples)} usable sample points, need >= 10")
    xs = [math.log(n) for n, _ in samples]
    ys = [math.log(rn) for _, rn in samples]
    k = len(xs)
    xbar = sum(xs) / k
    ybar = sum(ys) / k
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    r_cap = census.cumulative(n_max)
    raw = math.log(r_cap) / math.log(n_max)
    return AbscissaEstimate(slope=slope, raw_ratio=raw, sample_points=tuple(samples))


@dataclass(frozen=True)
class OrderedExpSeriesReport:
    """Convergence report for sum over 1 <= b_1 < ... < b_k of exp(sum a_i b_i)."""

    coefficients: tuple[float, ...]
    suffix_sums: tuple[float, ...]
    converges: bool
    closed_form: float | None
    truncated: float

    @property
    def agreement_gap(self) -> float | None:
        if self.closed_form is None:
            return None
        return abs(self.truncated - self.closed_form)


def _truncated_ordered_exp_sum(coeffs: tuple[float, ...], depth: int) -> float:
    """Direct evaluation of the series with every index b_i <= depth; inf when
    the sum overflows a float.

    The recursion runs on logarithms, so an inner partial sum too large for a
    float can still be cut down by a very negative outer coefficient."""
    k = len(coeffs)
    # g[i][b] = log of the partial sum over choices of b_i >= b, ..., b_k, all <= depth
    nxt = [0.0] * (depth + 2)
    for i in range(k - 1, -1, -1):
        cur = [-math.inf] * (depth + 2)
        for b in range(depth, 0, -1):
            cur[b] = _log_add(cur[b + 1], coeffs[i] * b + nxt[b + 1])
        nxt = cur
    try:
        return math.exp(nxt[1])
    except OverflowError:
        return math.inf


def _log_add(x: float, y: float) -> float:
    """log(e^x + e^y), with -inf for an empty sum."""
    hi, lo = max(x, y), min(x, y)
    if lo == -math.inf or hi == math.inf:
        return hi
    return hi + math.log1p(math.exp(lo - hi))


def ordered_exp_series_check(coefficients) -> OrderedExpSeriesReport:
    """Convergence test for sum_{1<=b_1<...<b_k} exp(a_1 b_1 + ... + a_k b_k).

    The series converges exactly when every suffix sum a_i + ... + a_k is
    negative, in which case it equals

        prod_{i=1..k} exp(S_i) / (1 - exp(S_i)),   S_i = a_i + ... + a_k,

    with each 1 - exp(S_i) taken as -expm1(S_i), so that a suffix sum near 0
    keeps its digits.  The truncated sum (every b_i <= ORDERED_EXP_DEPTH) is
    returned alongside so the closed form can be checked numerically; it is
    inf when it overflows a float, as a divergent series soon does.
    """
    coeffs = tuple(float(a) for a in coefficients)
    if not coeffs:
        raise ValueError("need at least one coefficient")
    if ORDERED_EXP_DEPTH < len(coeffs):
        raise ValueError(
            f"depth {ORDERED_EXP_DEPTH} too small for {len(coeffs)} nested indices"
        )
    suffix: list[float] = []
    acc = 0.0
    for a in reversed(coeffs):
        acc += a
        suffix.append(acc)
    suffix.reverse()
    converges = all(s < 0 for s in suffix)
    closed = None
    if converges:
        closed = 1.0
        for s in suffix:  # a factor alone may overflow where the product does not
            closed = closed * math.exp(s) / -math.expm1(s)
    return OrderedExpSeriesReport(
        coefficients=coeffs,
        suffix_sums=tuple(suffix),
        converges=converges,
        closed_form=closed,
        truncated=_truncated_ordered_exp_sum(coeffs, ORDERED_EXP_DEPTH),
    )

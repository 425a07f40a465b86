"""Witten zeta machinery: exhaustive dimension censuses and partial sums.

The Witten zeta function of a simple complex group is sum 1/dim^s over the
irreducibles; enumerating all dominant weights whose Weyl dimension stays
under a cap gives its census exactly.  Pruning the weight search is sound
because the dimension is strictly increasing in every weight coordinate.

The census engine fixes the weight coordinates one level at a time.  Its
frontier is an array of prefixes, each row holding the coroot values of its
weight with the coordinates not yet fixed at 0; every row is within the cap.
At coordinate i it finds, for all rows at once, the largest x_i that keeps
the row within the cap, and expands every row into x_i + 1 rows with
np.repeat and one arange, each row shifted back by its start so that the
arange counts x_i within its group.  The search runs in float64 log space,
sum_j log(v_j + b_j x) against log(cap * rho_product): a closed-form lower
bracket, Newton steps that cannot overshoot (the sum is concave in x), and
then exact +-1 steps.  A row is decided by the float sum only when that sum
is further from the boundary than a stated error bound; any row inside that
margin is decided by its exact integer product, so every membership
decision is exact.  The last level builds the exact numerators one coroot
column at a time and divides them exactly by the product of the values at
rho.  Every partial product is at most cap * rho_product, so the dtype is
int64 when that bound is below 2^62 and numpy object (Python ints)
otherwise, as for E8 and F4 at large caps.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .census import DegreeCensus
from .errors import BudgetExceededError, integer
from .rootsystems import RootSystem

DEFAULT_CENSUS_BUDGET = 10_000_000
ABSCISSA_SAMPLE_POINTS = 32  # geometric sample points over the top decade of the census
_NEWTON_STEPS = 64  # cap on the Newton steps of one level; the exact steps finish the job


def _largest_steps(values, b, limit: int, bound: int) -> np.ndarray:
    """For each frontier row (its coroot values), the largest x <= bound with
    prod(values + b*x) <= limit, exactly.  x = 0 qualifies for every row.

    g(x) = sum_j log(v_j + b_j x) - log(limit) is computed in float64, and
    every v_j >= 1, so every log is >= 0.  With u = 2^-53: forming v_j + b_j x
    takes at most 3 roundings, which moves its log by about 3u; numpy's log
    is within a few ulps, at most 8u times the log; and the float sum of the
    kappa + 2 terms errs by at most (kappa + 1) u times the sum of their
    sizes.  For a row whose logs sum to S <= 2 L + 1, with L = log(limit),
    the total is below 32 kappa u (L + 1) = 2^-48 kappa (L + 1); a row with
    a larger S has g > L + 1, far beyond its error.  The margin
    2^-40 kappa (L + 1) keeps a factor of 256 over that bound: a float g
    beyond it has the sign of the exact g, and a row inside it is decided by
    its exact integer product.
    """
    log_limit = math.log(limit)
    margin = 2.0**-40 * len(b) * (log_limit + 1.0)
    on = b > 0  # the coroots that move with x; every level has some
    slope = b[on].astype(np.float64)
    vf = values.astype(np.float64)
    w = vf[:, on]
    base = np.log(vf[:, ~on]).sum(axis=1) - log_limit

    def within(rows, x):
        gx = base[rows] + np.log(w[rows] + slope * x[:, None]).sum(axis=1)
        inside = gx < -margin
        near = np.abs(gx) <= margin
        if near.any():
            exact = values[rows[near]].astype(object) + x[near].astype(object)[:, None] * b
            inside[near] = exact.prod(axis=1) <= limit
        return inside

    # Closed-form lower bracket.  With r_j = b_j / v_j and D = -g(0), the sum
    # h(x) = sum log(1 + r_j x) is at most m log(1 + x max r) and at most
    # x sum r, so both expm1(D/m) / max r and D / sum r have h <= D.  D/m
    # is held at 600, which keeps the bracket finite and still past any bound.
    ratio = slope / w
    gap = -base - np.log(w).sum(axis=1)
    x = np.maximum(np.expm1(np.minimum(gap / len(slope), 600.0)) / ratio.max(axis=1),
                   gap / ratio.sum(axis=1))
    x = np.minimum(x, bound)
    # Newton on the concave g, started below its root, stays below it; a
    # row held at the bound stops moving.
    for _ in range(_NEWTON_STEPS):
        s = w + slope * x[:, None]
        step = np.minimum((-base - np.log(s).sum(axis=1)) / (slope / s).sum(axis=1), bound - x)
        x += step
        if (step < 0.5).all():
            break
    # A root at an integer (a cap equal to a dimension) can come out a
    # rounding error below it, so nudge it before the floor.  Then exact +-1
    # steps: each row ends with x within and x + 1 outside or past the bound.
    x = np.floor(np.maximum(x, 0.0) + 1e-3).astype(np.int64)
    rows = np.arange(len(x))
    while rows.size:
        xr = x[rows]
        fits, next_fits = within(np.concatenate((rows, rows)),
                                 np.concatenate((xr, xr + 1))).reshape(2, -1)
        move = (next_fits & (xr < bound)).astype(np.int64) - ~fits  # +1, -1 or 0
        x[rows] += move
        rows = rows[move != 0]
    return x


def dimension_census(
    rs: RootSystem, max_dim: int, *, max_entries: int = DEFAULT_CENSUS_BUDGET
) -> DegreeCensus:
    """Census of all irreducible dimensions <= max_dim (complete, exact).

    Fixes the weight coordinates one level at a time over a frontier of
    prefixes (valid by coordinate monotonicity), and builds every dimension
    of the last level in one exact numpy product per coroot.  Raises
    BudgetExceededError if more than max_entries irreducibles would be
    recorded, before the frontier that would hold them is allocated.
    """
    max_dim, max_entries = integer(max_dim, "max_dim", 1), integer(max_entries, "max_entries", 1)
    rho = rs.rho_product
    limit = max_dim * rho  # dim <= max_dim exactly when its numerator <= limit
    dtype = np.int64 if limit < 2**62 else object
    coroots = np.array(rs.coroot_matrix, dtype=np.int64)
    values = np.array([rs.rho_values], dtype=dtype)  # the frontier: the empty prefix
    # no row may step past the budget, and x stays exact in float64 and
    # int64; a frontier of 2^53 rows could not be allocated anyway
    bound = min(max_entries, 2**53) + 1
    for i in range(rs.rank):
        b = coroots[:, i]
        counts = _largest_steps(values, b, limit, bound) + 1
        # each row of the expanded frontier is an irreducible within the cap
        # (its other coordinates at 0), so its size is a lower bound on the
        # census; the float sum is exact below 2^53 and cannot wrap above it
        size = counts.sum(dtype=np.float64)
        if size > max_entries:
            raise BudgetExceededError(
                f"dimension census for {rs.label()} exceeded budget of "
                f"{max_entries} irreducibles below {max_dim}"
            )
        size = int(size)
        # row r becomes rows start[r] .. start[r] + counts[r] - 1; row k of
        # those has x = k - start[r], so its values are values[r] - b*start[r] + b*k
        start = np.cumsum(counts) - counts
        values = values - start[:, None] * b
        k = np.arange(size)
        if i < rs.rank - 1:
            values = np.repeat(values, counts, axis=0) + k[:, None] * b
    # the last level, one coroot column at a time
    on = np.flatnonzero(b)
    num = np.repeat(values[:, on[0]], counts) + b[on[0]] * k
    for j in on[1:]:
        num *= np.repeat(values[:, j], counts) + b[j] * k
    if len(on) < len(b):  # the coroots that do not move at the last level
        num *= np.repeat(values[:, b == 0].prod(axis=1), counts)
    del k, values
    if (num % rho).any():
        raise AssertionError(f"Weyl dimension formula did not divide exactly in the {rs.label()} census")
    num //= rho
    dims, counts = np.unique(num, return_counts=True)
    del num
    degrees, mults = dims.tolist(), counts.tolist()
    del dims, counts
    return DegreeCensus(cap=max_dim, degrees=tuple(degrees), multiplicities=tuple(mults))


def zeta_partial(census: DegreeCensus, s: float) -> float:
    """Partial zeta sum of multiplicity * degree^(-s), as DegreeCensus.zeta."""
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
    grid = sorted({min(max(round(lo * 10.0 ** (i / (ABSCISSA_SAMPLE_POINTS - 1))), 1), n_max)
                   for i in range(ABSCISSA_SAMPLE_POINTS)})  # the grid never falls as i grows
    samples = [(n, rn) for n in grid if (rn := census.cumulative(n)) > 0]
    if len(samples) < 10:
        raise ValueError(f"only {len(samples)} usable sample points, need >= 10")
    xs = [math.log(n) for n, _ in samples]
    ys = [math.log(rn) for _, rn in samples]
    slope = statistics.linear_regression(xs, ys).slope
    r_cap = census.cumulative(n_max)
    raw = math.log(r_cap) / math.log(n_max)
    return AbscissaEstimate(slope=slope, raw_ratio=raw, sample_points=tuple(samples))

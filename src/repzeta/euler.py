"""Global zeta as an Euler product: archimedean factor times SL2 local factors.

For the rank-one arithmetic lattice the global representation zeta function
factors into a Witten-zeta archimedean part (one factor per archimedean
place) and the product of the exact SL2 local factors over odd primes.  The
A1 Witten zeta is the Riemann zeta, so the archimedean factor truncated at a
census cap N is the partial sum of n^(-s) over n <= N: an O(1) closed form by
Euler-Maclaurin whose remainder is bounded below an ulp, with the census only
supplying N.  On s in [2, 3] every local factor is squeezed between
(1 - q^(1-s))^(-1/2) and (1 - q^(1-s))^(-100), so the product inherits
divergence at s = 2 from the square root of the zeta pole and convergence
beyond it.  The partial product and the divergence probe share one fold over
the sieved odd primes: log1p of each local factor's excess over 1, each
segment of primes between two bounds summed on its own by numpy's pairwise
sum.  Every check is decided on that log scale, never on floats rounded near
1: the sandwich reads log1p of the excess, and the probe's steps come from its
segment sums.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .census import DegreeCensus
from .errors import integer
from .numtheory import odd_primes_up_to
from .sl2local import _excess, sl2_local_excess
from .witten import DEFAULT_CENSUS_BUDGET

ARCHIMEDEAN_TAIL_TOLERANCE = 1e-8
_BLOCK = 8192  # primes per _excess call: on the probe to 10^6, 4096 is slower and 16384 no faster


@dataclass(frozen=True)
class EulerProductConfig:
    s: float
    prime_bound: int
    archimedean_exponent: int = 1

    def __post_init__(self):  # frozen: the checked ints are stored past __setattr__
        object.__setattr__(self, "prime_bound", integer(self.prime_bound, "prime bound", 3))
        object.__setattr__(self, "archimedean_exponent",
                           integer(self.archimedean_exponent, "archimedean exponent", 0))


def _odd_prime_fold(s: float, bounds: tuple[int, ...]) -> np.ndarray:
    """Log of the odd-prime partial product over the primes up to bounds[0] and
    over each (bounds[i-1], bounds[i]], as row 0; the s = 2 comparator's terms
    -(1/2) log(1 - 1/p) likewise as row 1.  Each segment is summed on its own
    (pairwise), so its log-gap keeps full relative precision."""
    primes = odd_primes_up_to(bounds[-1])
    ends = np.searchsorted(primes, bounds, side="right")
    excess = [_excess(primes[i:i + _BLOCK], s) for i in range(0, primes.size, _BLOCK)]
    terms = np.stack((np.log1p(np.concatenate(excess)), -0.5 * np.log1p(-1.0 / primes)))
    return np.array([terms[:, a:b].sum(axis=1) for a, b in zip((0, *ends[:-1]), ends)]).T


def _archimedean_tail(cap: int, s: float) -> float:
    """The bound cap^(1-s) / (s-1) on the A1 Witten zeta's terms past cap."""
    return cap ** (1.0 - s) / (s - 1.0)


# B_2j / (2j)! for j = 1..8: the coefficients of the Euler-Maclaurin corrections
_CORRECTIONS = tuple(float(b / math.factorial(2 * j)) for j, b in enumerate((
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510)), 1))
_DIRECT = 16  # the A1 zeta adds its terms below this one by one, the rest by Euler-Maclaurin


def _power_sum(s: float, n: int, m: int) -> tuple[float, float]:
    """The sum of k^(-s) over k <= n, for s > 1 and n >= m >= 1, and a bound on
    its Euler-Maclaurin remainder.

    The terms k < m are added directly.  The terms from m to n are their integral,
    written with expm1 so that s near 1 does not cancel, the two half-endpoint
    terms and K = 8 corrections B_2j/(2j)! (s)_(2j-1) (m^(1-s-2j) - n^(1-s-2j)),
    with (s)_i the rising factorial; fsum adds all of them.  The remainder is at
    most 2 zeta(2K)/(2 pi)^(2K) times the integral of |d^2K/dx^2K x^(-s)| from m
    to n, so below 2 zeta(2K)/(2 pi)^(2K) (s)_(2K-1) m^(1-s-2K), and
    2 zeta(2K)/(2 pi)^(2K) is |B_2K|/(2K)!.
    """
    fm, fn = m ** -s, n ** -s
    terms = [k ** -s for k in range(1, m)]
    terms += [-m * fm * math.expm1((1.0 - s) * math.log(n / m)) / (s - 1.0), fm / 2, fn / 2]
    rising = s  # (s)_(2j-1)
    for j, c in enumerate(_CORRECTIONS, 1):
        if j > 1:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
        terms.append(c * rising * (fm * m ** (1 - 2 * j) - fn * n ** (1 - 2 * j)))
    remainder = abs(_CORRECTIONS[-1]) * rising * fm * m ** (1 - 2 * len(_CORRECTIONS))
    return math.fsum(terms), remainder


def _a1_zeta(cap: int, s: float) -> float:
    """The A1 Witten zeta truncated at cap: the sum of n^(-s) over n <= cap, s > 1.

    Below cap 2 * _DIRECT, and at s where the terms from _DIRECT on add up to
    less than 2^-60 (the sum is at least 1, whose ulp is 2^-52), the terms up to
    min(cap, 2 * _DIRECT) are added directly, so the sum is 1.0 at s = inf.
    Otherwise it is _power_sum, whose remainder bound must be below 1/16 ulp.
    """
    m = _DIRECT
    if cap < 2 * m or m ** -s * (1 + m / (s - 1.0)) < 2.0**-60:
        return math.fsum(n ** -s for n in range(1, min(cap, 2 * m) + 1))
    total, remainder = _power_sum(s, cap, m)
    if remainder > math.ulp(total) / 16:
        raise ArithmeticError(f"Euler-Maclaurin remainder bound {remainder:.2e} of the A1 zeta "
                              f"at s = {s}, cap {cap} is not below 1/16 ulp of {total!r}")
    return total


def _a1_difference(census: DegreeCensus) -> str:
    """Where the census first differs from the A1 census to its cap: a degree
    that is not its position, or a multiplicity that is not 1."""
    for n, (d, m) in enumerate(census.items(), 1):
        if d != n:
            return f"degree {d} at position {n}"
        if m != 1:
            return f"multiplicity {m} at degree {d}"
    return f"the degrees 1 to {len(census)}, each once"


def global_partial_product(
    cfg: EulerProductConfig,
    witten_census: DegreeCensus | None,
    *,
    acknowledge_divergence: bool = False,
) -> float:
    """Partial global zeta: (truncated archimedean zeta)^a * prod of local factors.

    A finite limit needs s > 2: for 1 < s <= 2 the product diverges as the prime
    bound grows, and acknowledge_divergence lifts only that refusal.  The census
    supplies the cap N and nothing else: it must be the A1 census to N, which is
    checked by its length, its last degree and its multiplicities, all 1.  The
    truncated archimedean zeta is the sum of n^(-s) over n <= N, an O(1) closed
    form whose remainder is bounded below an ulp (_a1_zeta).  At every s the cap
    must leave an archimedean truncation error below 1e-8.  The local factors'
    logs are summed pairwise; a product that is not a finite float is a ValueError.
    """
    s = cfg.s
    if not s > 1:
        raise ValueError(f"s must exceed 1, got {s}")
    if s <= 2 and not acknowledge_divergence:
        raise ValueError(
            f"s = {s} is at or below the divergence point 2; "
            "pass acknowledge_divergence=True to probe anyway"
        )
    log_total = 0.0
    if cfg.archimedean_exponent:
        if witten_census is None:
            raise ValueError("archimedean exponent > 0 needs a Witten census")
        cap = witten_census.cap
        tail = _archimedean_tail(cap, s)
        if tail > ARCHIMEDEAN_TAIL_TOLERANCE:
            problem = (f"census cap {cap} leaves archimedean tail ~{tail:.2e} "
                       f"above {ARCHIMEDEAN_TAIL_TOLERANCE}; ")
            # A1 to cap N has N irreducibles, so no census past the budget can be built
            if _archimedean_tail(DEFAULT_CENSUS_BUDGET, s) > ARCHIMEDEAN_TAIL_TOLERANCE:
                raise ValueError(problem + "no A1 census within the budget of "
                                 f"{DEFAULT_CENSUS_BUDGET} irreducibles reaches it at s = {s} "
                                 "(--arch-exponent 0 leaves the archimedean factor out)")
            caps = range(cap + 1, DEFAULT_CENSUS_BUDGET + 1)
            need = caps[bisect_left(
                caps, True, key=lambda n: _archimedean_tail(n, s) <= ARCHIMEDEAN_TAIL_TOLERANCE)]
            raise ValueError(problem + f"raise the A1 census cap (--max-dim) to at least {need}")
        if not (len(witten_census) == cap and witten_census.degrees[-1:] == (cap,)
                and witten_census.multiplicities.count(1) == cap):
            raise ValueError(f"the archimedean factor needs the A1 census to its cap, "
                             f'dimension_census(build_root_system("A", 1), {cap}); got '
                             + _a1_difference(witten_census))
        log_total += cfg.archimedean_exponent * math.log(_a1_zeta(cap, s))
    (log_local,), _ = _odd_prime_fold(s, (cfg.prime_bound,))
    try:
        return math.exp(log_total + log_local)
    except OverflowError:
        raise ValueError(f"the partial product at s={s} is not a finite float") from None


@dataclass(frozen=True)
class SandwichResult:
    q: int
    s: float
    lower: float
    value: float
    upper: float
    ok: bool


def sandwich_check(q: int, s: float) -> SandwichResult:
    """Check (1-q^(1-s))^(-1/2) < local factor < (1-q^(1-s))^(-100) on s in [2,3]
    as t/2 < log1p(excess) < 100 t, t = -log1p(-q^(1-s)): at large q all three
    factors round to 1.0, while the logs keep their relative precision."""
    if not 2 <= s <= 3:
        raise ValueError(f"sandwich is stated for s in [2, 3], got {s}")
    q = integer(q, "q")
    excess = sl2_local_excess(q, s)  # checks q before base**-0.5 divides by zero at q = 1
    x = q ** (1.0 - s)
    base, t = 1.0 - x, -math.log1p(-x)
    return SandwichResult(q=q, s=s, lower=base**-0.5, value=1.0 + excess, upper=base**-100.0,
                          ok=t / 2 < math.log1p(excess) < 100 * t)


@dataclass(frozen=True)
class DivergenceProbeReport:
    """Partial products of the odd-prime local factors along a bound schedule.

    At s = 2 the log-product must exceed the comparator
    (1/2) * sum over odd p <= P of -log(1 - 1/p)  (half the log of the
    truncated zeta pole), and does so at every step while growing without
    visible bound; `passed` is the verdict.  For every s the successive
    differences of values are reported, taken without cancellation, and
    `strictly_increasing` reads them.  They do not by themselves tell convergence
    from divergence: on a decade schedule they shrink at s = 2 as well as above
    it.  Above s = 2 the log-gap between bounds follows the convergent tail sum
    over p of p^(1-s), which is what stabilization is judged against.
    """

    s: float
    prime_bounds: tuple[int, ...]
    values: tuple[float, ...]
    log_values: tuple[float, ...]
    comparators_log: tuple[float, ...] | None
    differences: tuple[float, ...]

    @property
    def strictly_increasing(self) -> bool:
        return all(d > 0 for d in self.differences)

    @property
    def exceeds_comparator(self) -> bool:
        if self.comparators_log is None:
            return True
        return all(lv > cv for lv, cv in zip(self.log_values, self.comparators_log))

    @property
    def passed(self) -> bool:
        return self.strictly_increasing and self.exceeds_comparator

    def to_json_dict(self) -> dict:
        return {
            **asdict(self),
            "strictly_increasing": self.strictly_increasing,
            "exceeds_comparator": self.exceeds_comparator,
        }


def divergence_probe(s: float, prime_bounds) -> DivergenceProbeReport:
    """Evaluate the odd-prime partial products at each bound in the schedule.

    s = 2 probes the divergence point (with the zeta-pole comparator);
    2 < s <= 3 probes convergence.  The schedule must be strictly increasing.
    """
    bounds = tuple(integer(b, "prime bound", 3) for b in prime_bounds)
    if len(bounds) < 2 or any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise ValueError("prime bound schedule must be strictly increasing, length >= 2")
    if not 2 <= s <= 3:
        raise ValueError(f"probe covers s in [2, 3], got {s}")
    gaps, comparator_gaps = _odd_prime_fold(s, bounds)
    log_values = np.cumsum(gaps).tolist()
    values = tuple(math.exp(lv) for lv in log_values)
    # values[i+1] - values[i] without the cancellation of two rounded values
    diffs = tuple(v * math.expm1(g) for v, g in zip(values, gaps[1:].tolist()))
    return DivergenceProbeReport(
        s=s,
        prime_bounds=bounds,
        values=values,
        log_values=tuple(log_values),
        comparators_log=tuple(np.cumsum(comparator_gaps).tolist()) if s == 2 else None,
        differences=diffs,
    )

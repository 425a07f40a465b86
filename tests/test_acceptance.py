"""Acceptance suite: nine end-to-end criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each criterion computes its own evidence from scratch through the public API,
prints exactly one [PASS]/[FAIL] line, and then asserts.
"""

import math
import random
from fractions import Fraction

from repzeta.bounds import isotropic_abscissa_audit
from repzeta.euler import divergence_probe, sandwich_check
from repzeta.finitequotients import (
    QuotientRing,
    build_sl2_group,
    class_growth_exponents,
    conjugacy_classes,
)
from repzeta.rootsystems import build_root_system, log_dim_gap, weyl_dim, witten_abscissa
from repzeta.symalt import (
    alt_degree_census,
    alt_zeta,
    alt_zeta_exact,
    perfect_group_count_bound,
    sym_alt_count_inequality,
    sym_degree_census,
)
from repzeta.witten import abscissa_estimate, dimension_census, zeta_partial


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")


def test_criterion_1_dimension_growth_slopes():
    cap = 10**6
    targets = [("A", 1), ("A", 2), ("C", 2), ("G", 2), ("A", 3)]
    errors = {}
    for series, rank in targets:
        rs = build_root_system(series, rank)
        est = abscissa_estimate(dimension_census(rs, cap))
        errors[rs.label()] = abs(est.slope - float(witten_abscissa(rs)))
    ok = errors["A1"] < 1e-9 and all(e < 0.08 for e in errors.values())
    _verdict(1, ok, "growth slopes at cap 1e6 within 0.08 of the exact exponents "
                    f"(A1 exact; worst error {max(errors.values()):.4f})")
    assert errors["A1"] < 1e-9
    for label, err in errors.items():
        assert err < 0.08, (label, err)


def test_criterion_2_a1_zeta_with_integral_tail():
    cap = 10**6
    census = dimension_census(build_root_system("A", 1), cap)
    partial = zeta_partial(census, 2.0)
    lo = partial + 1.0 / (cap + 1)
    hi = partial + 1.0 / cap
    target = math.pi**2 / 6.0
    ok = lo <= target <= hi and (hi - lo) < 1e-6 and abs((lo + hi) / 2 - target) < 1e-6
    _verdict(2, ok, f"partial sum + integral tail brackets pi^2/6 "
                    f"(bracket width {hi - lo:.2e})")
    assert lo <= target <= hi
    assert hi - lo < 1e-6
    assert abs((lo + hi) / 2 - target) < 1e-6


EXPECTED_CLASS_COUNTS = {
    (3, 1): 7, (3, 2): 25, (3, 3): 79, (5, 1): 9, (5, 2): 49, (7, 1): 11,
}


def test_criterion_3_brute_force_class_counts_both_flavors():
    observed = {}
    for (p, k), expected in sorted(EXPECTED_CLASS_COUNTS.items()):
        for flavor in ("char0", "charp"):
            group = build_sl2_group(QuotientRing(p, k, flavor))
            observed[(p, k, flavor)] = conjugacy_classes(group).count
    ok = all(
        observed[(p, k, "char0")] == observed[(p, k, "charp")] == expected
        for (p, k), expected in EXPECTED_CLASS_COUNTS.items()
    )
    _verdict(3, ok, "brute-force class counts match the closed formula and agree "
                    "across both ring flavors for all six (p, level) pairs")
    for (p, k), expected in EXPECTED_CLASS_COUNTS.items():
        assert observed[(p, k, "char0")] == expected, (p, k)
        assert observed[(p, k, "charp")] == expected, (p, k)


def test_criterion_4_class_growth_descends_toward_one():
    counts = {k: EXPECTED_CLASS_COUNTS[(3, k)] for k in (1, 2, 3)}
    gammas = class_growth_exponents(counts, 3)
    transforms = [2 * g / (3 - g) for g in gammas]
    ok = (
        all(a > b for a, b in zip(gammas, gammas[1:]))
        and all(t > 1.0 for t in transforms)
        and all(a > b for a, b in zip(transforms, transforms[1:]))
    )
    _verdict(4, ok, "level exponents decrease and the induced abscissa estimates "
                    f"approach 1 from above ({', '.join(f'{t:.4f}' for t in transforms)})")
    assert all(a > b for a, b in zip(gammas, gammas[1:]))
    assert all(t > 1.0 for t in transforms)
    assert all(a > b for a, b in zip(transforms, transforms[1:]))


def test_criterion_5_global_audit_floor():
    report = isotropic_abscissa_audit(50, 50)
    only_at_top = (
        report.global_min == Fraction(1, 15)
        and len(report.min_cases) == 1
        and "E8" in report.min_cases[0]
    )
    ok = report.passed and only_at_top
    _verdict(5, ok, f"audit over {len(report.rows)} rows: minimum {report.global_min} "
                    f"attained only at the Coxeter-30 exceptional row")
    assert report.passed
    assert report.global_min == Fraction(1, 15)
    assert len(report.min_cases) == 1 and "E8" in report.min_cases[0]


def test_criterion_6_sandwich_bounds(odd_prime_powers):
    qs = odd_prime_powers(97)
    assert len(qs) == 29
    failures = []
    for q in qs:
        for s in (2.0, 2.25, 2.5, 2.75, 3.0):
            result = sandwich_check(q, s)
            if not result.ok:
                failures.append((q, s))
    ok = not failures
    _verdict(6, ok, "local values sit inside the sandwich bounds for every odd "
                    "prime power up to 97 at five exponents")
    assert not failures, failures


def test_criterion_7_divergence_probe_and_stabilization(odd_primes_by_sieve):
    schedule = [10**2, 10**3, 10**4, 10**5]
    at_two = divergence_probe(2.0, schedule)
    part1 = at_two.passed
    s = 2.2
    above = divergence_probe(s, schedule)
    final_gap = abs(above.values[-1] - above.values[-2])
    # Clause 2: above s = 2 the log-product converges by the tail law of its
    # local factors.  From the closed form's level-1 degrees, as q -> oo:
    #   four characters of degree (q +- 1)/2      give  4 * 2^s * q^(-s)
    #   one of degree q                           gives q^(-s)
    #   the (q-3)/2 and (q-1)/2 of degree q +- 1  give  q^(1-s) - 2 q^(-s)
    #   levels >= 2 and the log's square term     give  O(q^(2-2s))
    # so log zeta_q(s) = q^(1-s) + (4 * 2^s - 1) q^(-s) + O(q^(2-2s)).  Over a
    # segment of primes the log-gap g therefore sits above S = sum p^(1-s),
    # and below S + 4 * 2^s * E with E = sum p^(-s): the one spare p^(-s) per
    # prime covers the O(p^(2-2s)) = O(p^(2-s) * p^(-s)) remainder for s > 2.
    # S sums to a finite tail for s > 2, so the product stabilizes, but no
    # faster than sum_{p > P} p^(1-s): a move of 1e-6 between 1e4 and 1e5 is
    # out of reach at s = 2.2.
    primes = odd_primes_by_sieve(schedule[-1])
    segments = []
    for lo, hi, log_lo, log_hi in zip(schedule, schedule[1:], above.log_values, above.log_values[1:]):
        segment = [p for p in primes if lo < p <= hi]
        tail_sum = sum(p ** (1.0 - s) for p in segment)
        excess = sum(p ** (-s) for p in segment)
        segments.append((log_hi - log_lo, tail_sum, excess))
    part2 = all(S < g < S + 4 * 2**s * E for g, S, E in segments)
    g, S, E = segments[-1]
    tail_bound = schedule[-1] ** (2.0 - s) / (s - 2.0)
    evidence = (
        f"log-gap over (1e4, 1e5] {g:.6f} vs sum p^(1-s) {S:.6f}, sum p^(-s) {E:.4g}; "
        f"final gap {final_gap:.4g}; log-tail beyond 1e5 <= {tail_bound:.2g}"
    )
    ok = part1 and part2
    _verdict(7, ok, "probe grows without bound at s=2 "
                    f"({'ok' if part1 else 'violated'}) and follows the convergent "
                    f"tail law at s=2.2 ({evidence})")
    assert part1
    assert part2, (
        "log-gaps at s=2.2 leave sum p^(1-s) < g < sum p^(1-s) + 4*2^s*sum p^(-s) "
        f"on some segment: {segments}; {evidence}"
    )


def test_criterion_8_alternating_degrees():
    zetas = [alt_zeta(k, 1.0) for k in range(5, 15)]
    decreasing = all(a > b for a, b in zip(zetas, zetas[1:]))
    exact_ok = alt_zeta_exact(5, 1) == Fraction(127, 60) and abs(zetas[0] - 127 / 60) < 1e-12
    bounds_ok = all(
        perfect_group_count_bound(alt_degree_census(k), 1.0, 1.0).holds for k in (5, 12)
    )
    index_ok = all(sym_alt_count_inequality(k) for k in range(5, 11))
    ok = decreasing and exact_ok and bounds_ok and index_ok
    _verdict(8, ok, "alternating zeta values decrease strictly from k=5 to 14, the "
                    "k=5 value is exactly 127/60, and the counting inequalities hold")
    assert decreasing
    assert exact_ok
    assert bounds_ok
    assert index_ok


def test_criterion_9_exactness_spot_checks():
    mass_ok = all(
        sym_degree_census(k).sum_degree_squares() == math.factorial(k)
        for k in range(2, 15)
    )
    rng = random.Random(97)
    dim_ok = True
    for series, rank in (("A", 1), ("A", 2), ("A", 3), ("C", 2), ("G", 2)):
        rs = build_root_system(series, rank)
        for _ in range(1000):
            w = tuple(rng.randrange(0, 40) for _ in range(rank))
            d = weyl_dim(rs, w)
            if not (isinstance(d, int) and d >= 1):
                dim_ok = False
            i = rng.randrange(rank)
            bumped = w[:i] + (w[i] + 1,) + w[i + 1:]
            if weyl_dim(rs, bumped) <= d:
                dim_ok = False
    gap_ok = True
    for series in ("A", "C"):
        rs = build_root_system(series, 2)
        for _ in range(100):
            w = tuple(rng.randrange(0, 2000) for _ in range(2))
            if log_dim_gap(rs, w) >= 5.0:
                gap_ok = False
    ok = mass_ok and dim_ok and gap_ok
    _verdict(9, ok, "degree-square mass equals k!, dimension values are exact "
                    "positive integers strictly monotone in each coordinate, and "
                    "threshold-chain gaps stay bounded")
    assert mass_ok
    assert dim_ok
    assert gap_ok

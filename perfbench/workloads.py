"""Seeded job batches, one per workload.

A job is a kind (which CLI subcommand it mirrors) plus the inputs that
subcommand would get.  Everything here is drawn from the workload seed and
nothing else.

Each job's cost should not depend on the seed, because runs with different
seeds are held to one bound and the job-time percentiles pick single jobs
out of a batch.  So continuous parameters sit at fixed quantiles of the
ranges the workloads are defined on, moved by a seeded jitter of at most a
tenth of their stratum; integer parameters whose cost grows steeply (k of
an alternating group, l_r of a tower) sit at fixed points of their range;
choices whose cost differs (CSV against JSON, exponent 1 against 2) come in
pairs with the same other inputs.  The seed draws the jitter, the exponents,
the spot-check weights, the ring flavour of repeated groups and the tower
heads.  Jobs run in a fixed order, so that what one job leaves in memory
for the next does not change with the seed either.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repzeta.euler import ARCHIMEDEAN_TAIL_TOLERANCE
from repzeta.witten import DEFAULT_CENSUS_BUDGET

JITTER = 0.1  # largest seeded move of a grid point, as a share of its stratum
CAP_RANGE = (10**5, 10**6)


@dataclass(frozen=True)
class Job:
    kind: str
    params: dict


def _grid(rng, lo, hi, n, jitter=JITTER, log=True):
    """n values at the quantiles (i + 1/2)/n of [lo, hi], ascending, each
    moved by up to +-jitter of its stratum width."""
    a, b = (math.log10(lo), math.log10(hi)) if log else (lo, hi)
    out = []
    for i in range(n):
        x = a + (b - a) * (i + 0.5 + rng.uniform(-jitter, jitter)) / n
        out.append(10**x if log else x)
    return out


def _balanced(rng, choices, n):
    """n picks that use every choice equally often (up to one), in seeded order."""
    out = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(out)
    return out


def _spot_weights(rng, rank, n=10):
    """Weights with coordinates in 0..40 (as in acceptance criterion 9), each
    with the index of the coordinate the monotonicity check bumps."""
    return [
        (tuple(rng.randrange(0, 41) for _ in range(rank)), rng.randrange(rank))
        for _ in range(n)
    ]


# Caps per type in a witten-census batch; each cap is written once as CSV
# and once as JSON.  A1 is by far the dearest type per job, so it has one
# cap, a fifth of a decade above 1e5 and jittered by at most a hundredth of
# a decade, which keeps a round short enough for several rounds per run.
_WITTEN_CAPS = (
    (("A", 2), 3), (("A", 3), 3), (("C", 2), 3), (("G", 2), 2),
    (("B", 3), 2), (("D", 4), 2), (("F", 4), 2), (("E", 8), 2),
)


def _witten(rng):
    caps = [(("A", 1), round(10 ** (5.2 + rng.uniform(-0.01, 0.01))))]
    for group, n in _WITTEN_CAPS:
        caps += [(group, round(cap)) for cap in _grid(rng, *CAP_RANGE, n)]
    jobs = []
    for (series, rank), cap in caps:
        if cap > DEFAULT_CENSUS_BUDGET:
            raise ValueError(f"cap {cap} would exceed the census budget")
        for fmt in ("csv", "json"):
            jobs.append(Job("witten", {
                "series": series, "rank": rank, "cap": cap, "format": fmt,
                "s": rng.uniform(1.5, 3.0), "spot": _spot_weights(rng, rank),
            }))
    return jobs


SMALL_GROUPS = ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1))
FLAVORS = ("char0", "charp")


def _sl2(rng):
    # Each small group runs three times in each flavour plus once in a
    # seeded flavour.  (7,2) runs in both flavours and (3,4) in the CLI's
    # default char0 ring: drawing the flavour of (3,4) would move the batch
    # by about a second between seeds.
    jobs = [Job("sl2", {"p": 7, "k": 2, "flavor": f}) for f in FLAVORS]
    jobs.append(Job("sl2", {"p": 3, "k": 4, "flavor": "char0"}))
    for p, k in SMALL_GROUPS:
        for flavor in FLAVORS * 3 + (rng.choice(FLAVORS),):
            jobs.append(Job("sl2", {"p": p, "k": k, "flavor": flavor}))
    return jobs


def arch_census_cap(s, tol=ARCHIMEDEAN_TAIL_TOLERANCE):
    """Smallest A1 census cap whose archimedean tail cap^(1-s)/(s-1) is
    within the product's tolerance, by the product's own float test."""
    cap = math.ceil(((s - 1.0) * tol) ** (1.0 / (1.0 - s)))
    while cap ** (1.0 - s) / (s - 1.0) > tol:
        cap += 1
    while cap > 1 and (cap - 1) ** (1.0 - s) / (s - 1.0) <= tol:
        cap -= 1
    return cap


def _probe(top, s):
    return Job("probe", {"s": s, "schedule": [top // 1000, top // 100, top // 10, top]})


def _euler(rng):
    # 40 jobs, so job_tail_s is the 30th by cost (p75) and job_p50_s lies
    # between the 20th and the 21st.  By cost, the 15 sandwich jobs come
    # first, then most of the 12 products, then the probes: p50 falls on a
    # product and p75 inside the block of 12 cheap probes.  The probe to the
    # top of the range (1e6, s = 2) is the batch's dearest job and carries
    # the fold at large primes.
    jobs = [_probe(CAP_RANGE[1], 2.0)]
    tops = _grid(rng, CAP_RANGE[0], 1.5 * CAP_RANGE[0], 12)  # probe cost grows as top^1.35
    for top, which in zip(tops, _balanced(rng, ("two", "above"), 12)):
        jobs.append(_probe(round(top), 2.0 if which == "two" else 3.0 - rng.random()))  # s in (2, 3]
    # The dearest census (smallest s) goes with the cheapest fold (smallest
    # bound), which keeps all but two products below the cheapest probe.
    exponents = _grid(rng, 2.5, 3.0, 12, log=False)
    bounds = _grid(rng, 10**3, 10**5, 12)
    for s, bound in zip(exponents, bounds):
        jobs.append(Job("product", {"s": s, "prime_bound": round(bound), "cap": arch_census_cap(s)}))
    for _ in range(15):  # as acceptance criterion 6: five exponents per job
        jobs.append(Job("sandwich", {"exponents": sorted(rng.uniform(2.0, 3.0) for _ in range(5)),
                                     "q_max": 97}))
    return jobs


def _symalt(rng):
    # 40 jobs, so job_tail_s is the 30th by cost (p75) and job_p50_s lies
    # between the 20th and the 21st.  By cost, 16 cheap jobs (small scans,
    # towers and exact zetas) come first, then the 10 audits with one or two
    # scans among them, then the alternating groups from A24 up: p50 falls
    # on an audit and p75 on a census or exact zeta of A24 to A28.  Each
    # audit pairs a small x_max with a large md_max or the other way round,
    # which keeps the audits' costs close together.
    jobs = [Job("alt", {"k": k, "s": rng.uniform(0.5, 2.0)}) for k in (24, 26, 28, 30, 32, 40)]
    jobs += [Job("index", {"k": k}) for k in range(8, 15)]
    jobs += [Job("perfect", {"k": k, "s": rng.uniform(0.5, 1.5)}) for k in range(12, 17)]
    jobs += [Job("zeta_exact", {"k": k, "s": s}) for k in (8, 16, 28, 30) for s in (1, 2)]
    for r, top in zip(_balanced(rng, (1, 2), 4), (11, 15, 19, 23)):
        head = [rng.randint(5, 8)] if r == 1 else [rng.randint(5, 6), rng.randint(5, 8)]
        jobs.append(Job("wreath", {"ells": tuple(head + [top]), "r": r}))
    for x, md in zip(_grid(rng, 50, 500, 10), reversed(_grid(rng, 50, 500, 10))):
        jobs.append(Job("audit", {"x_max": round(x), "md_max": round(md)}))
    return jobs


WORKLOADS = {
    "witten-census": _witten,
    "sl2-brute-force": _sl2,
    "euler-fold": _euler,
    "symalt-audit": _symalt,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))

"""repzeta benchmark: one seeded batch of jobs per workload.

    python3 perfbench/run.py --workload witten-census --seed 1 --seconds 22 --trace 0

Run it from the root of a checkout; it imports repzeta from ``src/`` of
that checkout and nothing else.  A job calls the public functions one CLI
subcommand calls, in the same order, and an oracle in ``oracles.py`` then
checks its outputs.  Each workload runs as a closed loop with one client:
one process, one thread, the next job starting when the previous one ends.
The whole batch is one round; rounds repeat until ``--seconds`` have passed.

Timings are in reference seconds: unit ref_s, except setup_s, which is
scaled the same way but whose unit must read s.  On a shared host the CPU
speed drifts by a third or more over minutes as other tenants load it, and
changes from one second to the next, and every timing drifts with it.  So a
fixed pure-Python loop runs a few times before every job and after the last,
outside the timed spans, and each job's time is divided by its slowdown: the
mean of the median loop times just before and just after it, over
REFERENCE_LOOP_S.  A round's wall and CPU time are divided by the round's
slowdown, its raw job time over its scaled job time.  A change to repzeta
moves the jobs and not the loop, so it shows in full; the raw seconds and
the slowdowns are printed beside the scaled values.

End-to-end metrics (``--trace 0``), all from untraced rounds:
  setup_s      median over fresh processes of importing numpy and repzeta
               and generating the batch, each scaled by the slowdown the
               reference loop measures before and after it in that process
  wall_s       median wall time of a round, checks excluded
  job_p50_s    median over the jobs of each job's median time across the
               rounds
  job_tail_s   the highest of the percentiles 50, 75, 90, 95, 99 that has
               at least ten jobs of a round beyond it, over each job's
               median time across the rounds
  cpu_s        median process CPU time (user + sys) of a round, checks
               excluded
  peak_rss_mb  peak resident memory of this process
A job's time covers its library calls; its check runs after the clock stops
and is left out of every end-to-end timing.
A job fails if it raises or if its check finds a problem.  The failed share
is printed as failed_ratio and reported as ``failed`` of ``attempted``.

``--trace 1`` runs half the time untraced and half with a span around every
call into repzeta, and reports the per-layer metrics from the traced half;
the spans are written to ``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("witten-census", "sl2-brute-force", "euler-fold", "symalt-audit")
SETUP_REPEATS = 7
REFERENCE_LOOPS = 40_000
REFERENCE_REPEATS = 3  # loops per sample of the host's speed
# The loop's time on an unloaded core of the machine the baseline was taken
# on (2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7).
REFERENCE_LOOP_S = 2.5e-3
TAIL_PERCENTILES = (50, 75, 90, 95, 99)
SMALL_GROUP_ORDER = 20_000  # the band for finitequotients.classes_us_per_element.small
LAYERS = ("rootsystems", "witten", "census", "finitequotients", "sl2local", "euler",
          "symalt", "bounds", "bench")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "ref_s"), ("job_p50_s", "ref_s"), ("job_tail_s", "ref_s"),
    ("cpu_s", "ref_s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple(
    (f"{layer}.{what}", unit, better)
    for layer in LAYERS
    for what, unit, better in (("calls", "count", "higher"), ("self_s", "ref_s", "lower"),
                               ("failed", "count", "lower"))
    if not (layer == "bench" and what != "self_s")
) + (
    ("rootsystems.weyl_dim_us", "ref_us", "lower"),
    ("witten.census_s", "ref_s", "lower"),
    ("witten.irreducibles", "count", "higher"),
    ("witten.irreducibles_per_s", "1/ref_s", "higher"),
    ("witten.arch_census_s", "ref_s", "lower"),
    ("witten.zeta_partial_s", "ref_s", "lower"),
    ("census.write_s", "ref_s", "lower"),
    ("census.write_mb_per_s.csv", "MB/ref_s", "higher"),
    ("census.write_mb_per_s.json", "MB/ref_s", "higher"),
    ("finitequotients.ring_s", "ref_s", "lower"),
    ("finitequotients.elements", "count", "higher"),
    ("finitequotients.classes", "count", "higher"),
    ("finitequotients.build_us_per_element", "ref_us", "lower"),
    ("finitequotients.classes_us_per_element.small", "ref_us", "lower"),
    ("finitequotients.classes_us_per_element.large", "ref_us", "lower"),
    ("sl2local.degree_census_s", "ref_s", "lower"),
    ("euler.probe_s", "ref_s", "lower"),
    ("euler.product_s", "ref_s", "lower"),
    ("euler.primes_folded", "count", "higher"),
    ("euler.ns_per_prime", "ref_ns", "lower"),
    ("euler.sandwich_us", "ref_us", "lower"),
    ("symalt.alt_census_s", "ref_s", "lower"),
    ("symalt.partitions", "count", "higher"),
    ("symalt.partitions_per_s", "1/ref_s", "higher"),
    ("symalt.scan_s", "ref_s", "lower"),
    ("symalt.scan_n_per_s", "1/ref_s", "higher"),
    ("symalt.zeta_exact_s", "ref_s", "lower"),
    ("bounds.audit_s", "ref_s", "lower"),
    ("bounds.rows", "count", "higher"),
    ("bounds.rows_per_s", "1/ref_s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class CheckoutError(Exception):
    pass


def import_library():
    """Import repzeta from this checkout's src/, refusing any other copy."""
    if not (SRC / "repzeta" / "__init__.py").is_file():
        raise CheckoutError(f"no repzeta sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repzeta

    if Path(repzeta.__file__).resolve().parent != SRC / "repzeta":
        raise CheckoutError(f"imported repzeta from {repzeta.__file__}, not from {SRC}")


def setup_probe(workload: str, seed: int) -> None:
    before = [reference_loop() for _ in range(REFERENCE_REPEATS)]
    start = time.perf_counter()
    import numpy  # noqa: F401

    import_library()
    from workloads import make_jobs

    make_jobs(workload, seed)
    elapsed = time.perf_counter() - start
    after = [reference_loop() for _ in range(REFERENCE_REPEATS)]
    slowdown = statistics.median(before + after) / REFERENCE_LOOP_S
    print(repr(elapsed), repr(slowdown))


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up time in fresh interpreters, so imports are not cached: the raw
    seconds and the slowdown of each."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, slowdown = map(float, proc.stdout.split()[-2:])
        out.append((elapsed, slowdown))
    return out


def reference_loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def reference_sample() -> float:
    return statistics.median(reference_loop() for _ in range(REFERENCE_REPEATS))


@dataclass
class Round:
    wall: float  # seconds of the jobs, reference loops and checks excluded
    cpu: float
    checks: float  # wall seconds of the checks
    times: list  # per job, seconds of library calls
    problems: list  # per job, list of strings
    work: list  # per job, exact counts from the check
    loops: list  # reference samples, one before each job and one after the last

    @property
    def job_slowdowns(self) -> list:
        return [(a + b) / 2 / REFERENCE_LOOP_S for a, b in zip(self.loops, self.loops[1:])]

    @property
    def scaled_times(self) -> list:
        return [t / slow for t, slow in zip(self.times, self.job_slowdowns)]

    @property
    def slowdown(self) -> float:
        return sum(self.times) / sum(self.scaled_times)


def run_round(jobs, tracer, tmp) -> Round:
    from jobs import KINDS  # not at the top: the setup probe times the first numpy import

    times, problems, work, loops = [], [], [], []
    wall, cpu = time.perf_counter(), time.process_time()
    loop_wall = loop_cpu = check_wall = check_cpu = 0.0
    for job_id, job in enumerate(jobs):
        run, check = KINDS[job.kind]
        start, cpu_before = time.perf_counter(), time.process_time()
        loops.append(reference_sample())
        loop_wall += time.perf_counter() - start
        loop_cpu += time.process_time() - cpu_before
        with tracer.span("bench.job", job=job_id):
            start = time.perf_counter()
            try:
                out = run(job.params, tracer.call, tmp)
            except Exception as exc:  # a failed job is counted, not fatal
                out, found = None, [f"raised {type(exc).__name__}: {exc}"]
            times.append(time.perf_counter() - start)
            if out is not None:
                start, cpu_before = time.perf_counter(), time.process_time()
                with tracer.span("bench.oracle"):
                    try:
                        found = check(job.params, out, tracer.call)
                    except Exception as exc:
                        found = [f"check raised {type(exc).__name__}: {exc}"]
                check_wall += time.perf_counter() - start
                check_cpu += time.process_time() - cpu_before
        problems.append(found)
        work.append(out.get("work", {}) if out is not None else {})
        out = None  # release this job's outputs before the next job starts
    start, cpu_before = time.perf_counter(), time.process_time()
    loops.append(reference_sample())
    loop_wall += time.perf_counter() - start
    loop_cpu += time.process_time() - cpu_before
    return Round(time.perf_counter() - wall - loop_wall - check_wall,
                 time.process_time() - cpu - loop_cpu - check_cpu,
                 check_wall, times, problems, work, loops)


def run_rounds(jobs, tracer, tmp, budget: float) -> list[Round]:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < budget:
        rounds.append(run_round(jobs, tracer, tmp))
    return rounds


def tail_percentile(n: int) -> float:
    fits = [p for p in TAIL_PERCENTILES if n - math.ceil(p / 100 * n) >= 10]
    if not fits:
        raise ValueError(f"{n} jobs leave no percentile with ten jobs beyond it")
    return fits[-1]


def end_to_end(rounds: list[Round], jobs):
    n = len(rounds[0].times)
    per_job = sorted((statistics.median(r.scaled_times[i] for r in rounds), jobs[i].kind)
                     for i in range(n))
    pct = tail_percentile(n)
    tail = per_job[math.ceil(pct / 100 * n) - 1]
    metrics = {
        "wall_s": statistics.median(r.wall / r.slowdown for r in rounds),
        "job_p50_s": statistics.median(t for t, _ in per_job),
        "job_tail_s": tail[0],
        "cpu_s": statistics.median(r.cpu / r.slowdown for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    slowdowns = ", ".join(f"{r.slowdown:.3f}" for r in rounds)
    notes = {
        "wall_s": f"median of {len(rounds)} rounds; raw {statistics.median(r.wall for r in rounds):.4f} s"
                  f" at slowdowns {slowdowns}",
        "job_p50_s": f"median of {n} jobs, each the median of its {len(rounds)} runs;"
                     f" a {per_job[(n - 1) // 2][1]} job",
        "job_tail_s": f"p{pct:g} of {n} jobs, each the median of its {len(rounds)} runs;"
                      f" a {tail[1]} job",
        "cpu_s": f"median of {len(rounds)} rounds; raw {statistics.median(r.cpu for r in rounds):.4f} s",
    }
    return metrics, notes


def per_layer(tracer, jobs, rounds: list[Round], untraced_wall: float):
    """Per-round layer metrics from the spans of the traced rounds, in
    reference seconds at the traced rounds' median slowdown."""
    n_rounds = len(rounds)
    slowdown = statistics.median(r.slowdown for r in rounds)
    layers = tracer.by_layer()
    seconds, calls = tracer.by_job()
    work = rounds[-1].work  # the same inputs give the same counts every round

    def ids(*kinds, where=lambda j: True):
        return [j for j, job in enumerate(jobs) if (not kinds or job.kind in kinds) and where(j)]

    def secs(name, js=None):
        total = sum(seconds[j][name] for j in (range(len(jobs)) if js is None else js))
        return total / n_rounds / slowdown

    def count(name):
        return sum(calls[j][name] for j in range(len(jobs))) / n_rounds

    def amount(key, js):
        return sum(work[j].get(key, 0) for j in js)

    def rate(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS:
        entry = layers.get(layer, {"calls": 0, "self_s": 0.0, "failed": 0})
        for what in ("calls", "self_s", "failed"):
            if layer != "bench" or what == "self_s":
                m[f"{layer}.{what}"] = entry[what] / n_rounds / (slowdown if what == "self_s" else 1)
    m["rootsystems.weyl_dim_us"] = 1e6 * rate(secs("rootsystems.weyl_dim"), count("rootsystems.weyl_dim"))
    witten = ids("witten")
    m["witten.census_s"] = secs("witten.dimension_census", witten)
    m["witten.irreducibles"] = amount("irreducibles", witten)
    m["witten.irreducibles_per_s"] = rate(m["witten.irreducibles"], m["witten.census_s"])
    m["witten.arch_census_s"] = secs("witten.dimension_census", ids("product"))
    m["witten.zeta_partial_s"] = secs("witten.zeta_partial")
    m["census.write_s"] = secs("census.write_csv") + secs("census.write_json")
    for fmt in ("csv", "json"):
        js = ids("witten", where=lambda j: jobs[j].params["format"] == fmt)
        m[f"census.write_mb_per_s.{fmt}"] = rate(amount("bytes", js) / 1e6, secs(f"census.write_{fmt}"))
    sl2 = ids("sl2")
    m["finitequotients.ring_s"] = secs("finitequotients.QuotientRing")
    m["finitequotients.elements"] = amount("elements", sl2)
    m["finitequotients.classes"] = amount("classes", sl2)
    m["finitequotients.build_us_per_element"] = 1e6 * rate(
        secs("finitequotients.build_sl2_group"), m["finitequotients.elements"])
    for band, small in (("small", True), ("large", False)):
        js = ids("sl2", where=lambda j: (work[j].get("elements", 0) <= SMALL_GROUP_ORDER) == small)
        m[f"finitequotients.classes_us_per_element.{band}"] = 1e6 * rate(
            secs("finitequotients.conjugacy_classes", js), amount("elements", js))
    m["sl2local.degree_census_s"] = secs("sl2local.sl2_degree_census")
    m["euler.probe_s"] = secs("euler.divergence_probe")
    m["euler.product_s"] = secs("euler.global_partial_product")
    m["euler.primes_folded"] = amount("primes", ids("probe", "product"))
    m["euler.ns_per_prime"] = 1e9 * rate(m["euler.probe_s"] + m["euler.product_s"], m["euler.primes_folded"])
    m["euler.sandwich_us"] = 1e6 * rate(secs("euler.sandwich_check"), count("euler.sandwich_check"))
    m["symalt.alt_census_s"] = secs("symalt.alt_degree_census")
    m["symalt.partitions"] = amount("partitions", ids("alt", "perfect"))
    m["symalt.partitions_per_s"] = rate(m["symalt.partitions"], m["symalt.alt_census_s"])
    m["symalt.scan_s"] = secs("symalt.perfect_group_count_bound") + secs("symalt.sym_alt_count_inequality")
    m["symalt.scan_n_per_s"] = rate(amount("scan_n", ids("perfect", "index")), m["symalt.scan_s"])
    m["symalt.zeta_exact_s"] = secs("symalt.alt_zeta_exact")
    m["bounds.audit_s"] = secs("bounds.isotropic_abscissa_audit")
    m["bounds.rows"] = amount("rows", ids("audit"))
    m["bounds.rows_per_s"] = rate(m["bounds.rows"], m["bounds.audit_s"])
    traced_wall = statistics.median(r.wall / r.slowdown for r in rounds)
    m["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    accounted = sum(entry["self_s"] for entry in layers.values()) / n_rounds
    note = (f"layer self times plus bench account for {accounted:.4f} s of the "
            f"{sum(r.wall + r.checks for r in rounds) / n_rounds:.4f} s traced round wall time "
            f"(raw seconds; slowdown {slowdown:.3f})")
    return m, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        import_library()
        setup = None if args.trace else measure_setup(args.workload, args.seed)
    except (CheckoutError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from spans import NullTracer, Tracer
    from workloads import make_jobs

    import jobs  # noqa: F401  (numpy, mpmath and repzeta load before the clock starts)

    batch = make_jobs(args.workload, args.seed)
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    budget = args.seconds / 2 if args.trace else args.seconds
    rounds = run_rounds(batch, NullTracer(), tmp, budget)
    all_rounds = list(rounds)
    print(f"perfbench {args.workload} seed={args.seed}: {len(batch)} jobs per round, "
          f"{len(rounds)} untraced rounds")
    if args.trace:
        tracer = Tracer()
        traced = run_rounds(batch, tracer, tmp, budget)
        all_rounds += traced
        untraced_wall = statistics.median(r.wall / r.slowdown for r in rounds)
        metrics, note = per_layer(tracer, batch, traced, untraced_wall)
        units = {name: unit for name, unit, _ in PER_LAYER}
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        print(f"{len(traced)} traced rounds; spans in {trace_path.relative_to(ROOT)}; {note}")
    else:
        metrics, notes = end_to_end(rounds, batch)
        metrics = {"setup_s": statistics.median(e / slow for e, slow in setup), **metrics}
        notes["setup_s"] = (f"median of {SETUP_REPEATS} fresh processes; "
                            f"raw {statistics.median(e for e, _ in setup):.4f} s")
        units = dict(END_TO_END)
    attempted = sum(len(r.problems) for r in all_rounds)
    failures = [(batch[j], found) for r in all_rounds for j, found in enumerate(r.problems) if found]
    for job, found in failures[:20]:
        print(f"FAILED {job.kind} {job.params}: {'; '.join(found)}", file=sys.stderr)
    for name, value in metrics.items():
        suffix = "" if args.trace else f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<46} {value:>14.6g} {units[name]}{suffix}")
    print(f"  {'failed_ratio':<46} {len(failures) / attempted:>14.6g} "
          f"({len(failures)} of {attempted} jobs)")
    # Raw seconds, slowdowns and the notes above, on the line before the
    # result, so that a record of the run keeps what the scaled metrics were
    # made from and which job each percentile picked.
    raw_rounds = [{"wall_s": r.wall, "cpu_s": r.cpu, "checks_s": r.checks, "slowdown": r.slowdown,
                   "traced": i >= len(rounds)} for i, r in enumerate(all_rounds)]
    raw_setup = [{"setup_s": e, "slowdown": slow} for e, slow in setup or ()]
    print(json.dumps({"raw": {"rounds": raw_rounds, "setup": raw_setup,
                              "notes": {"trace": note} if args.trace else notes}}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

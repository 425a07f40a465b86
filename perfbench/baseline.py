"""Run the benchmark over many seeds and record the result.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BENCH_0.json

Runs the command from BENCHMARK.json once per workload and seed (untraced),
then once more per workload with tracing on.  For every end-to-end metric it
prints the median over the seeds and the quartile spread, (Q3 - Q1) /
median, next to the metric's bound; a spread above a third of its bound is
flagged.  With --out it writes a BENCH record: every run's metrics with the
raw seconds and slowdowns they were scaled from, the summary, the traced
per-layer metrics, and the machine (CPU count, Python, numpy, platform) and
git commit they came from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, raw, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["raw"] = json.loads(raw)["raw"]
    result["process_s"] = elapsed
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def machine():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", help="write a BENCH record here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": seeds,
              "workloads": {}}
    steady = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            result = run(spec, workload, seed, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: {result['process_s']:.1f} s, failed {result['failed']}"
                  f" of {result['attempted']}", file=sys.stderr, flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bound, "unit": runs[0]["metrics"][name]["unit"]}
            flag = ""
            if summary[name]["spread"] > bound / 3:
                flag, steady = "  <-- above a third of the bound", False
            print(f"{workload:<16} {name:<12} median {summary[name]['median']:<12.6g} "
                  f"spread {summary[name]['spread']:.4f} (bound {bound}){flag}")
        record["workloads"][workload] = {
            "runs": runs, "summary": summary,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "traced": run(spec, workload, seeds[0], 1),
        }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "not steady: some spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Jobs: each one calls the public repzeta functions a CLI subcommand calls,
in the same order, then checks the outputs against the oracles.

``run(params, call, tmp)`` makes every library call through ``call(name,
fn, *args)`` so a traced run can wrap it in a span, and returns the outputs.
``check(params, out, call)`` returns the list of problems found (an empty
list means the job passed) and stores in ``out["work"]`` the exact counts
the per-layer rates divide by, so the oracle's own work stays outside the
job's time.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import mpmath
import numpy as np

from repzeta import (
    EulerProductConfig,
    QuotientRing,
    abscissa_estimate,
    alt_degree_census,
    alt_zeta,
    alt_zeta_exact,
    build_root_system,
    build_sl2_group,
    conjugacy_classes,
    dimension_census,
    divergence_probe,
    global_partial_product,
    isotropic_abscissa_audit,
    perfect_group_count_bound,
    sandwich_check,
    sl2_class_count,
    sl2_degree_census,
    sl2_group_order,
    sym_alt_count_inequality,
    weyl_dim,
    wreath_tower_conditions,
    zeta_partial,
)
from repzeta.witten import DEFAULT_CENSUS_BUDGET

import oracles as ora
from oracles import close


def _census_problems(census, series, rank, cap):
    degrees, mults = ora.expected_census(series, rank, cap)
    if census.degrees != degrees or census.multiplicities != mults:
        return [f"{series}{rank} census to {cap} differs from the reference "
                f"({len(census.degrees)} degrees against {len(degrees)})"]
    return []


# --- witten-census --------------------------------------------------------

def run_witten(p, call, tmp):
    rs = call("rootsystems.build_root_system", build_root_system, p["series"], p["rank"])
    census = call("witten.dimension_census", dimension_census, rs, p["cap"],
                  max_entries=DEFAULT_CENSUS_BUDGET)
    estimate = call("witten.abscissa_estimate", abscissa_estimate, census)
    zeta = call("witten.zeta_partial", zeta_partial, census, p["s"])
    path = tmp / f"census.{p['format']}"
    write = census.write_csv if p["format"] == "csv" else census.write_json
    call(f"census.write_{p['format']}", write, path)
    spot = []
    for w, i in p["spot"]:
        bumped = w[:i] + (w[i] + 1,) + w[i + 1:]
        spot.append((call("rootsystems.weyl_dim", weyl_dim, rs, w),
                     call("rootsystems.weyl_dim", weyl_dim, rs, bumped)))
    return {"census": census, "estimate": estimate, "zeta": zeta, "path": path, "spot": spot}


def check_witten(p, out, call):
    series, rank, cap = p["series"], p["rank"], p["cap"]
    census = out["census"]
    data = out["path"].read_bytes()
    out["path"].unlink()
    out["work"] = {"irreducibles": sum(census.multiplicities), "bytes": len(data)}
    problems = _census_problems(census, series, rank, cap)
    if problems:
        return problems
    degrees, mults = census.degrees, census.multiplicities
    d = np.array(degrees, dtype=float)
    own_zeta = float(np.sum(np.array(mults, dtype=float) * d ** -p["s"]))
    if not close(out["zeta"], own_zeta):
        problems.append(f"zeta partial {out['zeta']!r} against {own_zeta!r}")
    r = ora.running_count(degrees, mults)
    est = out["estimate"]
    if any(rn != r(n) for n, rn in est.sample_points):
        problems.append("abscissa sample points disagree with R(n)")
    if not close(est.raw_ratio, math.log(r(cap)) / math.log(cap)):
        problems.append(f"raw ratio {est.raw_ratio!r} is not log R(cap) / log cap")
    if rank == 1 and not close(est.slope, 1.0):
        problems.append(f"A1 slope {est.slope!r} is not 1")
    if p["format"] == "csv":
        if data.count(b"\n") != len(degrees) + 1:
            problems.append("CSV row count differs from the census")
    elif data.count(b'"degree"') != len(degrees):
        problems.append("JSON entry count differs from the census")
    formula = ora.dimension_formula(series, rank)
    for (w, i), (dim, bumped_dim) in zip(p["spot"], out["spot"]):
        bumped = w[:i] + (w[i] + 1,) + w[i + 1:]
        if not (isinstance(dim, int) and dim >= 1 and bumped_dim > dim):
            problems.append(f"weyl_dim not a positive integer increasing at {w} -> {bumped}")
        elif formula is not None and (dim, bumped_dim) != (formula(w), formula(bumped)):
            problems.append(f"weyl_dim at {w} or {bumped} differs from the Weyl formula")
    return problems


# --- sl2-brute-force ------------------------------------------------------

def _sl2_order(p, k):
    return p ** (3 * k - 2) * (p * p - 1)


def run_sl2(p, call, tmp):
    ring = call("finitequotients.QuotientRing", QuotientRing, p["p"], p["k"], p["flavor"])
    group = call("finitequotients.build_sl2_group", build_sl2_group, ring,
                 max_order=_sl2_order(p["p"], p["k"]))
    classes = call("finitequotients.conjugacy_classes", conjugacy_classes, group)
    path = tmp / "classes.csv"
    with open(path, "w", newline="") as fh:  # as the census subcommand writes it
        writer = csv.writer(fh)
        writer.writerow(["rep_a", "rep_b", "rep_c", "rep_d", "class_size"])
        for rep, size in zip(classes.representatives, classes.sizes):
            writer.writerow(list(rep) + [size])
    return {"order": group.order, "classes": classes, "path": path}


def check_sl2(p, out, call):
    q, k = p["p"], p["k"]
    order = call("sl2local.sl2_group_order", sl2_group_order, q, k)
    count = call("sl2local.sl2_class_count", sl2_class_count, q, k)
    degrees = call("sl2local.sl2_degree_census", sl2_degree_census, q, k)
    classes = out["classes"]
    out["work"] = {"elements": out["order"], "classes": classes.count}
    problems = []
    # Both flavours are held to the same closed-form count, so they agree.
    if order != _sl2_order(q, k) or out["order"] != order:
        problems.append(f"order {out['order']} against {order}")
    if classes.count != count or sum(degrees.multiplicities) != count:
        problems.append(f"{classes.count} classes against {count}")
    if sum(classes.sizes) != out["order"]:
        problems.append("class sizes do not add up to the order")
    if sum(m * d * d for d, m in zip(degrees.degrees, degrees.multiplicities)) != order:
        problems.append("degree squares do not add up to the order")
    if dict(zip(classes.representatives, classes.sizes)).get((1, 0, 0, 1)) != 1:
        problems.append("the identity is not a singleton class")
    rows = out["path"].read_bytes().count(b"\n")
    out["path"].unlink()
    if rows != classes.count + 1:
        problems.append("class CSV row count differs from the class count")
    return problems


# --- euler-fold -----------------------------------------------------------

def _within_sandwich(log_value, s_sum):
    tol = ora.FLOAT_RTOL * max(1.0, abs(log_value))
    return s_sum / 2 - tol < log_value < 100 * s_sum + tol


def run_probe(p, call, tmp):
    report = call("euler.divergence_probe", divergence_probe, p["s"], p["schedule"])
    return {"report": report}


def check_probe(p, out, call):
    rep, s, bounds = out["report"], p["s"], p["schedule"]
    out["work"] = {"primes": ora.odd_prime_count(bounds[-1])}
    problems = []
    if list(rep.prime_bounds) != bounds:
        problems.append("probe reports other prime bounds than asked for")
    if not all(b > a for a, b in zip(rep.values, rep.values[1:])):
        problems.append("partial products do not increase strictly")
    sums = ora.sandwich_log_sums(s, bounds)
    folds = ora.local_log_sums(s, bounds)
    for bound, value, log_value, s_sum, fold in zip(bounds, rep.values, rep.log_values, sums, folds):
        if not close(value, math.exp(log_value)):
            problems.append(f"value at P={bound} is not exp(log value)")
        if not _within_sandwich(log_value, s_sum):
            problems.append(f"log product {log_value!r} at P={bound} outside ({s_sum / 2!r}, {100 * s_sum!r})")
        if not close(log_value, fold):
            problems.append(f"log product {log_value!r} at P={bound} against {fold!r}")
    if s == 2.0:
        # at s = 2 the comparator is the lower sandwich sum itself
        if rep.comparators_log is None or not all(
            close(c, s_sum / 2) for c, s_sum in zip(rep.comparators_log, sums)
        ):
            problems.append("zeta-pole comparator differs from half the sandwich sum")
        elif not rep.exceeds_comparator:
            problems.append("log product does not exceed the comparator")
    return problems


def run_product(p, call, tmp):
    rs = call("rootsystems.build_root_system", build_root_system, "A", 1)
    census = call("witten.dimension_census", dimension_census, rs, p["cap"],
                  max_entries=DEFAULT_CENSUS_BUDGET)
    cfg = call("euler.EulerProductConfig", EulerProductConfig, s=p["s"], prime_bound=p["prime_bound"])
    value = call("euler.global_partial_product", global_partial_product, cfg, census)
    return {"census": census, "value": value}


def check_product(p, out, call):
    s, cap = p["s"], p["cap"]
    out["work"] = {"primes": ora.odd_prime_count(p["prime_bound"]), "irreducibles": cap}
    problems = _census_problems(out["census"], "A", 1, cap)
    arch = float(np.sum(np.arange(1, cap + 1, dtype=float) ** -s))
    tail = cap ** (1.0 - s) / (s - 1.0)
    gap = float(mpmath.zeta(s)) - arch
    if not -ora.FLOAT_RTOL < gap <= tail * (1 + ora.FLOAT_RTOL):
        problems.append(f"archimedean part misses zeta({s}) by {gap!r}, tail bound {tail!r}")
    local = math.log(out["value"]) - math.log(arch)
    (s_sum,) = ora.sandwich_log_sums(s, [p["prime_bound"]])
    (fold,) = ora.local_log_sums(s, [p["prime_bound"]])
    if not _within_sandwich(local, s_sum):
        problems.append(f"local log product {local!r} outside ({s_sum / 2!r}, {100 * s_sum!r})")
    if not close(local, fold):
        problems.append(f"local log product {local!r} against {fold!r}")
    return problems


def _sandwich_grid(p):
    return [(q, s) for q in ora.odd_prime_powers(p["q_max"]) for s in p["exponents"]]


def run_sandwich(p, call, tmp):
    return {"results": [call("euler.sandwich_check", sandwich_check, q, s)
                        for q, s in _sandwich_grid(p)]}


def check_sandwich(p, out, call):
    problems = []
    for (q, s), r in zip(_sandwich_grid(p), out["results"]):
        base = 1.0 - q ** (1.0 - s)
        if (r.q, r.s) != (q, s) or not base ** -0.5 < r.value < base ** -100.0:
            problems.append(f"local factor {r.value!r} at q={q}, s={s} outside its sandwich")
    return problems


# --- symalt-audit ---------------------------------------------------------

def _alt_census_problems(census, k):
    problems = []
    if 2 * sum(m * d * d for d, m in zip(census.degrees, census.multiplicities)) != math.factorial(k):
        problems.append(f"A_{k} degree-square mass is not {k}!/2")
    if sum(census.multiplicities) != ora.alt_irreducible_count(k):
        problems.append(f"A_{k} has {sum(census.multiplicities)} irreducibles, "
                        f"expected {ora.alt_irreducible_count(k)}")
    return problems


def _zeta_of(census, s):
    return math.fsum(m * d ** -s for d, m in zip(census.degrees, census.multiplicities))


def run_alt(p, call, tmp):
    census = call("symalt.alt_degree_census", alt_degree_census, p["k"])
    zeta = call("symalt.alt_zeta", alt_zeta, p["k"], p["s"])
    return {"census": census, "zeta": zeta}


def check_alt(p, out, call):
    out["work"] = {"partitions": ora.partition_count(p["k"])}
    problems = _alt_census_problems(out["census"], p["k"])
    if not close(out["zeta"], _zeta_of(out["census"], p["s"])):
        problems.append(f"alt_zeta {out['zeta']!r} differs from the census sum")
    return problems


def run_index(p, call, tmp):
    ok = call("symalt.sym_alt_count_inequality", sym_alt_count_inequality, p["k"])
    return {"ok": ok}


def check_index(p, out, call):
    # Both inequalities hold for every index-2 pair; check them at the
    # degrees where the left side steps up.
    sym = sorted(ora.sym_degrees(p["k"]).values())
    out["work"] = {"scan_n": sym[-1]}  # the scan runs to the largest S_k degree
    alt = ora.alt_degrees(p["k"])
    alt_deg = sorted(alt)
    r_sym = ora.running_count(sorted(set(sym)), [sym.count(d) for d in sorted(set(sym))])
    r_alt = ora.running_count(alt_deg, [alt[d] for d in alt_deg])
    holds = all(r_alt(n) <= 2 * r_sym(2 * n) for n in alt_deg) and all(
        r_sym(n) <= 2 * r_alt(n) for n in sym)
    if out["ok"] is not True or not holds:
        return [f"index-2 inequalities for k={p['k']}: library {out['ok']}, reference {holds}"]
    return []


def run_perfect(p, call, tmp):
    k, s = p["k"], p["s"]
    census = call("symalt.alt_degree_census", alt_degree_census, k)
    c = call("symalt.alt_zeta", alt_zeta, k, s) - 1.0
    result = call("symalt.perfect_group_count_bound", perfect_group_count_bound, census, s, c)
    return {"census": census, "c": c, "result": result}


def check_perfect(p, out, call):
    census, c, s, res = out["census"], out["c"], p["s"], out["result"]
    out["work"] = {"partitions": ora.partition_count(p["k"]), "scan_n": census.cap}
    problems = _alt_census_problems(census, p["k"])
    # c n^s + 1 - R(n) rises between the degrees, so its minimum sits at one
    slack = []
    total = 0
    for d, m in zip(census.degrees, census.multiplicities):
        total += m
        slack.append((c * d**s + 1 - total, d))
    min_slack, tightest = min(slack, key=lambda t: t[0])
    if not res.holds or res.tightest_n != tightest or not close(res.min_slack, min_slack):
        problems.append(f"count bound: holds={res.holds}, tightest n {res.tightest_n} "
                        f"against {tightest}, slack {res.min_slack!r} against {min_slack!r}")
    return problems


def run_zeta_exact(p, call, tmp):
    return {"value": call("symalt.alt_zeta_exact", alt_zeta_exact, p["k"], p["s"])}


def check_zeta_exact(p, out, call):
    want = sum((Fraction(m, d ** p["s"]) for d, m in ora.alt_degrees(p["k"]).items()), Fraction(0))
    if not isinstance(out["value"], Fraction) or out["value"] != want:
        return [f"exact zeta of A_{p['k']} at {p['s']}: {out['value']} against {want}"]
    return []


def run_wreath(p, call, tmp):
    report = call("symalt.wreath_tower_conditions", wreath_tower_conditions, p["ells"], p["r"])
    return {"report": report}


def check_wreath(p, out, call):
    ells, r, rep = p["ells"], p["r"], out["report"]
    log_order = math.lgamma(ells[0] + 1) - math.log(2)
    for j in range(1, r):
        log_order += math.prod(ells[:j]) * (math.lgamma(ells[j] + 1) - math.log(2))
    lhs = log_order / math.log(ells[r])
    bound = 1.0 + 1.0 / math.prod(ells[:r])
    zeta = math.fsum(m * d ** (-1.0 / r) for d, m in ora.alt_degrees(ells[r]).items())
    problems = []
    if rep.branching_product != math.prod(ells[:r]) or not close(rep.zeta_bound, bound):
        problems.append("branching product or zeta bound is wrong")
    if not close(rep.growth_lhs, lhs) or rep.growth_holds != (rep.growth_lhs < 1.0 / r):
        problems.append(f"growth condition {rep.growth_lhs!r} against {lhs!r}")
    if rep.zeta_value is None or not close(rep.zeta_value, zeta):
        problems.append(f"zeta of A_{ells[r]} at 1/{r}: {rep.zeta_value!r} against {zeta!r}")
    elif not close(zeta, bound) and rep.zeta_status != ("holds" if zeta < bound else "fails"):
        problems.append(f"zeta condition reported {rep.zeta_status!r}")
    return problems


def run_audit(p, call, tmp):
    report = call("bounds.isotropic_abscissa_audit", isotropic_abscissa_audit,
                  p["x_max"], p["md_max"])
    return {"report": report}


def check_audit(p, out, call):
    x, md, rep = p["x_max"], p["md_max"], out["report"]
    out["work"] = {"rows": len(rep.rows)}
    rows = sum(md // m for m in range(2, md + 1)) + 5 * x + 5
    problems = []
    if len(rep.rows) != rows:
        problems.append(f"{len(rep.rows)} audit rows, expected {rows}")
    if not (rep.passed and rep.global_min == Fraction(1, 15)
            and len(rep.min_cases) == 1 and "E8" in rep.min_cases[0]):
        problems.append(f"audit minimum {rep.global_min} at {rep.min_cases}, expected 1/15 at E8 only")
    return problems


KINDS = {
    "witten": (run_witten, check_witten),
    "sl2": (run_sl2, check_sl2),
    "probe": (run_probe, check_probe),
    "product": (run_product, check_product),
    "sandwich": (run_sandwich, check_sandwich),
    "alt": (run_alt, check_alt),
    "index": (run_index, check_index),
    "perfect": (run_perfect, check_perfect),
    "zeta_exact": (run_zeta_exact, check_zeta_exact),
    "wreath": (run_wreath, check_wreath),
    "audit": (run_audit, check_audit),
}

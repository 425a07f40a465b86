"""Command-line front end.

Subcommands mirror the library: witten (dimension census / abscissa), local
(exact SL2 local factor), census (brute-force finite quotients), bounds-audit
(exact rational audit), alt (alternating-group degrees), euler (global
partial product), probe (divergence probe).  Every --out write also produces
a <out>.manifest.json recording the subcommand, parameters, package version
and output checksum; identical manifests mean byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys

from . import __version__
from .bounds import isotropic_abscissa_audit
from .census import DegreeCensus
from .errors import BudgetExceededError
from .euler import EulerProductConfig, divergence_probe, global_partial_product
from .finitequotients import QuotientRing, build_sl2_group, conjugacy_classes
from .rootsystems import build_root_system
from .sl2local import sl2_degree_census, sl2_local_zeta
from .symalt import alt_degree_census, index_two_count_inequality, sym_degree_census
from .witten import abscissa_estimate, dimension_census, zeta_partial


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _write_manifest(out_path: str, subcommand: str, params: dict) -> None:
    digest = hashlib.sha256()
    with open(out_path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    manifest = {
        "subcommand": subcommand,
        "parameters": {k: v for k, v in sorted(params.items())},
        "version": __version__,
        "output_sha256": digest.hexdigest(),
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_census(census: DegreeCensus, out: str, fmt: str, subcommand: str, params: dict) -> None:
    if fmt == "csv":
        census.write_csv(out)
    else:
        census.write_json(out)
    _write_manifest(out, subcommand, params)


def _params(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _cmd_witten(args) -> int:
    rs = build_root_system(args.type, args.rank)
    census = dimension_census(rs, args.max_dim)
    print(f"{rs.label()}: {len(census)} distinct degrees, "
          f"{census.total_multiplicity()} irreducibles of dimension <= {args.max_dim}")
    if args.estimate_abscissa:
        est = abscissa_estimate(census)
        print(f"abscissa estimate: {_fmt(est.slope)} (raw ratio {_fmt(est.raw_ratio)}, "
              f"exact rank/kappa {rs.rank}/{rs.kappa})")
    if args.zeta is not None:
        print(f"zeta partial sum at s={_fmt(args.zeta)}: {_fmt(zeta_partial(census, args.zeta))}")
    if args.out:
        _write_census(census, args.out, args.format, "witten", _params(args))
    return 0


def _cmd_local(args) -> int:
    if args.out and args.levels is None:
        raise ValueError("--out for the local subcommand needs --levels")
    if args.s is None and args.levels is None:
        raise ValueError("nothing to do: pass --s and/or --levels")
    if args.s is not None:
        print(f"local factor q={args.q} at s={_fmt(args.s)}: {_fmt(sl2_local_zeta(args.q, args.s))}")
    if args.levels is not None:
        census = sl2_degree_census(args.q, args.levels)
        print(f"census q={args.q} level {args.levels}: {census.total_multiplicity()} classes, "
              f"max degree {census.max_degree()}")
        if args.out:
            _write_census(census, args.out, args.format, "local", _params(args))
    return 0


def _cmd_census(args) -> int:
    if args.group != "sl2":
        raise ValueError(f"unknown group {args.group!r}; only sl2 is implemented")
    ring = QuotientRing(args.p, args.k, args.ring)
    group = build_sl2_group(ring)
    classes = conjugacy_classes(group)
    print(f"SL2 over {ring.label()}: order {group.order}")
    print(f"classes: {classes.count}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rep_a", "rep_b", "rep_c", "rep_d", "class_size"])
            for rep, size in zip(classes.representatives, classes.sizes):
                writer.writerow(list(rep) + [size])
        _write_manifest(args.out, "census", _params(args))
    return 0


def _cmd_bounds_audit(args) -> int:
    report = isotropic_abscissa_audit(args.x_max, args.md_max)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"global min >= 1/15: {verdict} "
          f"(min = {report.global_min} at {', '.join(report.min_cases)})")
    if args.verbose:
        print(report.format_table())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(args.out, "bounds-audit", _params(args))
    return 0


def _cmd_alt(args) -> int:
    census = alt_degree_census(args.k)
    print(f"A_{args.k}: {census.total_multiplicity()} irreducibles, "
          f"max degree {census.max_degree()}")
    if args.s is not None:
        print(f"zeta at s={_fmt(args.s)}: {_fmt(census.zeta(args.s))}")
    if args.check_index:
        ok = index_two_count_inequality(sym_degree_census(args.k), census)
        print(f"index-2 count inequalities: {'PASS' if ok else 'FAIL'}")
        if not ok:
            return 1
    if args.out:
        _write_census(census, args.out, args.format, "alt", _params(args))
    return 0


def _cmd_euler(args) -> int:
    cfg = EulerProductConfig(
        s=args.s, prime_bound=args.prime_bound, archimedean_exponent=args.arch_exponent
    )
    census = None
    if args.arch_exponent:
        rs = build_root_system("A", 1)
        census = dimension_census(rs, args.max_dim)
    value = global_partial_product(
        cfg, census, acknowledge_divergence=args.acknowledge_divergence
    )
    print(f"global partial product (s={_fmt(args.s)}, P={args.prime_bound}, "
          f"archimedean exponent {args.arch_exponent}): {_fmt(value)}")
    return 0


def _cmd_probe(args) -> int:
    schedule = [int(tok) for tok in args.schedule.split(",") if tok]
    report = divergence_probe(args.s, schedule)
    for bound, value in zip(report.prime_bounds, report.values):
        print(f"P={bound}: {_fmt(value)}")
    if report.comparators_log is not None:
        print(f"exceeds zeta-pole comparator at every step: "
              f"{'PASS' if report.exceeds_comparator else 'FAIL'}")
    print(f"strictly increasing: {'PASS' if report.strictly_increasing else 'FAIL'}")
    if args.s > 2:
        print("successive differences: " + ", ".join(_fmt(d) for d in report.differences))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(args.out, "probe", _params(args))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repzeta",
        description="Representation zeta censuses, local factors, and abscissa bounds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("witten", help="dimension census of a simple complex group")
    p.add_argument("--type", required=True, choices=list("ABCDEFG"))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--max-dim", required=True, type=int)
    p.add_argument("--estimate-abscissa", action="store_true")
    p.add_argument("--zeta", type=float, default=None, metavar="S")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_witten)

    p = sub.add_parser("local", help="exact SL2 local factor / level census")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--levels", type=int, default=None, metavar="K")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser("census", help="brute-force conjugacy census of a finite quotient")
    p.add_argument("group", choices=["sl2"])
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--ring", choices=["char0", "charp"], default="char0")
    p.add_argument("--out", default=None, help="CSV of class representatives")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("bounds-audit", help="exact rational audit of the abscissa bounds")
    p.add_argument("--x-max", type=int, default=50)
    p.add_argument("--md-max", type=int, default=50)
    p.add_argument("--verbose", action="store_true", help="print the full table")
    p.add_argument("--out", default=None, help="JSON report")
    p.set_defaults(func=_cmd_bounds_audit)

    p = sub.add_parser("alt", help="alternating group degree census")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--check-index", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_alt)

    p = sub.add_parser("euler", help="global partial Euler product")
    p.add_argument("--s", required=True, type=float)
    p.add_argument("--prime-bound", required=True, type=int)
    p.add_argument("--arch-exponent", type=int, default=1)
    p.add_argument("--max-dim", type=int, default=200_000,
                   help="archimedean census cap")
    p.add_argument("--acknowledge-divergence", action="store_true")
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("probe", help="divergence probe over a prime-bound schedule")
    p.add_argument("--s", required=True, type=float)
    p.add_argument("--schedule", default="100,1000,10000,100000",
                   help="comma-separated strictly increasing prime bounds")
    p.add_argument("--out", default=None, help="JSON report")
    p.set_defaults(func=_cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

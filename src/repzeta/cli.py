"""Command-line front end.

Subcommands mirror the library: witten (dimension census / abscissa), local
(exact SL2 local factor), census (brute-force finite quotients), bounds-audit
(exact rational audit), alt (alternating-group degrees), euler (global
partial product), probe (divergence probe).  A command returns its printed
verdict (True if none) and its --out writer from the census module.  Only `main`
writes --out and <out>.manifest.json (subcommand, parameters, version, SHA-256),
and exits 1 exactly on a printed FAIL verdict, 2 on a refused input or --out path.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from . import __version__
from .bounds import isotropic_abscissa_audit
from .census import write_json, write_table
from .errors import BudgetExceededError
from .euler import EulerProductConfig, divergence_probe, global_partial_product
from .finitequotients import QuotientRing, build_sl2_group, conjugacy_classes
from .rootsystems import build_root_system
from .sl2local import sl2_degree_census, sl2_local_zeta
from .symalt import alt_degree_census, index_two_count_inequality, sym_degree_census
from .witten import abscissa_estimate, dimension_census, zeta_partial


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _write_out(args: argparse.Namespace, write) -> None:
    """Write args.out through write(path), then <out>.manifest.json with the
    subcommand, its parameters, the package version and the output's SHA-256."""
    write(args.out)
    digest = hashlib.sha256()
    with open(args.out, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    manifest = {
        "subcommand": args.subcommand,
        "parameters": {k: v for k, v in vars(args).items() if k != "func" and v is not None},
        "version": __version__,
        "output_sha256": digest.hexdigest(),
    }
    write_json(manifest, args.out + ".manifest.json")


def _cmd_witten(args):
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
    return True, census.write_csv if args.format == "csv" else census.write_json


def _cmd_local(args):
    if args.out and args.levels is None:
        raise ValueError("--out for the local subcommand needs --levels")
    if args.s is None and args.levels is None:
        raise ValueError("nothing to do: pass --s and/or --levels")
    if args.s is not None:
        print(f"local factor q={args.q} at s={_fmt(args.s)}: {_fmt(sl2_local_zeta(args.q, args.s))}")
    if args.levels is None:
        return True, None
    census = sl2_degree_census(args.q, args.levels)
    print(f"census q={args.q} level {args.levels}: {census.total_multiplicity()} classes, "
          f"max degree {census.max_degree()}")
    return True, census.write_csv if args.format == "csv" else census.write_json


def _cmd_census(args):
    ring = QuotientRing(args.p, args.k, args.ring)
    group = build_sl2_group(ring)
    classes = conjugacy_classes(group)
    print(f"SL2 over {ring.label()}: order {group.order}")
    print(f"classes: {classes.count}")
    return True, lambda path: write_table(path, "rep_a,rep_b,rep_c,rep_d,class_size",
                                          (*zip(*classes.representatives), classes.sizes))


def _cmd_bounds_audit(args):
    report = isotropic_abscissa_audit(args.x_max, args.md_max)
    print(f"global min >= {report.threshold}: {'PASS' if report.passed else 'FAIL'} "
          f"(min = {report.global_min} at {', '.join(report.min_cases)})")
    if args.verbose:
        print(report.format_table())
    return report.passed, lambda path: write_json(report.to_json_dict(), path)


def _cmd_alt(args):
    census = alt_degree_census(args.k)
    print(f"A_{args.k}: {census.total_multiplicity()} irreducibles, "
          f"max degree {census.max_degree()}")
    if args.s is not None:
        print(f"zeta at s={_fmt(args.s)}: {_fmt(census.zeta(args.s))}")
    ok = True
    if args.check_index:
        ok = index_two_count_inequality(sym_degree_census(args.k), census)
        print(f"index-2 count inequalities: {'PASS' if ok else 'FAIL'}")
    return ok, census.write_csv if args.format == "csv" else census.write_json


def _cmd_euler(args):
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
    return True, None


def _cmd_probe(args):
    schedule = []
    for tok in filter(None, args.schedule.split(",")):
        try:
            schedule.append(int(tok))
        except ValueError:
            raise ValueError(f"--schedule entries must be integers, got {tok!r}") from None
    report = divergence_probe(args.s, schedule)
    for bound, value in zip(report.prime_bounds, report.values):
        print(f"P={bound}: {_fmt(value)}")
    if report.comparators_log is not None:
        print(f"exceeds zeta-pole comparator at every step: "
              f"{'PASS' if report.exceeds_comparator else 'FAIL'}")
    print(f"strictly increasing: {'PASS' if report.strictly_increasing else 'FAIL'}")
    if args.s > 2:
        print("successive differences: " + ", ".join(_fmt(d) for d in report.differences))
    return report.passed, lambda path: write_json(report.to_json_dict(), path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repzeta",
        description="Representation zeta censuses, local factors, and abscissa bounds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file; <out>.manifest.json is written beside it")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("witten", parents=[out, fmt],
                       help="dimension census of a simple complex group")
    p.add_argument("--type", required=True, choices=list("ABCDEFG"))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--max-dim", required=True, type=int)
    p.add_argument("--estimate-abscissa", action="store_true")
    p.add_argument("--zeta", type=float, default=None, metavar="S")
    p.set_defaults(func=_cmd_witten)

    p = sub.add_parser("local", parents=[out, fmt], help="exact SL2 local factor / level census")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--levels", type=int, default=None, metavar="K")
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser("census", parents=[out],
                       help="brute-force conjugacy census of a finite quotient")
    p.add_argument("group", choices=["sl2"])
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--ring", choices=["char0", "charp"], default="char0")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("bounds-audit", parents=[out],
                       help="exact rational audit of the abscissa bounds")
    p.add_argument("--x-max", type=int, default=50)
    p.add_argument("--md-max", type=int, default=50)
    p.add_argument("--verbose", action="store_true", help="print the full table")
    p.set_defaults(func=_cmd_bounds_audit)

    p = sub.add_parser("alt", parents=[out, fmt], help="alternating group degree census")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--check-index", action="store_true")
    p.set_defaults(func=_cmd_alt)

    p = sub.add_parser("euler", help="global partial Euler product")
    p.add_argument("--s", required=True, type=float)
    p.add_argument("--prime-bound", required=True, type=int)
    p.add_argument("--arch-exponent", type=int, default=1)
    p.add_argument("--max-dim", type=int, default=200_000,
                   help="archimedean census cap")
    p.add_argument("--acknowledge-divergence", action="store_true")
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("probe", parents=[out], help="divergence probe over a prime-bound schedule")
    p.add_argument("--s", required=True, type=float)
    p.add_argument("--schedule", default="100,1000,10000,100000",
                   help="comma-separated strictly increasing prime bounds")
    p.set_defaults(func=_cmd_probe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        passed, write = args.func(args)
        if getattr(args, "out", None):  # euler has no --out
            _write_out(args, write)
    except (ValueError, BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

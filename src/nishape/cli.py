"""Command-line front end.

Exit codes: 0 when every check passes, 1 on a check failure, 2 on usage
errors.  Numeric output is printed to 17 significant digits.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .certify import report_line
from .linear import (check_minimal, check_ssni, dc_gain, dey_condition,
                     load_certificate, schur_equivalence)
from .scenarios import (_build_parts, export_potential_surface, get_scenario,
                        run_scenario, scenario_names)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _cmd_list(_args) -> int:
    for name in scenario_names():
        print(f"{name}: {get_scenario(name).description}")
    return 0


def _cmd_run(args) -> int:
    x0 = None if args.x0 is None else [float(s) for s in args.x0.split(",")]
    result = run_scenario(args.scenario, step=args.step, t_end=args.t_end,
                          x0=x0, seed=args.seed, out_dir=args.out)
    for line in result.lines():
        print(line)
    for label, path in result.artifacts.items():
        print(f"wrote {label}: {path}")
    print(f"overall: {'pass' if result.passed else 'fail'}")
    return 0 if result.passed else 1


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # bad input exits 2 or fails
def _cmd_certify_linear(args) -> int:
    system, cert, slopes = load_certificate(args.file)
    checks = [("ssni-certificate", check_ssni(cert)),
              ("minimal-realization", check_minimal(system))]
    try:
        gain = dc_gain(system, cert)
        print(f"dc gain max |entry| = {_fmt(np.max(np.abs(gain)))}")
    except (ArithmeticError, ValueError) as exc:  # mismatch, or a singular A
        print(f"dc-gain cross-check: fail ({exc})")
        return 1
    if slopes is not None:
        checks.append(("slope-bound condition", dey_condition(system, cert, slopes)))
        checks.append(("schur-complement agreement", schur_equivalence(cert, slopes)))
    ok = True
    for name, report in checks:
        print(report_line(name, report))
        ok = ok and report.passed
    print(f"overall: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def _cmd_surface(args) -> int:
    sc = get_scenario(args.scenario)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    _, V, _, W = _build_parts(sc)
    ok = True
    for label, field in (("original", V), ("shaped", W)):
        path = os.path.join(out, f"surface_{sc.name}_{label}.csv")
        report = export_potential_surface(field, path, half_range=args.range,
                                          points=args.points)
        print(f"{label}: {report.n_minima} local minima, "
              f"{report.n_plateau} plateau cells -> {path}")
        ok = ok and report.passed
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ni-shape",
        description="Storage shaping and absolute-stability checks for NI systems")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a scenario pipeline and export artifacts")
    run_p.add_argument("scenario")
    run_p.add_argument("--step", type=float, default=None)
    run_p.add_argument("--t-end", type=float, default=None)
    run_p.add_argument("--x0", type=str, default=None,
                       help="comma-separated initial state, e.g. 1,-2")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", type=str, default=None)

    cert_p = sub.add_parser("certify-linear", help="verify a JSON certificate {A,B,C,Y,mu?}")
    cert_p.add_argument("file")

    surf_p = sub.add_parser("surface", help="export potential-surface grids for a scenario")
    surf_p.add_argument("scenario")
    surf_p.add_argument("--range", type=float, default=8.0)
    surf_p.add_argument("--points", type=int, default=161)
    surf_p.add_argument("--out", type=str, default=None)

    sub.add_parser("list", help="list the registered scenarios")
    return parser


_PARSER = _build_parser()  # built once per process: each call only parses


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command is None:
        _PARSER.print_usage(sys.stderr)
        return 2
    handler = {"run": _cmd_run, "certify-linear": _cmd_certify_linear,
               "surface": _cmd_surface, "list": _cmd_list}[args.command]
    try:
        return handler(args)
    except (OSError, ValueError) as exc:  # the one place usage errors become exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: parameter sweeps and verification checks.

Exit codes: 0 success, 1 failed check, 2 invalid arguments, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import SELECTORS, run_checks
from .sweep import (
    FAMILIES,
    N_HARD_CAP,
    GridSpec,
    SweepConfig,
    default_grid,
    default_n_values,
    rows_to_csv,
    rows_to_json,
    run_family,
    write_text,
)


def _parse_n_list(text: str) -> tuple:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        a, dash, b = tok.partition("-")
        try:
            lo, hi = int(a), int(b if dash else a)
        except ValueError:
            raise ValueError(f"--n takes boson numbers or lo-hi ranges, got {tok!r}") from None
        if hi < lo:
            raise ValueError(f"empty range {tok!r}")
        # Checked before the range is built: an upper bound of 10 digits
        # would take tens of GB.
        if hi > N_HARD_CAP:
            raise ValueError(f"--n boson numbers beyond {N_HARD_CAP} are not supported, got {tok!r}")
        out.extend(range(lo, hi + 1))
    return tuple(out)


def _parse_grid(text: str, inclusive: bool) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like lo:hi:steps, got {text!r}")
    values = []
    for name, part, kind in zip(("lo", "hi", "steps"), parts, (float, float, int)):
        try:
            values.append(kind(part))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"grid {name} must be {what}, got {part!r} in {text!r}") from None
    return GridSpec(*values, inclusive)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boswit",
        description="Correlation-tensor entanglement identifiers for two-mode boson pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate identifiers over a parameter grid")
    sweep.add_argument("family", choices=FAMILIES)
    sweep.add_argument("--n", help="boson numbers, e.g. 1,2,3 or 2-20")
    sweep.add_argument("--grid", help="parameter grid lo:hi:steps")
    sweep.add_argument("--t-over-n", type=float, dest="t_over_n", help="single point t = value/N per N")
    sweep.add_argument("--nc", type=int, help="photon-count outcome in the first output")
    sweep.add_argument("--nd", type=int, help="photon-count outcome in the second output")
    sweep.add_argument("--K", dest="k_grid", help="squeezing grid lo:hi:steps (pdc)")
    sweep.add_argument("--out", help="output path (default: stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--allow-large", action="store_true", help="permit N up to 40")

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("selector", choices=SELECTORS)
    check.add_argument("--d", type=int, help="restrict basis checks to one dimension")
    check.add_argument("--seed", type=int, default=7)
    return parser


def _cmd_sweep(args) -> int:
    if (args.nc is None) != (args.nd is None):
        raise ValueError("--nc and --nd must be given together")
    if args.k_grid is not None and (args.family != "pdc" or args.grid is not None):
        raise ValueError("--K is the pdc squeezing grid; give it alone, in place of --grid")
    grid_text = args.k_grid or args.grid
    grid = None
    if grid_text:
        grid = _parse_grid(grid_text, inclusive=default_grid(args.family).inclusive)
    n_values = _parse_n_list(args.n) if args.n else default_n_values(args.family)
    config = SweepConfig(
        family=args.family,
        n_values=n_values,
        grid=grid,
        outcomes=(args.nc, args.nd) if args.nc is not None else None,
        t_over_n=args.t_over_n,
        allow_large=args.allow_large,
    )
    result = run_family(config)
    if args.format == "json":
        text = rows_to_json(result.columns, aggregates=result.aggregates, note=result.note)
    else:
        text = rows_to_csv(result.columns, comment=result.note)
    write_text(text, args.out)
    return 0


def _cmd_check(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    reports, passed = run_checks(args.selector, d=args.d, seed=args.seed)
    payload = {
        "selector": args.selector,
        "passed": passed,
        "checks": [r.as_dict() for r in reports],
    }
    print(json.dumps(payload, indent=2))
    if not passed:
        failed = [r.check_name for r in reports if not r.passed]
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_check(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

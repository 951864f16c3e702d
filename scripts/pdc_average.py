#!/usr/bin/env python3
"""Average identifier of the post-selected squeezed-vacuum ensemble.

Writes the per-squeezing truncated-series and closed-form means plus the
per-pair-number detail rows.
"""

import pathlib
import sys
from dataclasses import asdict

from boswit.sweep import SweepConfig, rows_to_csv, run_family


def main() -> None:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("data")
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_family(SweepConfig("pdc", tuple(range(1, 9))))

    path = out_dir / "pdc_rows.csv"
    path.write_text(rows_to_csv(result.columns), encoding="utf-8")
    print(f"wrote {path}")

    lines = ["squeezing,eps_avg_series,eps_avg_closed,weight_sum,n_trunc"]
    for agg in result.aggregates:
        d = asdict(agg)
        lines.append(
            ",".join("%.12g" % d[k] if k != "n_trunc" else str(d[k]) for k in lines[0].split(","))
        )
    path = out_dir / "pdc_average.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

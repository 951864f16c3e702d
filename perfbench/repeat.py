"""Run the benchmark once per seed and summarize each metric over the runs.

    python3 perfbench/repeat.py --workload check-all --seeds 1-10 [--out summary.json] [-- --trace 1]

For every metric it prints ``run.summary`` of its values: the median, the
quartiles, the spread (q3 - q1) / median and the largest gap between any two
runs, max / min - 1.  Arguments after ``--`` go to ``run.py``.  ``--out``
keeps every run's result and the summary.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write every run's result and the summary here (JSON)")
    parser.add_argument("extra", nargs=argparse.REMAINDER, help="-- followed by run.py arguments")
    args = parser.parse_args()
    extra = args.extra[1:] if args.extra[:1] == ["--"] else args.extra

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lo, _, hi = args.seeds.partition("-")
    runs = []
    for seed in range(int(lo), int(hi or lo) + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), *extra]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {
        name: run.summary([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]
    }
    for name, stats in summary.items():
        print(f"{name:40s} median={stats['median']:.6g} {run.describe(stats)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "extra": extra, "runs": runs, "summary": summary}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())

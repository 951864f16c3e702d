"""Benchmark of the boswit command line, end to end and layer by layer.

    python3 perfbench/run.py --workload szsz-grid --seed 0 --seconds 30 --trace 0

Runs the real CLI (``python -m boswit.cli`` on the sources under ``src/``) as
a child process, one run at a time, in whole cycles of the workload's
commands, until ``--seconds`` of child wall time have been measured.  Every
run's output is checked against references built before timing starts.  With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` untraced runs alternate with runs of
``perfbench/tracer.py``, which call ``boswit.cli.main`` in-process with every
layer wrapped in spans, and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it give
the machine, the commands run and the spread of each metric.  See README.md
for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# A run of this script must end within 180 s; no child starts that is not
# expected to end by this many seconds after the start.
RUN_LIMIT_S = 165.0
# Fresh-interpreter imports timed per run for setup_s, spread over the run.
SETUP_SAMPLES = 20
# `check all --seed` values cycled through in every check-all measurement.
CHECK_SEEDS = 3
HALF_PI = math.pi / 2.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Plan:
    """The commands and output check of one workload at one seed."""

    argvs: list                      # boswit arguments of each run in a cycle
    check: Callable[[bytes], tuple]  # stdout -> (items, errors)
    items: str                       # what one item of items_per_s is


def _seeded(seed: int, lo: float, hi: float, default: float) -> float:
    """A parameter drawn from the seed; the default seed keeps ``default``."""
    return default if seed == 0 else random.Random(seed).uniform(lo, hi)


def plan_szsz_grid(seed: int) -> Plan:
    import verify

    lo = _seeded(seed, 0.0, HALF_PI, 0.0)
    argv = ["sweep", "szsz"]
    if seed != 0:
        argv += ["--grid", f"{lo!r}:{lo + HALF_PI!r}:128"]
    checker = verify.szsz_checker(lo, lo + HALF_PI, random.Random(seed))
    return Plan([argv], checker, "CSV rows")


def plan_acstark_scan(seed: int) -> Plan:
    import verify

    t_over_n = _seeded(seed, 2.25, 2.75, 2.5)
    argv = ["sweep", "acstark", "--n", "2-40", "--t-over-n", repr(t_over_n), "--allow-large"]
    checker = verify.acstark_checker(t_over_n, 40, random.Random(seed))
    return Plan([argv], checker, "CSV rows")


def plan_check_all(seed: int) -> Plan:
    import verify

    # The amount of work in `check all` depends on its seed, so a cycle runs
    # the same few seeds on every commit, however fast each run is.
    first = 7 if seed == 0 else random.Random(seed).randrange(10**9)
    argvs = [["check", "all", "--seed", str(first + k)] for k in range(CHECK_SEEDS)]
    return Plan(argvs, verify.check_report, "check reports")


WORKLOADS = {
    "szsz-grid": plan_szsz_grid,
    "acstark-scan": plan_acstark_scan,
    "check-all": plan_check_all,
}


@dataclass(frozen=True)
class Sample:
    """One finished child process."""

    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


# Children run in the environment this script was started in, with BLAS held
# to one thread.  On a few shared cores a multi-threaded SVD stalls whenever
# another tenant takes one of them, so its wall time measures the scheduler;
# on one thread a stolen share of a core costs the same share of time.  The
# script's own numpy, which builds the references, is held to one thread too,
# so that idle worker threads left over from it cannot compete with a child.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_ENV = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


def run_child(cmd: list, deadline: float) -> Sample:
    """Run ``cmd`` to completion, reading all its output; kill it at ``deadline``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise TimeoutError(f"{cmd[1:]} still running at the time limit")
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Sample(
        code=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]),
        stderr=b"".join(chunks[proc.stderr]),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,   # ru_maxrss is in KiB on Linux
    )


class Runner:
    """Runs children one at a time and keeps the tally of failures."""

    def __init__(self, plan: Plan, seconds: float):
        self.plan = plan
        self.seconds = seconds
        self.started = time.perf_counter()
        self.measured = 0.0   # wall time of the timed children so far
        self.attempted = 0
        self.failed = 0
        self.items = 0

    def cycles(self):
        """Yield the boswit arguments of each timed run, in whole cycles.

        Every cycle runs each of the plan's commands once, so each is
        measured equally often.  Cycles stop once the next one would end more
        than half a cycle past ``--seconds``, so the measured time is centred
        on it, and before one could overrun the run limit.
        """
        while True:
            before = self.measured
            yield from self.plan.argvs
            cycle = self.measured - before
            elapsed = time.perf_counter() - self.started
            if self.measured + cycle / 2 >= self.seconds or elapsed + 1.5 * cycle >= RUN_LIMIT_S:
                return

    def run(self, cmd: list, expected_stdout: bytes | None = None) -> Sample:
        sample = run_child(cmd, self.started + RUN_LIMIT_S + 10.0)
        self.measured += sample.wall_s
        items, errors = self.plan.check(sample.stdout)
        if sample.code != 0:
            tail = sample.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            errors.insert(0, f"exit code {sample.code} {tail}")
        if expected_stdout is not None and sample.stdout != expected_stdout:
            errors.append("traced output differs from the untraced output")
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAILED {' '.join(cmd[-6:])}: {'; '.join(errors)}", file=sys.stderr)
        else:
            self.items = items
        return sample


def cli_cmd(argv: list) -> list:
    return [sys.executable, "-m", "boswit.cli", *argv]


def measure_setup(runner: Runner, count: int) -> list:
    """Wall times of fresh interpreters that import boswit.cli and exit."""
    cmd = [sys.executable, "-c", "import boswit.cli"]
    times = []
    for _ in range(count):
        sample = run_child(cmd, runner.started + RUN_LIMIT_S)
        if sample.code != 0:
            raise RuntimeError(f"import boswit.cli failed: {sample.stderr.decode('utf-8', 'replace')}")
        times.append(sample.wall_s)
    return times


def measure_end_to_end(runner: Runner) -> tuple:
    # The first import also writes the bytecode cache, so it is not counted.
    # The rest come between timed runs, in step with the measured time, so
    # that setup_s spans the whole run.
    measure_setup(runner, 1)
    setup, samples = [], []
    for argv in runner.cycles():
        samples.append(runner.run(cli_cmd(argv)))
        share = min(1.0, runner.measured / runner.seconds) if runner.seconds > 0 else 1.0
        setup += measure_setup(runner, max(1, math.ceil(SETUP_SAMPLES * share) - len(setup)))
    setup += measure_setup(runner, SETUP_SAMPLES - len(setup))
    series = {
        "wall_s": [s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
        "setup_s": setup,
    }
    metrics = {name: statistics.median(values) for name, values in series.items()}
    metrics["items_per_s"] = runner.items / metrics["wall_s"]
    series["items_per_s"] = [runner.items / w for w in series["wall_s"]]
    return {k: metrics[k] for k in END_TO_END_UNITS}, END_TO_END_UNITS, series


def measure_layers(runner: Runner, workload: str, seed: int) -> tuple:
    import tracer

    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"trace-{workload}-{seed}.json"
    spans_path = OUT_DIR / f"trace-{workload}-{seed}-spans.json"
    overhead, layers = [], []
    for argv in runner.cycles():
        plain = runner.run(cli_cmd(argv))
        report_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "tracer.py"), "--out", str(report_path),
               "--spans", str(spans_path), "--", *argv]
        traced = runner.run(cmd, expected_stdout=plain.stdout)
        if report_path.exists():   # a traced run that crashed is already counted as failed
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            layers.append(report["metrics"])
            # The overhead of tracing the command, not of writing its spans.
            overhead.append(traced.wall_s - report["report_s"] - plain.wall_s)
    units = dict(tracer.metric_units(), trace_overhead_s="s")
    layers = layers or [dict.fromkeys(units, 0)]
    series = {name: [m[name] for m in layers] for name in units if name != "trace_overhead_s"}
    series["trace_overhead_s"] = overhead or [0.0]
    metrics = {name: statistics.median(values) for name, values in series.items()}
    return metrics, units, series


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def machine_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: CHILD_ENV.get(k, "unset") for k in BLAS_THREAD_VARS}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "commit": _git_commit(),
    }


def summary(values: list) -> dict:
    """Median, quartiles and extremes of ``values``, and two spreads.

    ``spread`` is (q3 - q1) / median; ``max_gap`` is max / min - 1, the
    largest difference between any two of the values.
    """
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    lo, hi = min(values), max(values)
    return {
        "n": len(values), "median": median, "q1": q1, "q3": q3, "min": lo, "max": hi,
        "spread": (q3 - q1) / median if median else math.nan,
        "max_gap": hi / lo - 1.0 if lo > 0 else math.nan,
    }


def describe(stats: dict) -> str:
    return " ".join(f"{k}={v:.6g}" for k, v in stats.items() if k != "median")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="0 gives the commands in ROADMAP.md")
    parser.add_argument("--seconds", type=float, default=30.0, help="child wall time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exception, so that the child
    # running at that moment is killed and reaped (see run_child).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "boswit" / "cli.py").is_file():
        print(f"error: no boswit sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update({k: "1" for k in BLAS_THREAD_VARS})

    plan = WORKLOADS[args.workload](args.seed)
    runner = Runner(plan, args.seconds)
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    for argv in plan.argvs:
        print(f"workload {args.workload} seed {args.seed}: boswit {' '.join(argv)}")
    if args.trace:
        metrics, units, series = measure_layers(runner, args.workload, args.seed)
    else:
        metrics, units, series = measure_end_to_end(runner)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}  ({describe(summary(series[name]))})")
    print(f"  items = {runner.items} {plan.items} per run; fail_frac = {runner.failed}/{runner.attempted}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

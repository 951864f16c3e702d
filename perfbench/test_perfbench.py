"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They run each workload's real command once at the default seed, traced and
untraced, so they take about a minute on two cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The per-layer metrics the benchmark promises for every workload.
NAMED_LAYER_METRICS = (
    "witness.t_max_s",
    "witness.correlation_tensor_s",
    "basis.project_traceless_s",
    "witness.tensor_bytes",
    "states.build_s",
    "states.build_calls",
    "witness.spin_tensor_s",
    "basis.schwinger_ops_calls",
    "witness.entropy_s",
    "witness.evaluate_s",
    "sweep.run_family_s",
    "sweep.rows_to_csv_s",
    "sweep.emit_bytes",
    "oracle.product_overlap_search_s",
    "oracle.product_overlap_search_calls",
    "basis.project_traceless_calls",
    "oracle.roundtrip_error_s",
    "checks.run_checks_s",
    "basis.build_gellmann_calls",
    "basis.build_gellmann_s",
    "cli.main_s",
    "trace_overhead_s",
)

# One count per workload that the traced run must see, to show the wrappers
# were on the path the command takes.
EXPECTED_CALLS = {
    "szsz-grid": ("states.build_calls", 1024),
    "acstark-scan": ("witness.t_max_calls", 39),
    "check-all": ("checks.run_checks_calls", 1),
}


def _bindings() -> dict:
    return {
        (name, key): value
        for name in tracer.MODULES
        for key, value in vars(sys.modules[name]).items()
    }


def _bench_cmd(root: Path, *args: str) -> list:
    return [sys.executable, str(root / "perfbench" / "run.py"), *args]


def test_benchmark_file_lists_every_metric_the_runs_print():
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    assert set(NAMED_LAYER_METRICS) <= set(layer_names)
    assert layer_names == [*tracer.metric_units(), "trace_overhead_s"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize(
    "argv, code",
    [(["sweep", "szsz", "--n", "1-2", "--grid", "0:1:4"], 0), (["sweep", "szsz", "--n", "0"], 2)],
)
def test_traced_run_restores_every_wrapped_binding(argv, code):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tracer.trace_main(["sweep", "maxent", "--n", "1"])
        before = _bindings()
        got, traced = tracer.trace_main(argv)
    after = _bindings()
    assert got == code
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert traced.metrics()["cli.main_calls"] == 1


def test_nested_calls_of_one_layer_make_one_span():
    with contextlib.redirect_stdout(io.StringIO()):
        _, traced = tracer.trace_main(["sweep", "szsz", "--n", "3", "--grid", "0:1:2"])
    metrics = traced.metrics()
    # szsz_state calls from_coefficients: one states.build span per state.
    assert metrics["states.build_calls"] == 2
    assert metrics["witness.evaluate_calls"] == 2
    assert metrics["witness.tensor_bytes"] == 2 * (16 * 4**4 + 8 * 15**2)
    spans = traced.spans()
    for span, up in enumerate(spans["parent"]):
        if up >= 0:
            assert spans["start"][up] <= spans["start"][span] <= spans["end"][span] <= spans["end"][up]
    total = metrics["cli.main_total_s"]
    self_sum = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.endswith("_total_s"))
    assert self_sum == pytest.approx(total, rel=1e-9)


def test_runs_come_in_whole_cycles():
    runner = run.Runner(run.Plan([["a"], ["b"], ["c"]], check=None, items=""), seconds=10.0)
    seen = []
    for argv in runner.cycles():
        seen.append(argv[0])
        runner.measured += 1.5
    # A cycle takes 4.5 s; a third would end more than half a cycle past 10 s.
    assert seen == ["a", "b", "c"] * 2


def test_check_all_cycles_the_same_check_seeds_at_every_speed():
    argvs = run.WORKLOADS["check-all"](0).argvs
    assert argvs[0] == ["check", "all", "--seed", "7"]
    assert len({tuple(a) for a in argvs}) == run.CHECK_SEEDS
    assert run.WORKLOADS["check-all"](5).argvs == run.WORKLOADS["check-all"](5).argvs


def test_children_run_blas_on_one_thread():
    code = "import os; print(*(os.environ.get(k) for k in %r))" % (run.BLAS_THREAD_VARS,)
    sample = run.run_child([sys.executable, "-c", code], time.perf_counter() + 60)
    assert sample.stdout.split() == [b"1"] * len(run.BLAS_THREAD_VARS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_and_untraced_runs_print_identical_output(workload, tmp_path):
    plan = run.WORKLOADS[workload](0)
    argv = plan.argvs[0]
    deadline = time.perf_counter() + 170.0
    plain = run.run_child(run.cli_cmd(argv), deadline)
    report_file = tmp_path / "trace.json"
    spans_file = tmp_path / "spans.json"
    traced = run.run_child(
        [sys.executable, str(HERE / "tracer.py"), "--out", str(report_file), "--spans", str(spans_file),
         "--", *argv],
        deadline,
    )
    assert plain.code == 0 and traced.code == 0
    assert traced.stdout == plain.stdout
    assert plan.check(plain.stdout)[1] == []

    report = json.loads(report_file.read_text())
    metrics = report["metrics"]
    assert set(metrics) == set(tracer.metric_units())
    name, calls = EXPECTED_CALLS[workload]
    assert metrics[name] == calls
    assert 0.0 < report["report_s"] < traced.wall_s
    assert len(json.loads(spans_file.read_text())["name"]) >= calls


# (workload, CSV column changed in the first row); the first szsz row is N = 1.
@pytest.mark.parametrize(
    "workload, column",
    [("szsz-grid", "weight"), ("szsz-grid", "t_norm"), ("szsz-grid", "epsilon"),
     ("acstark-scan", "weight"), ("check-all", None)],
)
def test_output_check_rejects_a_changed_field(workload, column):
    plan = run.WORKLOADS[workload](0)
    out = run.run_child(run.cli_cmd(plan.argvs[0]), time.perf_counter() + 170.0).stdout
    if column is None:
        bad = out.replace(b'"passed": true', b'"passed": false', 1)
    else:
        lines = out.split(b"\n")
        fields = lines[1].split(b",")
        i = lines[0].split(b",").index(column.encode())
        fields[i] = repr(float(fields[i]) * (1 + 1e-6)).encode()
        bad = b"\n".join([lines[0], b",".join(fields), *lines[2:]])
    assert plan.check(out)[1] == []
    assert plan.check(bad)[1] != []


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_reports_every_metric_with_its_unit(trace, section):
    proc = subprocess.run(
        _bench_cmd(ROOT, "--workload", "szsz-grid", "--seed", "3", "--seconds", "0", "--trace", trace),
        capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_benchmark_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        _bench_cmd(tmp_path, "--workload", "szsz-grid", "--seed", "1", "--seconds", "1", "--trace", "0"),
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

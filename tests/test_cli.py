import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from boswit import checks, cli
from boswit.cli import main
from boswit.sweep import CSV_COLUMNS, GRID_MAX_STEPS, N_HARD_CAP


def test_sweep_szsz_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["sweep", "szsz", "--n", "1", "--grid", "0:0.5:4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5


def test_sweep_stdout_json(capsys):
    code = main(["sweep", "maxent", "--n", "1,2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in payload["rows"]] == [1, 2]
    assert payload["rows"][0]["epsilon"] == pytest.approx(3.0, abs=1e-9)


def test_sweep_n_range_token(capsys):
    code = main(["sweep", "maxent", "--n", "2-4", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in payload["rows"]] == [2, 3, 4]


def test_sweep_acstark_outcomes(capsys):
    code = main(
        ["sweep", "acstark", "--n", "3", "--grid", "0:0.4:2", "--nc", "1", "--nd", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 2


def test_sweep_pdc_csv_note(capsys):
    code = main(["sweep", "pdc", "--n", "1", "--K", "0.1:0.3:2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# ")
    assert "statistical" in out.splitlines()[0]


def test_invalid_arguments_exit_2(capsys):
    assert main(["sweep", "nosuch"]) == 2
    assert main(["sweep", "szsz", "--grid", "oops"]) == 2
    assert main(["sweep", "szsz", "--n", "25", "--grid", "0:0.1:1"]) == 2
    assert main(["sweep", "acstark", "--nc", "1"]) == 2
    assert main(["nosuch-command"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "szsz", "--t-over-n", "2.5"],
        ["sweep", "szsz", "--nc", "1", "--nd", "0"],
        ["sweep", "acstark", "--grid", "0:1:3", "--t-over-n", "2.5"],
        ["sweep", "maxent", "--grid", "0:1:3"],
        ["sweep", "maxent", "--K", "0.1:0.2:2"],
        ["sweep", "pdc", "--grid", "0.1:0.5:3", "--K", "0.1:0.2:2"],
        ["sweep", "szsz", "--K", "0.1:0.2:2"],
        ["sweep", "acstark", "--K", "0.1:0.2:2"],
        ["sweep", "szsz", "--jobs", "2"],
    ],
)
def test_unread_sweep_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sweep", "szsz", "--n", "2", "--grid", "0:inf:2"], "grid bound hi"),
        (["sweep", "acstark", "--n", "3", "--t-over-n", "nan"], "t_over_n"),
        (["sweep", "acstark", "--n", "3", "--t-over-n", "inf"], "t_over_n"),
        (["sweep", "pdc", "--n", "2", "--K", "1:200:2"], "squeezing 200.0"),
        (["sweep", "pdc", "--format", "json", "--K", "0.05:1e308:2"], "squeezing 1e+308"),
        (["check", "appendix", "--d", "7"], "'appendix'"),
        (["check", "closed-forms", "--d", "5"], "'closed-forms'"),
        (["sweep", "maxent", "--n", "-1"], "--n takes boson numbers or lo-hi ranges, got '-1'"),
        (["sweep", "maxent", "--n", "3-"], "--n takes boson numbers or lo-hi ranges, got '3-'"),
        (["sweep", "pdc", "--K", "0.5:3:3"], "truncation at N=200 leaves probability"),
        (["sweep", "acstark", "--n", "2", "--grid", "0:1e308:2"], "coupling time overflows the phase 2 t (k1 + k2 - N) at N=2, got t=5e+307"),
        (["sweep", "acstark", "--n", "2", "--t-over-n", "1e308"], "coupling time overflows the phase 2 t (k1 + k2 - N) at N=2, got t=5e+307"),
        (["sweep", "szsz", "--grid=-1e308:1e308:3"], "grid span hi - lo must be finite"),
        (["sweep", "szsz", "--grid", "0:1:1.5"], "grid steps must be an integer, got '1.5'"),
        (["check", "appendix", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (["sweep", "szsz", "--n", "1", "--grid", "0:1:9999999999999"], "grid steps must be at most 1000000, got 9999999999999"),
        (["sweep", "szsz", "--n", "1-3000000"], "--n boson numbers beyond 40 are not supported, got '1-3000000'"),
    ],
)
def test_bad_input_exits_2_naming_it(argv, named, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


@pytest.mark.parametrize("argv", [["check", "basis", "--d", "42"], ["check", "all", "--d", "100000"]])
def test_oversized_check_dimension_exits_2_before_building(argv, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("basis checks started on an oversized dimension")

    monkeypatch.setattr(checks, "_basis_checks", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"at most {N_HARD_CAP + 1}" in captured.err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sweep", "szsz", "--n", "1", "--grid", "0:1:9999999999999"], f"at most {GRID_MAX_STEPS}"),
        (["sweep", "pdc", "--K", f"0.1:1:{GRID_MAX_STEPS + 1}"], f"at most {GRID_MAX_STEPS}"),
        (["sweep", "maxent", "--n", "1-3000000"], f"--n boson numbers beyond {N_HARD_CAP}"),
    ],
)
def test_oversized_grid_or_n_range_exits_2_before_allocating(argv, named, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep allocated for an oversized input")

    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(cli, "run_family", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_run_checks_bounds_the_dimension():
    with pytest.raises(ValueError, match=f"at most {N_HARD_CAP + 1}, got {N_HARD_CAP + 2}"):
        checks.run_checks("basis", d=N_HARD_CAP + 2)


def test_import_loads_no_process_pool():
    code = (
        "import sys, boswit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.strip() == "[]"


def test_io_error_exit_3(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "rows.csv"
    code = main(["sweep", "szsz", "--n", "1", "--grid", "0:0.5:2", "--out", str(out)])
    assert code == 3


def test_check_appendix(capsys):
    code = main(["check", "appendix"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 8
    assert all(c["passed"] for c in payload["checks"])


def test_check_basis_single_dimension(capsys):
    code = main(["check", "basis", "--d", "7"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    names = [c["check_name"] for c in payload["checks"]]
    assert "basis_orthogonality_d7" in names
    assert "basis_completeness_d7" in names


def test_check_unknown_selector_exit_2():
    assert main(["check", "everything"]) == 2


# The README's data-generation lines, `boswit sweep ... --out data/<file>`,
# keyed by file; each value is the file's data rows (aggregates for JSON).
README_TABLES = {
    "szsz_identifiers.csv": 8 * 128,
    "acstark_time_sweep.csv": 6 * 128,
    "acstark_short_time.csv": 19,
    "spin_criterion.csv": 20 * 128,
    "pdc_rows.csv": 8 * 30,
    "pdc_average.json": 30,
}


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_data_lines() -> dict:
    lines = README.read_text(encoding="utf-8").splitlines()
    argvs = [shlex.split(line, comments=True) for line in lines if line.startswith("boswit sweep ")]
    return {argv[argv.index("--out") + 1]: argv for argv in argvs if "--out" in argv}


@pytest.mark.parametrize("name", README_TABLES)
def test_readme_data_line_writes_its_table(name, tmp_path):
    lines = _readme_data_lines()
    assert sorted(lines) == sorted(f"data/{table}" for table in README_TABLES)
    argv = lines[f"data/{name}"][1:]
    out = tmp_path / name
    argv[argv.index("--out") + 1] = str(out)
    assert main(argv) == 0
    if name.endswith(".json"):
        aggregates = json.loads(out.read_text(encoding="utf-8"))["aggregates"]
        assert len(aggregates) == README_TABLES[name]
        assert all(list(a) == ["squeezing", "eps_avg_series", "eps_avg_closed", "weight_sum", "n_trunc"] for a in aggregates)
        return
    rows = [line for line in out.read_text(encoding="utf-8").splitlines() if not line.startswith("# ")]
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 1 + README_TABLES[name]
    assert all(len(row.split(",")) == len(CSV_COLUMNS) for row in rows[1:])


# Every ```python block of the README, so no removed name stays in its examples.
README_PYTHON = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)


@pytest.mark.parametrize("block", README_PYTHON, ids=[f"block{i}" for i in range(len(README_PYTHON))])
def test_readme_python_block_runs(block, capsys):
    exec(compile(block, "README.md", "exec"), {})

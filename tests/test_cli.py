import json
import os
import subprocess
import sys

import pytest

from boswit.cli import main
from boswit.sweep import CSV_COLUMNS


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

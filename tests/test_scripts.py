import runpy
import sys
from pathlib import Path

import pytest

from boswit.sweep import CSV_COLUMNS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SWEEP_HEADER = ",".join(CSV_COLUMNS)

# script -> {written file: (header, data rows)}
EXPECTED = {
    "szsz_identifiers.py": {"szsz_identifiers.csv": (SWEEP_HEADER, 8 * 128)},
    "acstark_scaling.py": {
        "acstark_time_sweep.csv": (SWEEP_HEADER, 6 * 128),
        "acstark_short_time.csv": (SWEEP_HEADER, 19),
    },
    "pdc_average.py": {
        "pdc_rows.csv": (SWEEP_HEADER, 8 * 30),
        "pdc_average.csv": ("squeezing,eps_avg_series,eps_avg_closed,weight_sum,n_trunc", 30),
    },
    "spin_criterion_failure.py": {
        "spin_criterion.csv": ("n,tau,spin_t_norm,spin_t_max,spin_epsilon", 20 * 128),
    },
}


@pytest.mark.parametrize("script", EXPECTED)
def test_script_writes_its_tables(script, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script, str(tmp_path)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(EXPECTED[script])
    for name, (header, n_rows) in EXPECTED[script].items():
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + n_rows
        assert all(len(line.split(",")) == len(header.split(",")) for line in lines[1:])
    assert capsys.readouterr().out.count("wrote ") == len(EXPECTED[script])

import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from boswit import sweep
from boswit.cli import main
from boswit.states import PdcEnsemble, pdc_weight, szsz_state
from boswit.sweep import (
    CSV_COLUMNS,
    GridSpec,
    SweepConfig,
    default_grid,
    rows_to_csv,
    rows_to_json,
    run_family,
)
from boswit.witness import evaluate_many

SMALL_GRID = GridSpec(0.0, math.pi / 2, 8)


def test_grid_spec_points():
    g = GridSpec(0.0, 1.0, 4)
    assert np.allclose(g.points(), [0.0, 0.25, 0.5, 0.75])
    g = GridSpec(0.0, 1.0, 5, inclusive=True)
    assert np.allclose(g.points(), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0)


@pytest.mark.parametrize(
    "lo, hi, bad", [(0.0, math.inf, "hi"), (-math.inf, 1.0, "lo"), (math.nan, 1.0, "lo"), (0.0, math.nan, "hi")]
)
def test_grid_rejects_non_finite_bounds(lo, hi, bad):
    with pytest.raises(ValueError, match=f"grid bound {bad} must be finite"):
        GridSpec(lo, hi, 2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_t_over_n_rejected(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t_over_n must be finite"):
            run_family(SweepConfig("acstark", (3,), t_over_n=value))


def test_szsz_rows_ordered_and_consistent():
    cols = run_family(SweepConfig("szsz", (1, 2), grid=SMALL_GRID)).columns
    assert set(cols) == set(CSV_COLUMNS)
    assert all(len(col) == 16 for col in cols.values())
    assert cols["n"].tolist() == [1] * 8 + [2] * 8
    assert cols["family"].tolist() == ["szsz"] * 16
    taus = cols["param"][:8].tolist()
    assert taus == sorted(taus)
    for eps, tm, tn, weight in zip(cols["epsilon"], cols["t_max"], cols["t_norm"], cols["weight"]):
        assert eps * tm == pytest.approx(tn, abs=1e-9)
        assert weight == 1.0
    assert cols["param"][0] == 0.0
    assert cols["t_norm"][0] == pytest.approx(1.0, abs=1e-12)
    assert cols["epsilon"][0] == pytest.approx(1.0, abs=1e-12)
    assert cols["entropy"][0] == pytest.approx(0.0, abs=1e-12)
    assert cols["bloch_sq"][0] == pytest.approx(1.0, abs=1e-12)


def test_maxent_rows():
    cols = run_family(SweepConfig("maxent", (1, 2, 3))).columns
    assert cols["n"].tolist() == [1, 2, 3]
    for n, eps, entropy in zip(cols["n"], cols["epsilon"], cols["entropy"]):
        assert eps == pytest.approx(n + 2, abs=1e-9)
        assert entropy == pytest.approx(math.log2(n + 1), abs=1e-12)


def test_acstark_default_outcomes_and_weight():
    cols = run_family(SweepConfig("acstark", (2,), grid=GridSpec(0.0, 0.4, 4))).columns
    assert len(cols["n"]) == 4
    assert cols["weight"][0] == pytest.approx(0.25, rel=1e-12)
    assert cols["epsilon"][0] == pytest.approx(1.0, abs=1e-10)
    assert all(eps > 1.0 for eps in cols["epsilon"][1:])


def test_acstark_t_over_n_mode():
    cols = run_family(SweepConfig("acstark", (2, 4, 5), t_over_n=2.5)).columns
    assert cols["param"].tolist() == pytest.approx([1.25, 0.625, 0.5])
    assert all(eps > 1.0 for eps in cols["epsilon"])


def test_acstark_outcome_override():
    cols = run_family(SweepConfig("acstark", (3,), grid=GridSpec(0.0, 0.4, 2), outcomes=(1, 2))).columns
    assert len(cols["n"]) == 2


def test_pdc_result():
    grid = GridSpec(0.1, 0.5, 3, inclusive=True)
    res = run_family(SweepConfig("pdc", (1, 2), grid=grid))
    assert len(res.aggregates) == 3
    assert len(res.columns["n"]) == 6
    for agg in res.aggregates:
        assert abs(agg.eps_avg_series - agg.eps_avg_closed) < 1e-8
        assert agg.eps_avg_series > 1.0
        assert agg.weight_sum == pytest.approx(1.0, abs=1e-8)
    cols = res.columns
    for n, k, eps, weight in zip(cols["n"].tolist(), cols["param"].tolist(), cols["epsilon"], cols["weight"]):
        assert eps == pytest.approx(n + 2, abs=1e-9)
        assert weight == pytest.approx(pdc_weight(n, k), rel=1e-12)


def test_pdc_weight_column_is_the_ensemble_weight():
    # One formula: each default pdc row carries, bit for bit, the weight its
    # squeezing's ensemble gives its N.
    cols = run_family(SweepConfig("pdc", sweep.default_n_values("pdc"))).columns
    ensembles = {k: PdcEnsemble.build(k) for k in default_grid("pdc").points().tolist()}
    assert len(cols["n"]) == 240
    for n, k, weight in zip(cols["n"].tolist(), cols["param"].tolist(), cols["weight"]):
        assert weight.tobytes() == ensembles[k].weights[n].tobytes(), (n, k)


def test_n_value_caps():
    with pytest.raises(ValueError, match="cap"):
        run_family(SweepConfig("szsz", (25,), grid=SMALL_GRID))
    with pytest.raises(ValueError, match="not supported"):
        run_family(SweepConfig("szsz", (41,), grid=SMALL_GRID, allow_large=True))
    with pytest.raises(ValueError):
        run_family(SweepConfig("szsz", (0,), grid=SMALL_GRID))
    with pytest.raises(ValueError, match="empty boson-number list"):
        run_family(SweepConfig("szsz", (), grid=SMALL_GRID))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = run_family(SweepConfig("szsz", (21,), grid=GridSpec(0.0, 0.1, 1), allow_large=True)).columns
    assert cols["n"].tolist() == [21]


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        run_family(SweepConfig("bogus", (1,)))


def test_csv_shape_and_determinism():
    config = SweepConfig("szsz", (1, 2), grid=SMALL_GRID)
    text1 = rows_to_csv(run_family(config).columns)
    text2 = rows_to_csv(run_family(config).columns)
    assert text1 == text2
    lines = text1.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 17
    assert text1.endswith("\n")
    assert "\r" not in text1
    first = lines[1].split(",")
    assert first[0] == "szsz" and first[1] == "1" and first[2] == "0"
    # 12 significant digits
    tau = math.pi / 16
    row_tau = lines[2].split(",")[2]
    assert row_tau == "%.12g" % tau


# Literal output of the sweep engine before it became one serial loop; every
# float here sits away from a 12-digit rounding boundary and from rounding noise.
PINNED_CSV = {
    SweepConfig("szsz", (1, 2), grid=GridSpec(0.3, 1.5, 4)): """\
family,n,param,t_norm,t_max,epsilon,bloch_sq,entropy,spin_t_norm,spin_t_max,spin_epsilon,weight
szsz,1,0.3,1.63764224552,1,1.63764224552,0.681178877238,0.427501771056,1.63764224552,1,1.63764224552,1
szsz,1,0.6,2.73739371554,1,2.73739371554,0.131303142229,0.903094862482,2.73739371554,1,2.73739371554,1
szsz,1,0.9,2.89675841633,1,2.89675841633,0.0516207918329,0.962436302631,2.89675841633,1,2.89675841633,1
szsz,1,1.2,1.91250101656,1,1.91250101656,0.54374949172,0.561001257214,1.91250101656,1,1.91250101656,1
szsz,2,0.3,1.58626390631,0.82161160337,1.93067369035,0.413736093689,0.956495750263,0.898353091681,0.681178877238,1.31882112276,1
szsz,2,0.6,1.86913270555,0.680877924611,2.74518035905,0.130867294447,1.37319561625,0.245365769299,0.337731590276,0.726511159644,1
szsz,2,0.9,1.81424550394,0.715496227382,2.5356464989,0.185754496063,1.22914717838,0.100576877516,0.221260221647,0.454563756501,1
szsz,2,1.2,1.7157413773,0.766579548495,2.23817786512,0.284258622704,1.16695420646,0.791835473694,0.54374949172,1.45625050828,1
""",
    SweepConfig("acstark", (2, 3), grid=GridSpec(0.2, 0.8, 3)): """\
family,n,param,t_norm,t_max,epsilon,bloch_sq,entropy,spin_t_norm,spin_t_max,spin_epsilon,weight
acstark,2,0.2,1.2870266284,0.922188752691,1.39562169312,0.712973371597,0.491285138909,0.831614795508,0.785683033287,1.05846093179,0.154451673984
acstark,2,0.4,1.74999781916,0.750001090417,2.33332703315,0.250002180839,0.999997902475,0.99829768482,0.99914666157,0.999150298166,0.125000090868
acstark,2,0.6,1.22163440884,0.941125149804,1.2980573403,0.778365591159,0.403345279299,0.865149945364,0.839337509515,1.03075334482,0.161957938718
acstark,3,0.2,1.31541060685,0.807276831011,1.62944179285,0.526884089726,0.858211349321,0.641313069073,0.623315396322,1.02887410267,0.0696479247933
acstark,3,0.4,1.56902002391,0.554293932905,2.8306642573,0.146469964135,1.65387392828,0.500642327427,0.514785740378,0.972525631846,0.0625000000387
acstark,3,0.6,1.48960454122,0.651801752583,2.2853644307,0.265593188169,1.35315592763,0.705520302753,0.679811401914,1.03781769586,0.0725479301965
""",
    SweepConfig("acstark", (2, 3, 5), t_over_n=2.5): """\
family,n,param,t_norm,t_max,epsilon,bloch_sq,entropy,spin_t_norm,spin_t_max,spin_epsilon,weight
acstark,2,1.25,1.73082561308,0.759410093731,2.27917119797,0.269174386918,0.981478742971,0.865672606015,0.91362053461,0.947518770891,0.125809311649
acstark,3,0.833333333333,1.4450924961,0.666204972949,2.16914096229,0.332361255846,1.00894815761,0.980538221439,0.989658437322,0.990784481252,0.118435015405
acstark,5,0.5,1.2995293408,0.502863044999,2.58426097071,0.251176647997,1.49605657613,0.546909531276,0.633786018793,0.862924575581,0.0117767960357
""",
    SweepConfig("pdc", (1, 2), grid=GridSpec(0.1, 0.5, 3, inclusive=True)): """\
# eps_avg aggregates describe the whole post-selected ensemble and have statistical meaning only; they are not observable in a single run
family,n,param,t_norm,t_max,epsilon,bloch_sq,entropy,spin_t_norm,spin_t_max,spin_epsilon,weight
pdc,1,0.1,3,1,3,0,1,3,1,3,0.0194746644836
pdc,2,0.1,2,0.5,4,0,1.58496250072,1.33333333333,0.666666666667,2,0.000290183479235
pdc,1,0.3,3,1,3,0,1,3,1,3,0.142141457621
pdc,2,0.3,2,0.5,4,0,1.58496250072,1.33333333333,0.666666666667,2,0.0180938339162
pdc,1,0.5,3,1,3,0,1,3,1,3,0.26416416999
pdc,2,0.5,2,0.5,4,0,1.58496250072,1.33333333333,0.666666666667,2,0.0846192860559
""",
    SweepConfig("maxent", (1, 2, 3)): """\
family,n,param,t_norm,t_max,epsilon,bloch_sq,entropy,spin_t_norm,spin_t_max,spin_epsilon,weight
maxent,1,0,3,1,3,0,1,3,1,3,1
maxent,2,0,2,0.5,4,0,1.58496250072,1.33333333333,0.666666666667,2,1
maxent,3,0,1.66666666667,0.333333333333,5,0,2,0.925925925926,0.555555555556,1.66666666667,1
""",
}


@pytest.mark.parametrize(
    "config", PINNED_CSV, ids=["szsz", "acstark-grid", "acstark-t-over-n", "pdc", "maxent"]
)
def test_csv_matches_pinned_output(config):
    result = run_family(config)
    assert rows_to_csv(result.columns, comment=result.note) == PINNED_CSV[config]


# SHA-256 of the CSV that ``boswit sweep <args>`` printed when every row was
# evaluated on its own: the four default sweeps and the two large acstark runs.
PINNED_SHA256 = {
    "szsz": "85d19d5bff3a5ffe3c2afe51483882783d1afecdd430914d0ed4cb424ca59207",
    "acstark": "defab5e4905784228e2f63a78a231cebd807f87e6308fd8f34c537759d4d31bf",
    "pdc": "76a7b28d8dfa965d897b1cd669e3e35c0b09744c2adcc31e5d60f0c553b70d3a",
    "maxent": "8603444d0556be969279967f3a46566da5b701b7db494c6239c92bbc97226694",
    "acstark --n 2-40 --t-over-n 2.5 --allow-large": "83b21665299427f8133e1fc29052473d183cea1cad25226231587a81d9eb831d",
    "acstark --n 20 --allow-large": "268b4bd5acdb159f686c1159de2fe2461547d6696ce9d3c99404fd728e7d594d",
}


@pytest.mark.parametrize("args", PINNED_SHA256)
def test_default_csv_matches_pinned_digest(args, capsys):
    assert main(["sweep", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_SHA256[args]


def _kernel_sets_skip_reason():
    """Why OpenBLAS kernel sets cannot be forced here, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy reports no BLAS build configuration"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return "numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = fh.read().split()
    except OSError:
        return "no /proc/cpuinfo to read the CPU flags from"
    if "avx2" not in flags:
        return "the CPU lacks AVX2, which the Haswell and Zen kernel sets need"
    return None


# Largest moves measured against SkylakeX kernels: the szsz spin columns of
# near-zero rows move by up to 1.00007e-15 absolute, and six acstark fields
# by one unit in the 12th significant digit, at most 1e-11 of the value.
# Each bound leaves a margin over its measurement.
KERNEL_BOUNDS = {"szsz": {"rel_tol": 0.0, "abs_tol": 2e-15}, "acstark": {"rel_tol": 1.1e-11, "abs_tol": 0.0}}
KERNEL_SKIP = _kernel_sets_skip_reason()


@pytest.mark.skipif(KERNEL_SKIP is not None, reason=str(KERNEL_SKIP))
@pytest.mark.parametrize("family", KERNEL_BOUNDS)
def test_default_sweep_fields_hold_across_blas_kernel_sets(family):
    # The bytes of a sweep depend on the BLAS kernels the CPU gets; the
    # digits that move must stay within the family's bound.
    here = rows_to_csv(run_family(SweepConfig(family, sweep.default_n_values(family))).columns).splitlines()
    argv = [sys.executable, "-m", "boswit.cli", "sweep", family]
    for kernels in ("Haswell", "Zen", "Sandybridge"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_CORETYPE": kernels}
        there = subprocess.run(argv, capture_output=True, env=env, check=True, text=True, timeout=60).stdout.splitlines()
        assert len(there) == len(here), kernels
        for line_here, line_there in zip(here, there):
            for x, y in zip(line_here.split(","), line_there.split(","), strict=True):
                assert x == y or math.isclose(float(x), float(y), **KERNEL_BOUNDS[family]), (kernels, x, y)


def test_purity_identity_on_every_default_row():
    # For a pure state t_norm = (d + 1 - 2 bloch_sq) / (d - 1): both sides are
    # affine in the purity sum p^2.  The largest residual measured is 1.8e-15.
    rows = 0
    for family in sweep.FAMILIES:
        cols = run_family(SweepConfig(family, sweep.default_n_values(family))).columns
        d = cols["n"] + 1.0
        np.testing.assert_allclose(cols["t_norm"], (d + 1 - 2 * cols["bloch_sq"]) / (d - 1), rtol=0, atol=1e-14)
        rows += len(d)
    assert rows == 2298


def test_stacks_across_a_chunk_boundary_match_single_states():
    # At N = 40 each evaluate_many call of a sweep holds this many states.
    per_chunk = sweep._CHUNK_ENTRIES // 41**2
    grid = GridSpec(0.0, 1.0, 2 * per_chunk + 1)
    cols = run_family(SweepConfig("szsz", (40,), grid=grid, allow_large=True)).columns
    members = [szsz_state(40, float(tau)) for tau in grid.points()]
    stacked = evaluate_many(np.stack([state.coeff for state in members]))
    for i, state in enumerate(members):
        rep = evaluate_many(state.coeff[None])
        for name, col in stacked.items():
            assert repr(col[i].item()) == repr(rep[name][0].item()), (i, name)
            if name in cols:
                assert repr(cols[name][i].item()) == repr(rep[name][0].item()), (i, name)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_sweep_memory_stays_flat_in_the_grid_size(boswit_peak_rss):
    # Chunked, this sweep peaks near 35 MB; one stack of all 1,000 N = 40
    # states needs ~440 MB for its spin products alone.
    code, peak_mb = boswit_peak_rss("sweep", "szsz", "--n", "40", "--grid", "0:1:1000", "--allow-large")
    assert code == 0
    assert peak_mb < 55


@pytest.mark.parametrize(
    "config",
    [
        SweepConfig("szsz", (1,), t_over_n=2.5),
        SweepConfig("szsz", (1,), outcomes=(1, 0)),
        SweepConfig("acstark", (2,), grid=SMALL_GRID, t_over_n=2.5),
        SweepConfig("pdc", (1,), outcomes=(1, 0)),
        SweepConfig("maxent", (1,), grid=SMALL_GRID),
        SweepConfig("maxent", (1,), t_over_n=2.5),
    ],
)
def test_unread_inputs_rejected(config):
    with pytest.raises(ValueError, match="takes no|one or the other"):
        run_family(config)


def test_only_pdc_carries_aggregates_and_note():
    for family in ("szsz", "acstark", "maxent"):
        grid = None if family == "maxent" else SMALL_GRID
        result = run_family(SweepConfig(family, (1,), grid=grid))
        assert result.aggregates is None and result.note is None
    result = run_family(SweepConfig("pdc", (1,), grid=GridSpec(0.1, 0.2, 2, inclusive=True)))
    assert len(result.aggregates) == 2 and "statistical" in result.note


def test_json_mirrors_row_fields():
    import json

    cols = run_family(SweepConfig("szsz", (1,), grid=GridSpec(0.0, 0.2, 2))).columns
    payload = json.loads(rows_to_json(cols))
    assert set(payload["rows"][0]) == set(CSV_COLUMNS)
    res = run_family(SweepConfig("pdc", (1,), grid=GridSpec(0.1, 0.2, 2, inclusive=True)))
    payload = json.loads(rows_to_json(res.columns, aggregates=res.aggregates, note="x"))
    assert payload["note"] == "x"
    assert set(payload["aggregates"][0]) == {
        "squeezing",
        "eps_avg_series",
        "eps_avg_closed",
        "weight_sum",
        "n_trunc",
    }


def test_default_grids():
    assert default_grid("szsz").steps == 128
    assert default_grid("pdc").inclusive
    with pytest.raises(ValueError):
        default_grid("maxent")

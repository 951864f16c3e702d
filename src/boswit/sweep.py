"""Parameter sweeps over the state families, with deterministic output.

Rows are produced in a fixed (N, parameter) order regardless of the worker
count, and floats are printed with 12 significant digits, so identical
configurations yield byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import states, witness
from .oracle import pdc_epsilon_average

__all__ = [
    "GridSpec",
    "SweepConfig",
    "SweepRow",
    "PdcAggregate",
    "PdcSweepResult",
    "run_szsz",
    "run_acstark",
    "run_pdc",
    "run_maxent",
    "run_family",
    "rows_to_csv",
    "rows_to_json",
    "write_text",
    "default_grid",
    "default_n_values",
    "N_SOFT_CAP",
    "N_HARD_CAP",
    "CSV_COLUMNS",
]

N_SOFT_CAP = 20
N_HARD_CAP = 40

CSV_COLUMNS = (
    "family",
    "n",
    "param",
    "t_norm",
    "t_max",
    "epsilon",
    "bloch_sq",
    "entropy",
    "spin_t_norm",
    "spin_t_max",
    "spin_epsilon",
    "weight",
)

FAMILIES = ("szsz", "acstark", "pdc", "maxent")


@dataclass(frozen=True)
class GridSpec:
    """Uniform parameter grid; ``inclusive`` keeps the upper endpoint."""

    lo: float
    hi: float
    steps: int
    inclusive: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"grid needs at least one step, got {self.steps!r}")
        if not self.hi > self.lo:
            raise ValueError(f"grid range must satisfy hi > lo, got {self.lo!r}:{self.hi!r}")

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps, endpoint=self.inclusive)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep request."""

    family: str
    n_values: tuple
    grid: GridSpec | None = None
    outcomes: tuple | None = None    # (n_c, n_d) override for acstark
    t_over_n: float | None = None    # single point t = value / N per N
    out: str | None = None
    fmt: str = "csv"
    jobs: int = 1
    allow_large: bool = False


@dataclass(frozen=True)
class SweepRow:
    family: str
    n: int
    param: float
    t_norm: float
    t_max: float
    epsilon: float
    bloch_sq: float
    entropy: float
    spin_t_norm: float
    spin_t_max: float
    spin_epsilon: float
    weight: float


@dataclass(frozen=True)
class PdcAggregate:
    squeezing: float
    eps_avg_series: float
    eps_avg_closed: float
    weight_sum: float
    n_trunc: int


@dataclass(frozen=True)
class PdcSweepResult:
    rows: list
    aggregates: list


def default_grid(family: str) -> GridSpec:
    if family in ("szsz", "acstark"):
        return GridSpec(0.0, math.pi / 2.0, 128)
    if family == "pdc":
        return GridSpec(0.05, 1.5, 30, inclusive=True)
    raise ValueError(f"family {family!r} takes no parameter grid")


def default_n_values(family: str) -> tuple:
    if family == "maxent":
        return tuple(range(1, 11))
    return tuple(range(1, 9))


def _validate_n_values(config: SweepConfig) -> None:
    for n in config.n_values:
        if n < 1:
            raise ValueError(f"boson numbers must be >= 1, got {n}")
        if n > N_HARD_CAP:
            raise ValueError(f"boson numbers beyond {N_HARD_CAP} are not supported, got {n}")
        if n > N_SOFT_CAP and not config.allow_large:
            raise ValueError(
                f"N={n} exceeds the default cap of {N_SOFT_CAP}; set allow_large to override"
            )
    if config.allow_large and any(n > N_SOFT_CAP for n in config.n_values):
        warnings.warn(
            f"sweeping N > {N_SOFT_CAP} takes minutes per grid; expect long runtimes",
            RuntimeWarning,
            stacklevel=3,
        )


def _make_row(family: str, n: int, param: float, rep: witness.CriterionReport, weight: float) -> SweepRow:
    return SweepRow(
        family=family,
        n=int(n),
        param=float(param),
        t_norm=rep.t_norm,
        t_max=rep.t_max,
        epsilon=rep.epsilon,
        bloch_sq=rep.bloch_sq_a,
        entropy=rep.entropy,
        spin_t_norm=rep.spin_t_norm,
        spin_t_max=rep.spin_t_max,
        spin_epsilon=rep.spin_epsilon,
        weight=float(weight),
    )


def _szsz_task(args) -> SweepRow:
    n, tau = args
    rep = witness.evaluate(states.szsz_state(n, tau))
    return _make_row("szsz", n, tau, rep, 1.0)


def _acstark_task(args) -> SweepRow:
    n, t, n_c, n_d = args
    outcome = states.acstark_state(n, t, n_c, n_d)
    rep = witness.evaluate(outcome.state)
    return _make_row("acstark", n, t, rep, outcome.norm_weight)


def _maxent_task(n: int) -> SweepRow:
    rep = witness.evaluate(states.maximally_entangled(n))
    return _make_row("maxent", n, 0.0, rep, 1.0)


def _map_tasks(fn, tasks, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def run_szsz(config: SweepConfig) -> list:
    _validate_n_values(config)
    grid = config.grid or default_grid("szsz")
    tasks = [(n, float(tau)) for n in config.n_values for tau in grid.points()]
    return _map_tasks(_szsz_task, tasks, config.jobs)


def run_acstark(config: SweepConfig) -> list:
    _validate_n_values(config)
    tasks = []
    for n in config.n_values:
        n_c, n_d = config.outcomes if config.outcomes is not None else states.default_photon_outcomes(n)
        if config.t_over_n is not None:
            tasks.append((n, config.t_over_n / n, n_c, n_d))
        else:
            grid = config.grid or default_grid("acstark")
            tasks.extend((n, float(t), n_c, n_d) for t in grid.points())
    return _map_tasks(_acstark_task, tasks, config.jobs)


def run_maxent(config: SweepConfig) -> list:
    _validate_n_values(config)
    return _map_tasks(_maxent_task, list(config.n_values), config.jobs)


def run_pdc(config: SweepConfig) -> PdcSweepResult:
    """Post-selected squeezed-vacuum sweep.

    Emits one row per (squeezing, pair number) with the post-selection
    probability in the weight column, plus per-squeezing aggregates holding
    the truncated-series and closed-form identifier means.  The mean is a
    property of the whole post-selected ensemble, not of any single run.
    """
    _validate_n_values(config)
    grid = config.grid or default_grid("pdc")
    reports = {n: witness.evaluate(states.maximally_entangled(n)) for n in config.n_values}
    rows = []
    aggregates = []
    for k in grid.points():
        k = float(k)
        series, closed = pdc_epsilon_average(k)
        ens = states.PdcEnsemble.build(k)
        aggregates.append(
            PdcAggregate(
                squeezing=k,
                eps_avg_series=series,
                eps_avg_closed=closed,
                weight_sum=float(ens.weights.sum()),
                n_trunc=ens.n_trunc,
            )
        )
        for n in config.n_values:
            rows.append(_make_row("pdc", n, k, reports[n], states.pdc_weight(n, k)))
    return PdcSweepResult(rows=rows, aggregates=aggregates)


def run_family(config: SweepConfig):
    if config.family == "szsz":
        return run_szsz(config)
    if config.family == "acstark":
        return run_acstark(config)
    if config.family == "pdc":
        return run_pdc(config)
    if config.family == "maxent":
        return run_maxent(config)
    raise ValueError(f"unknown family {config.family!r}; choose from {FAMILIES}")


def _fmt(x: float) -> str:
    return "%.12g" % x


def rows_to_csv(rows, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join(CSV_COLUMNS))
    for r in rows:
        lines.append(
            ",".join(
                (
                    r.family,
                    str(r.n),
                    _fmt(r.param),
                    _fmt(r.t_norm),
                    _fmt(r.t_max),
                    _fmt(r.epsilon),
                    _fmt(r.bloch_sq),
                    _fmt(r.entropy),
                    _fmt(r.spin_t_norm),
                    _fmt(r.spin_t_max),
                    _fmt(r.spin_epsilon),
                    _fmt(r.weight),
                )
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows, aggregates=None, note: str | None = None) -> str:
    payload: dict = {"rows": [asdict(r) for r in rows]}
    if aggregates is not None:
        payload["aggregates"] = [asdict(a) for a in aggregates]
    if note:
        payload["note"] = note
    return json.dumps(payload, indent=2) + "\n"


def write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)

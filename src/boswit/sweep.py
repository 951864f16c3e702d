"""Parameter sweeps over the state families, with deterministic output.

``run_family`` is the single entry point.  It evaluates serially in a fixed
row order, and floats are printed with 12 significant digits, so identical
configurations yield byte-identical files.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import states, witness
from .oracle import pdc_epsilon_average

__all__ = [
    "GridSpec",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "PdcAggregate",
    "run_family",
    "rows_to_csv",
    "rows_to_json",
    "write_text",
    "default_grid",
    "default_n_values",
    "FAMILIES",
    "PDC_NOTE",
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

PDC_NOTE = (
    "eps_avg aggregates describe the whole post-selected ensemble and have "
    "statistical meaning only; they are not observable in a single run"
)


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
    """One sweep request.  An optional input the family does not read is an
    error, not ignored."""

    family: str
    n_values: tuple
    grid: GridSpec | None = None
    outcomes: tuple | None = None    # (n_c, n_d) override for acstark
    t_over_n: float | None = None    # acstark: single point t = value / N per N
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
class SweepResult:
    """Rows of one sweep; ``aggregates`` and ``note`` are set for ``pdc`` only."""

    rows: list
    aggregates: list | None = None
    note: str | None = None


def _grid(config: SweepConfig) -> GridSpec:
    return config.grid or default_grid(config.family)


def _szsz_points(config: SweepConfig, n: int):
    for tau in _grid(config).points():
        tau = float(tau)
        yield tau, witness.evaluate(states.szsz_state(n, tau)), 1.0


def _acstark_points(config: SweepConfig, n: int):
    n_c, n_d = config.outcomes if config.outcomes is not None else states.default_photon_outcomes(n)
    times = (config.t_over_n / n,) if config.t_over_n is not None else _grid(config).points()
    for t in times:
        outcome = states.acstark_state(n, float(t), n_c, n_d)
        yield float(t), witness.evaluate(outcome.state), outcome.norm_weight


def _pdc_points(config: SweepConfig, n: int):
    # The N-pair component is the same state at every squeezing; only its
    # post-selection probability changes.
    report = witness.evaluate(states.maximally_entangled(n))
    for k in _grid(config).points():
        k = float(k)
        yield k, report, states.pdc_weight(n, k)


def _maxent_points(config: SweepConfig, n: int):
    yield 0.0, witness.evaluate(states.maximally_entangled(n)), 1.0


def _pdc_aggregates(config: SweepConfig) -> list:
    """Truncated-series and closed-form identifier means per squeezing.  The
    mean is a property of the whole post-selected ensemble, not of any single
    run."""
    aggregates = []
    for k in _grid(config).points():
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
    return aggregates


@dataclass(frozen=True)
class _Family:
    # (config, N) -> (parameter, report, weight) for each of N's points.
    points: Callable
    n_values: tuple = tuple(range(1, 9))
    grid: GridSpec | None = None                    # default parameter grid
    reads: frozenset = frozenset()                  # optional SweepConfig inputs used
    param_major: bool = False                       # rows ordered by parameter, then N
    aggregates: Callable | None = None              # config -> per-parameter aggregates
    note: str | None = None


_HALF_PERIOD = GridSpec(0.0, math.pi / 2.0, 128)

_FAMILIES = {
    "szsz": _Family(_szsz_points, grid=_HALF_PERIOD, reads=frozenset({"grid"})),
    "acstark": _Family(
        _acstark_points, grid=_HALF_PERIOD, reads=frozenset({"grid", "outcomes", "t_over_n"})
    ),
    "pdc": _Family(
        _pdc_points,
        grid=GridSpec(0.05, 1.5, 30, inclusive=True),
        reads=frozenset({"grid"}),
        param_major=True,
        aggregates=_pdc_aggregates,
        note=PDC_NOTE,
    ),
    "maxent": _Family(_maxent_points, n_values=tuple(range(1, 11))),
}

FAMILIES = tuple(_FAMILIES)


def _family(name: str) -> _Family:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {FAMILIES}") from None


def default_grid(family: str) -> GridSpec:
    grid = _family(family).grid
    if grid is None:
        raise ValueError(f"family {family!r} takes no parameter grid")
    return grid


def default_n_values(family: str) -> tuple:
    return _family(family).n_values


def _check_inputs(config: SweepConfig, family: _Family) -> None:
    for name in ("grid", "outcomes", "t_over_n"):
        if getattr(config, name) is not None and name not in family.reads:
            raise ValueError(f"family {config.family!r} takes no {name}")
    if config.grid is not None and config.t_over_n is not None:
        raise ValueError("t_over_n replaces the parameter grid; give one or the other")


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


def run_family(config: SweepConfig) -> SweepResult:
    """Evaluate one sweep serially, for any family.

    Rows run over N in the order given and, within each N, over the
    parameter points in ascending order; ``pdc`` rows are ordered by
    squeezing first, one row per (squeezing, pair number), with the
    post-selection probability in the weight column.
    """
    family = _family(config.family)
    _check_inputs(config, family)
    _validate_n_values(config)
    aggregates = family.aggregates(config) if family.aggregates is not None else None
    rows = [
        _make_row(config.family, n, param, report, weight)
        for n in config.n_values
        for param, report, weight in family.points(config, n)
    ]
    if family.param_major:
        rows.sort(key=lambda row: row.param)  # stable: N order kept per parameter
    return SweepResult(rows, aggregates, family.note)


# One CSV line: family, N, then every float with 12 significant digits.
_CSV_ROW = ",".join(["%s", "%d"] + ["%.12g"] * (len(CSV_COLUMNS) - 2))
_csv_fields = operator.attrgetter(*CSV_COLUMNS)


def rows_to_csv(rows, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join(CSV_COLUMNS))
    for r in rows:
        lines.append(_CSV_ROW % _csv_fields(r))
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

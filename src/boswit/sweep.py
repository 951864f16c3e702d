"""Parameter sweeps over the state families, with deterministic output.

``run_family`` is the single entry point.  It cuts each N's parameter points
into chunks, has the family build each chunk as one (G, N+1, N+1)
coefficient stack with its weights, evaluates the stack through
``witness.evaluate_many`` and returns one table of columns in a fixed row
order; floats are printed with 12 significant digits, so identical
configurations yield byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import states, witness

__all__ = [
    "GridSpec",
    "SweepConfig",
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
    "GRID_MAX_STEPS",
    "CSV_COLUMNS",
]

N_SOFT_CAP = 20
N_HARD_CAP = 40
# Five times the largest grid of a recorded run (200,000 points).  GridSpec
# checks it before ``points`` allocates anything.
GRID_MAX_STEPS = 1_000_000

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
        for name in ("lo", "hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"grid bound {name} must be finite, got {getattr(self, name)!r}")
        if self.steps < 1:
            raise ValueError(f"grid needs at least one step, got {self.steps!r}")
        if self.steps > GRID_MAX_STEPS:
            raise ValueError(f"grid steps must be at most {GRID_MAX_STEPS}, got {self.steps!r}")
        if not self.hi > self.lo:
            raise ValueError(f"grid range must satisfy hi > lo, got {self.lo!r}:{self.hi!r}")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"grid span hi - lo must be finite, got {self.lo!r}:{self.hi!r}")

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
class PdcAggregate:
    squeezing: float
    eps_avg_series: float
    eps_avg_closed: float
    weight_sum: float
    n_trunc: int


@dataclass(frozen=True)
class SweepResult:
    """One sweep: ``columns`` maps each of ``CSV_COLUMNS`` to one array of
    rows; ``aggregates`` and ``note`` are set for ``pdc`` only."""

    columns: dict
    aggregates: list | None = None
    note: str | None = None


def _szsz(config: SweepConfig, n: int, taus: np.ndarray) -> tuple:
    return states.szsz_coefficients(n, taus), np.ones(len(taus))


def _acstark(config: SweepConfig, n: int, times: np.ndarray) -> tuple:
    n_c, n_d = config.outcomes if config.outcomes is not None else states.default_photon_outcomes(n)
    return states.acstark_coefficients(n, times, n_c, n_d)


def _pdc(config: SweepConfig, n: int, squeezings: np.ndarray) -> tuple:
    # The N-pair component is the same maximally entangled state at every
    # squeezing; only its post-selection probability changes.
    coeffs, _ = _maxent(config, n, squeezings)
    return coeffs, states.pdc_weight(n, squeezings)


def _maxent(config: SweepConfig, n: int, params: np.ndarray) -> tuple:
    coeff = states.maximally_entangled(n).coeff
    return np.broadcast_to(coeff, (len(params), *coeff.shape)), np.ones(len(params))


def _pdc_aggregates(squeezings: np.ndarray) -> list:
    """Truncated-series and closed-form identifier means per squeezing.  The
    mean is a property of the whole post-selected ensemble, not of any single
    run."""
    aggregates = []
    for k in squeezings.tolist():
        ens = states.PdcEnsemble.build(k)
        series, closed = states.pdc_epsilon_average(ens)
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
    # (config, N, parameters) -> (G, N+1, N+1) coefficient stack and G weights
    # for one chunk of N's G parameter points.
    build: Callable
    n_values: tuple = tuple(range(1, 9))
    grid: GridSpec | None = None                    # default parameter grid
    reads: frozenset = frozenset()                  # optional SweepConfig inputs used
    param_major: bool = False                       # rows ordered by parameter, then N
    aggregates: Callable | None = None              # points -> per-parameter aggregates
    note: str | None = None


_HALF_PERIOD = GridSpec(0.0, math.pi / 2.0, 128)

_FAMILIES = {
    "szsz": _Family(_szsz, grid=_HALF_PERIOD, reads=frozenset({"grid"})),
    "acstark": _Family(
        _acstark, grid=_HALF_PERIOD, reads=frozenset({"grid", "outcomes", "t_over_n"})
    ),
    "pdc": _Family(
        _pdc,
        grid=GridSpec(0.05, 1.5, 30, inclusive=True),
        reads=frozenset({"grid"}),
        param_major=True,
        aggregates=_pdc_aggregates,
        note=PDC_NOTE,
    ),
    "maxent": _Family(_maxent, n_values=tuple(range(1, 11))),
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
    if config.t_over_n is not None and not math.isfinite(config.t_over_n):
        raise ValueError(f"t_over_n must be finite, got {config.t_over_n!r}")


def _validate_n_values(config: SweepConfig) -> None:
    if not config.n_values:
        raise ValueError("empty boson-number list")
    for n in config.n_values:
        if n < 1:
            raise ValueError(f"boson numbers must be >= 1, got {n}")
        if n > N_HARD_CAP:
            raise ValueError(f"boson numbers beyond {N_HARD_CAP} are not supported, got {n}")
        if n > N_SOFT_CAP and not config.allow_large:
            raise ValueError(
                f"N={n} exceeds the default cap of {N_SOFT_CAP}; set allow_large to override"
            )


# Bounds each evaluate_many stack to this many coefficient entries (states
# times d^2), so a sweep's memory stays flat in the grid size: the stacked
# spin products take ~150 d^2 bytes per state.
_CHUNK_ENTRIES = 2**12


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
    # maxent has one point per N and no parameter; acstark's t_over_n gives
    # one point t = t_over_n / N.
    grid = config.grid or family.grid
    points = grid.points() if grid is not None else np.zeros(1)
    aggregates = family.aggregates(points) if family.aggregates is not None else None
    # One float block per chunk holds every column after family; N is exact.
    blocks = []
    for n in config.n_values:
        params = points if config.t_over_n is None else np.array([config.t_over_n / n])
        size = max(1, _CHUNK_ENTRIES // (n + 1) ** 2)
        for chunk in np.split(params, range(size, len(params), size)):
            coeffs, weights = family.build(config, n, chunk)
            found = witness.evaluate_many(coeffs)
            found.update(n=np.full(len(chunk), n), param=chunk, weight=weights)
            blocks.append(np.column_stack([found[name] for name in CSV_COLUMNS[1:]]))
    table = np.concatenate(blocks)
    if family.param_major:
        # Column 1 is param; a stable sort keeps the N order per parameter.
        table = table[np.argsort(table[:, 1], kind="stable")]
    columns = {"family": np.full(len(table), config.family), **dict(zip(CSV_COLUMNS[1:], table.T))}
    columns["n"] = columns["n"].astype(int)
    return SweepResult(columns, aggregates, family.note)


# One CSV line: family, N, then every float with 12 significant digits.
_CSV_ROW = ",".join(["%s", "%d"] + ["%.12g"] * (len(CSV_COLUMNS) - 2))


def _records(columns: dict):
    """The table's rows as tuples of Python values, in ``CSV_COLUMNS`` order."""
    return zip(*(columns[name].tolist() for name in CSV_COLUMNS))


def rows_to_csv(columns: dict, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(_CSV_ROW % row for row in _records(columns))
    return "\n".join(lines) + "\n"


def rows_to_json(columns: dict, aggregates=None, note: str | None = None) -> str:
    payload: dict = {"rows": [dict(zip(CSV_COLUMNS, row)) for row in _records(columns)]}
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

"""Output checks for the benchmark workloads.

Each checker compares what one ``boswit`` run printed against references
computed in this process before timing starts, so checking costs nothing
inside the timed interval.  Floats are compared with a relative tolerance,
not byte for byte: the CLI prints 12 significant digits, and a change of
kernel may move the last of them.

The references come from routes other than the one the sweeps use:

* ``szsz`` rows: the closed-form Bloch length (``states.bloch_length_closed``)
  and spin-tensor elements (``oracle.reference_closed_forms``) on every row,
  and the closed-form ``t_norm`` and ``t_max`` on every row with N <= 2;
* a seeded sample of rows in both sweeps, including N = 40 for ``acstark``:
  every identifier from the O(d^4) correlation tensor and the dense spin
  tensor;
* ``check`` reports: every check passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from boswit import oracle, states, witness

REL_TOL = 1e-9
ABS_TOL = 1e-10

# The CSV header is part of the CLI contract, so it is pinned here rather
# than read from the library.
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

# Rows per szsz run recomputed through the tensor route.
SZSZ_SAMPLES = 12
# N values per acstark run recomputed through the tensor route, besides N = 40.
ACSTARK_SAMPLES = 3


def tensor_route(state) -> dict:
    """Every sweep identifier of one state, from the O(d^4) tensor route."""
    d = state.d
    tensor = witness.correlation_tensor(state)
    t_norm = float(np.sum(tensor.t * tensor.t))
    t_max = float(np.linalg.svd(tensor.t, compute_uv=False)[0])
    local = (d - 1.0) * tensor.local_a
    p = np.linalg.svd(state.coeff, compute_uv=False) ** 2
    p = p[p > 1e-15]
    spin = oracle.dense_spin_tensor(state)
    spin_norm = float(np.sum(spin * spin))
    spin_top = float(np.linalg.svd(spin, compute_uv=False)[0])
    return {
        "t_norm": t_norm,
        "t_max": t_max,
        "epsilon": t_norm / t_max,
        "bloch_sq": float(local @ local),
        "entropy": float(-np.sum(p * np.log2(p))),
        "spin_t_norm": spin_norm,
        "spin_t_max": spin_top,
        "spin_epsilon": spin_norm / spin_top if spin_top > 0.0 else 0.0,
    }


def _szsz_closed_forms(n: int, tau: float) -> dict:
    spin = oracle.reference_closed_forms("spin_elements", n, tau)
    txx, tyz = spin["txx"], spin["tyz"]
    # The spin tensor has txx on the diagonal and tyz in the yz/zy slots.
    norm = txx * txx + 2.0 * tyz * tyz
    top = max(abs(txx), abs(tyz))
    out = {
        "bloch_sq": states.bloch_length_closed(n, tau),
        "spin_t_norm": norm,
        "spin_t_max": top,
        "spin_epsilon": norm / top if top > 0.0 else 0.0,
        "weight": 1.0,
    }
    if n <= 2:
        tensor = oracle.reference_closed_forms(f"szsz_n{n}", n, tau)
        out.update(tensor, epsilon=tensor["t_norm"] / tensor["t_max"])
    return out


def parse_csv(text: str) -> list:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    if tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != len(CSV_COLUMNS):
            raise ValueError(f"malformed row {line!r}")
        row = {"family": fields[0], "n": int(fields[1])}
        row.update((k, float(v)) for k, v in zip(CSV_COLUMNS[2:], fields[2:]))
        rows.append(row)
    return rows


class SweepChecker:
    """Checks one sweep's CSV against per-row expected fields."""

    def __init__(self, expected: list):
        self.expected = expected

    def __call__(self, stdout: bytes) -> tuple:
        """Return (items, errors) for one run's standard output."""
        try:
            rows = parse_csv(stdout.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            return 0, [str(exc)]
        if len(rows) != len(self.expected):
            return len(rows), [f"{len(rows)} rows, expected {len(self.expected)}"]
        errors = []
        for row, want in zip(rows, self.expected):
            for key, value in want.items():
                got = row[key]
                if isinstance(value, float):
                    ok = math.isclose(got, value, rel_tol=REL_TOL, abs_tol=ABS_TOL)
                else:
                    ok = got == value
                if not ok:
                    errors.append(f"n={row['n']} param={row['param']!r}: {key}={got!r}, expected {value!r}")
            if not all(math.isfinite(row[k]) for k in CSV_COLUMNS[2:]):
                errors.append(f"n={row['n']} param={row['param']!r}: non-finite field")
        return len(rows), errors[:5]


def szsz_checker(lo: float, hi: float, rng) -> SweepChecker:
    """Expected rows of ``sweep szsz`` over N = 1..8 and a 128-point grid."""
    grid = np.linspace(lo, hi, 128, endpoint=False)
    expected = []
    for n in range(1, 9):
        for tau in grid:
            row = {"family": "szsz", "n": n, "param": float(tau)}
            row.update(_szsz_closed_forms(n, float(tau)))
            expected.append(row)
    for i in rng.sample(range(len(expected)), SZSZ_SAMPLES):
        row = expected[i]
        row.update(tensor_route(states.szsz_state(row["n"], row["param"])))
    return SweepChecker(expected)


def acstark_checker(t_over_n: float, n_max: int, rng) -> SweepChecker:
    """Expected rows of ``sweep acstark --n 2-<n_max> --t-over-n <t_over_n>``."""
    expected = []
    outcomes = {}
    for n in range(2, n_max + 1):
        n_c, n_d = states.default_photon_outcomes(n)
        outcomes[n] = states.acstark_state(n, t_over_n / n, n_c, n_d)
        expected.append(
            {"family": "acstark", "n": n, "param": t_over_n / n, "weight": outcomes[n].norm_weight}
        )
    for n in [n_max] + rng.sample(range(2, n_max), ACSTARK_SAMPLES):
        expected[n - 2].update(tensor_route(outcomes[n].state))
    return SweepChecker(expected)


def check_report(stdout: bytes) -> tuple:
    """Return (items, errors) for the JSON report of ``boswit check``."""
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return 0, [f"report is not JSON: {exc}"]
    checks = payload.get("checks", [])
    errors = [f"check {c.get('check_name')!r} failed" for c in checks if c.get("passed") is not True]
    if payload.get("passed") is not True:
        errors.append("report says passed != true")
    if not checks:
        errors.append("report lists no checks")
    return len(checks), errors[:5]

"""Named verification suites behind the command-line ``check`` interface."""

from __future__ import annotations

import math

import numpy as np

from . import oracle, states, sweep, witness
from .basis import (
    _spin_identity_errors,
    gellmann_basis,
    gm_index,
    schwinger_ops,
    spin_gellmann_decomposition,
)
from .oracle import OracleReport

__all__ = ["run_checks", "SELECTORS"]

SELECTORS = ("basis", "appendix", "closed-forms", "roundtrip", "all")


def _basis_checks(dims, rng) -> list:
    reports = []
    for d in dims:
        el = gellmann_basis(d)
        m = d * d

        herm = float(np.max(np.abs(el - el.conj().transpose(0, 2, 1))))
        flat = el.reshape(m, -1)
        gram = (flat[1:] @ flat[1:].conj().T).real
        ortho = float(np.max(np.abs(gram - 2.0 * np.eye(m - 1))))
        reports.append(OracleReport(f"basis_orthogonality_d{d}", max(herm, ortho), max(herm, ortho) <= 1e-12))

        h = rng.standard_normal((d, d)) + 1.0j * rng.standard_normal((d, d))
        h = h + h.conj().T
        coeffs = np.einsum("iab,ba->i", el, h)
        norms = np.einsum("iab,iba->i", el, el)
        rebuilt = np.einsum("i,iab->ab", coeffs / norms, el)
        comp = float(np.max(np.abs(rebuilt - h)))
        reports.append(OracleReport(f"basis_completeness_d{d}", comp, comp <= 1e-10))

        worst = 0
        for k in range(1, d):
            worst = max(worst, abs(gm_index(d, "symmetric", (k - 1, k)) - (2 * d * (k - 1) - k * k + k + 2) // 2))
            worst = max(worst, abs(gm_index(d, "antisymmetric", (k - 1, k)) - (d * (d - 1) // 2 + k * (k - 1) // 2 + 1)))
            worst = max(worst, abs(gm_index(d, "diagonal", k) - (d * (d - 1) + k)))
        reports.append(OracleReport(f"basis_index_formulas_d{d}", float(worst), worst == 0))

        dec = spin_gellmann_decomposition(d)
        err = 0.0
        for axis, target in zip("xyz", schwinger_ops(d, "spin_j")):
            total = np.zeros((d, d), dtype=complex)
            for idx, coeff in dec[axis]:
                total += coeff * el[idx]
            err = max(err, float(np.max(np.abs(total - target))))
        reports.append(OracleReport(f"basis_spin_decomposition_d{d}", err, err <= 1e-12))
    return reports


def _appendix_checks() -> list:
    return [
        OracleReport(f"spin_identity_{name}", err, err <= 1e-12)
        for name, err in _spin_identity_errors()
    ]


def _closed_form_checks() -> list:
    # Each N's states go through the tensor and spin routes as one stack.
    reports = []
    grid = np.linspace(0.0, math.pi / 2.0, 128, endpoint=False)

    for n, family in ((1, "szsz_n1"), (2, "szsz_n2")):
        found = witness.tensor_identifiers(states.szsz_coefficients(n, grid))
        err = 0.0
        for tau, tn, tm in zip(grid, found["t_norm"].tolist(), found["t_max"].tolist()):
            ref = oracle.reference_closed_forms(family, n, tau)
            err = max(err, abs(tn - ref["t_norm"]), abs(tm - ref["t_max"]))
        reports.append(OracleReport(f"closed_form_szsz_n{n}", err, err <= 1e-9, samples=len(grid)))

    grid64 = np.linspace(0.0, math.pi / 2.0, 64, endpoint=False)
    err = 0.0
    for n in range(1, 9):
        # The locals alone: the joint blocks of these N <= 8 stacks would
        # lift the peak RSS of check all from ~42 MB to ~68 MB.
        bloch_a, _ = witness._bloch_lengths(states.szsz_coefficients(n, grid64))
        for tau, bloch in zip(grid64, bloch_a.tolist()):
            err = max(err, abs(bloch - states.bloch_length_closed(n, tau)))
    reports.append(OracleReport("closed_form_bloch_n1_8", err, err <= 1e-9, samples=8 * len(grid64)))

    err = 0.0
    for n in range(1, 11):
        tps = witness.spin_tensors(states.szsz_coefficients(n, grid64))
        for tau, tp in zip(grid64, tps):
            ref = oracle.reference_closed_forms("spin_elements", n, tau)
            expected = np.zeros((3, 3))
            expected[0, 0] = ref["txx"]
            expected[1, 2] = expected[2, 1] = ref["tyz"]
            err = max(err, float(np.max(np.abs(tp - expected))))
    reports.append(OracleReport("closed_form_spin_elements_n1_10", err, err <= 1e-9, samples=10 * len(grid64)))

    err = 0.0
    ks = np.linspace(0.05, 1.5, 30)
    for k in ks:
        series, closed = states.pdc_epsilon_average(states.PdcEnsemble.build(float(k)))
        err = max(err, abs(series - closed))
    reports.append(OracleReport("closed_form_pdc_average", err, err <= 1e-8, samples=len(ks)))
    return reports


def _family_states(n: int):
    yield "szsz", states.szsz_state(n, 0.3)
    yield "maxent", states.maximally_entangled(n)
    n_c, n_d = states.default_photon_outcomes(n)
    yield "acstark", states.acstark_state(n, 0.2, n_c, n_d).state


def _search_jobs(rng, seed: int) -> list:
    """The 150 (tensor, seed) jobs of ``product_search_bound``: 50 random
    states of N = 1..5, each searched from three seeded start streams."""
    jobs = []
    for _ in range(50):
        tensor = witness.correlation_tensor(oracle.random_pure_state(int(rng.integers(1, 6)), rng))
        jobs.extend((tensor, seed + offset) for offset in range(3))
    return jobs


def _roundtrip_checks(rng, seed: int) -> list:
    errs = dict.fromkeys(("szsz", "maxent", "acstark"), 0.0)
    for n in range(1, 7):
        for label, state in _family_states(n):
            tensor = witness.correlation_tensor(state)
            errs[label] = max(errs[label], oracle.roundtrip_error(state, tensor))
    reports = [
        OracleReport(f"roundtrip_{label}_n1_6", err, err <= 1e-10, samples=6)
        for label, err in errs.items()
    ]

    jobs = _search_jobs(rng, seed)
    _, gap = oracle.product_overlap_searches(jobs, iterations=6)
    # gap = t_max - best, so a best above the bound is a negative gap.
    violation = max(0.0, -float(gap.min()))
    reports.append(
        OracleReport(
            "product_search_bound",
            violation,
            violation <= 1e-8,
            samples=len(jobs),
            search_gap=max(0.0, float(gap.max())),
        )
    )

    mismatches = 0
    total = 0
    for n in range(1, 6):
        members = [states.szsz_state(n, float(tau)) for tau in np.linspace(0.0, math.pi / 2.0, 9, endpoint=False)]
        members += [oracle.random_pure_state(n, rng) for _ in range(10)]
        flagged = witness.evaluate_many(np.stack([state.coeff for state in members]))["entangled_by_eps"]
        mismatches += sum(not oracle.pure_entanglement_oracle(state) for state, hit in zip(members, flagged) if hit)
        total += len(members)
    reports.append(OracleReport("criterion_implies_schmidt_rank", float(mismatches), mismatches == 0, samples=total))
    return reports


def run_checks(selector: str, d: int | None = None, seed: int = 7) -> tuple:
    """Run one named suite (or all) and aggregate the reports."""
    if selector not in SELECTORS:
        raise ValueError(f"unknown check selector {selector!r}; choose from {SELECTORS}")
    if d is not None and selector not in ("basis", "all"):
        raise ValueError(f"check {selector!r} takes no dimension; only 'basis' and 'all' read d")
    # The basis checks grow as d^4; a sweep never goes past N_HARD_CAP + 1.
    if d is not None and d > sweep.N_HARD_CAP + 1:
        raise ValueError(f"check dimension must be at most {sweep.N_HARD_CAP + 1}, got {d}")
    rng = np.random.default_rng(seed)
    reports: list = []
    if selector in ("basis", "all"):
        dims = [d] if d is not None else list(range(2, 13))
        reports.extend(_basis_checks(dims, rng))
    if selector in ("appendix", "all"):
        reports.extend(_appendix_checks())
    if selector in ("closed-forms", "all"):
        reports.extend(_closed_form_checks())
    if selector in ("roundtrip", "all"):
        reports.extend(_roundtrip_checks(rng, seed))
    return reports, all(r.passed for r in reports)

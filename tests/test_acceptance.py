"""End-to-end acceptance suite.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  Three claims that the implementation disproves are kept as
strict expected failures so the discrepancy stays visible and guarded; each
carries the verified replacement value in a neighboring passing test.
"""

import math
import time

import numpy as np
import pytest

from boswit import checks, oracle, states, witness
from boswit.basis import gellmann_basis, schwinger_ops, spin_gellmann_decomposition

GRID128 = np.linspace(0.0, math.pi / 2, 128, endpoint=False)
GRID64 = np.linspace(0.0, math.pi / 2, 64, endpoint=False)


def _report(tag, ok, t0, detail=""):
    dt = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"[acceptance] {tag}: {status} ({dt:.2f}s){suffix}")
    return dt


def test_criterion_01_maxent_epsilon():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 11):
        rep = witness.evaluate(states.maximally_entangled(n))
        worst = max(worst, abs(rep.epsilon - (n + 2)))
        # The tensor here is diagonal with every singular value equal, so
        # the verified identifier values are t_max = 1/N and t_norm = (N+2)/N.
        assert rep.t_max == pytest.approx(1.0 / n, abs=1e-9)
        assert rep.t_norm == pytest.approx((n + 2.0) / n, abs=1e-9)
    ok = worst <= 1e-9
    dt = _report("C01 maxent eps = N+2 (N=1..10)", ok, t0, f"max err {worst:.2e}")
    assert ok
    assert dt < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="all singular values of the equal-weight diagonal tensor are 1/N, "
    "so t_max = 1 can only hold at N = 1; kept to record the discrepancy",
)
def test_criterion_01_claim_unit_t_max():
    t0 = time.perf_counter()
    vals = [witness.evaluate(states.maximally_entangled(n)).t_max for n in range(1, 11)]
    ok = all(abs(v - 1.0) <= 1e-9 for v in vals)
    _report("C01b maxent t_max = 1 claim", ok, t0, f"actual t_max = 1/N, e.g. N=2 -> {vals[1]:.3f}")
    assert ok


def test_criterion_02_szsz_n1_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for tau in GRID128:
        ten = witness.correlation_tensor(states.szsz_state(1, float(tau)))
        worst = max(worst, abs(witness.tensor_norm(ten) - (1 + 2 * math.sin(2 * tau) ** 2)))
        worst = max(worst, abs(witness.t_max(ten) - 1.0))
    eps_peak = witness.epsilon(witness.correlation_tensor(states.szsz_state(1, math.pi / 4)))
    worst = max(worst, abs(eps_peak - 3.0))
    ok = worst <= 1e-9
    dt = _report("C02 z-z N=1 closed forms", ok, t0, f"max err {worst:.2e}")
    assert ok
    assert dt < 1.0


def test_criterion_03_szsz_n2_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for tau in GRID128:
        c = 53 + 48 * math.cos(4 * tau) + 24 * math.cos(8 * tau) + 3 * math.cos(16 * tau)
        ten = witness.correlation_tensor(states.szsz_state(2, float(tau)))
        worst = max(worst, abs(witness.tensor_norm(ten) - (2 - c / 128)))
        worst = max(worst, abs(witness.t_max(ten) - (0.5 + math.sqrt(c / 2) / 16)))
    ok = worst <= 1e-9
    dt = _report("C03 z-z N=2 closed forms", ok, t0, f"max err {worst:.2e}")
    assert ok
    assert dt < 1.0


def test_criterion_04_bloch_lengths():
    t0 = time.perf_counter()
    worst = 0.0
    unit_only_at_zero = True
    for n in range(1, 9):
        for tau in GRID128:
            ten = witness.correlation_tensor(states.szsz_state(n, float(tau)))
            _, bloch_sq = witness.bloch_vector(ten, "A")
            worst = max(worst, abs(bloch_sq - states.bloch_length_closed(n, float(tau))))
            if tau == 0.0:
                unit_only_at_zero &= abs(bloch_sq - 1.0) <= 1e-9
            else:
                unit_only_at_zero &= bloch_sq < 1.0
    ok = worst <= 1e-9 and unit_only_at_zero
    dt = _report("C04 Bloch lengths vs closed form (N=1..8)", ok, t0, f"max err {worst:.2e}")
    assert ok
    assert dt < 5.0


def test_criterion_05_identifier_grid_suite():
    t0 = time.perf_counter()
    min_eps_by_n = []
    entropies_quarter = []
    ok = True
    for n in range(1, 9):
        reps = [witness.evaluate(states.szsz_state(n, float(tau))) for tau in GRID128]
        ok &= all(r.t_norm > 1.0 and r.epsilon > 1.0 for r in reps[1:])
        min_eps_by_n.append(min(r.epsilon for r in reps[1:]))
        entropies_quarter.append(witness.evaluate(states.szsz_state(n, math.pi / 4)).entropy)
    # Non-strict growth: the quarter-period point is a two-branch state with
    # exactly one bit of entropy at every N.
    ok &= all(b >= a - 1e-12 for a, b in zip(entropies_quarter, entropies_quarter[1:]))
    # The identifier margin over the separable bound does grow with N.
    ok &= all(b > a for a, b in zip(min_eps_by_n, min_eps_by_n[1:]))
    for tau_probe in (math.pi / 8, 0.3):
        vals = [witness.evaluate(states.szsz_state(n, tau_probe)) for n in range(1, 9)]
        ok &= all(b.epsilon > a.epsilon for a, b in zip(vals, vals[1:]))
        ok &= all(b.entropy > a.entropy for a, b in zip(vals, vals[1:]))
    dt = _report("C05 identifier grids (N=1..8)", ok, t0, f"min eps {min_eps_by_n[0]:.6f}..{min_eps_by_n[-1]:.6f}")
    assert ok
    assert dt < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="eps at the quarter-period point equals 2 + 2/(N(N+1)), a strictly "
    "decreasing sequence, and its entropy is one bit at every N; the growth "
    "with N holds at generic phases and for the grid minimum instead",
)
def test_criterion_05_claim_quarter_point_increase():
    t0 = time.perf_counter()
    eps = [witness.evaluate(states.szsz_state(n, math.pi / 4)).epsilon for n in range(1, 9)]
    ok = all(b > a for a, b in zip(eps, eps[1:]))
    _report("C05b eps(pi/4) strictly increasing claim", ok, t0, f"actual {eps[0]:.3f} > {eps[1]:.3f} > ...")
    assert ok


def _acstark_eps(n, t):
    n_c, n_d = states.default_photon_outcomes(n)
    return witness.evaluate(states.acstark_state(n, float(t), n_c, n_d).state).epsilon


def test_criterion_06_acstark_suite():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        period = math.pi / 4 if n % 2 == 0 else math.pi / 2
        ts = np.linspace(0.0, period, 32, endpoint=False)
        for t in ts:
            ok &= abs(_acstark_eps(n, t) - _acstark_eps(n, t + period)) <= 1e-8
        ok &= all(_acstark_eps(n, t) > 1.0 for t in ts[1:])
    short_time = [_acstark_eps(n, 2.5 / n) for n in range(2, 21)]
    ok &= all(e > 1.0 for e in short_time)
    # Verified short-time envelope for this amplitude family.
    ok &= 1.35 <= min(short_time) and max(short_time) <= 3.65
    dt = _report(
        "C06 light-coupling suite",
        ok,
        t0,
        f"short-time eps in [{min(short_time):.3f}, {max(short_time):.3f}]",
    )
    assert ok
    assert dt < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="the short-time identifier reaches 3.57 at N=9 and 3.52 at N=13, "
    "slightly above the stated 3.5 ceiling; the verified envelope is "
    "[1.415, 3.571] over N = 2..20",
)
def test_criterion_06_claim_short_time_band():
    t0 = time.perf_counter()
    short_time = [_acstark_eps(n, 2.5 / n) for n in range(2, 21)]
    ok = all(1.2 <= e <= 3.5 for e in short_time)
    _report("C06b short-time band [1.2, 3.5] claim", ok, t0, f"max {max(short_time):.4f}")
    assert ok


def test_criterion_07_pdc_average():
    t0 = time.perf_counter()
    ok = True
    for k in np.linspace(0.05, 1.5, 30):
        ens = states.PdcEnsemble.build(float(k))
        series, closed = oracle.pdc_epsilon_average(ens)
        ok &= abs(series - closed) < 1e-8
        ok &= series > 1.0
        ok &= ens.n_trunc == 200 and 1.0 - float(ens.weights.sum()) < 1e-8
    dt = _report("C07 squeezed-vacuum average identifier", ok, t0)
    assert ok
    assert dt < 1.0


def test_criterion_08_spin_criterion_failure():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        eps = [
            witness.spin_criterion(witness.spin_tensor(states.szsz_state(n, float(tau))))[2]
            for tau in GRID64[1:]
        ]
        ok &= max(eps) > 1.0
    for n in range(4, 21):
        eps = [
            witness.spin_criterion(witness.spin_tensor(states.szsz_state(n, float(tau))))[2]
            for tau in GRID64[1:]
        ]
        ok &= max(eps) <= 1.0 + 1e-9
    worst = 0.0
    for n in range(1, 11):
        for tau in GRID64:
            tp = witness.spin_tensor(states.szsz_state(n, float(tau)))
            expected = np.zeros((3, 3))
            expected[0, 0] = math.cos(2 * tau) ** (2 * n - 2)
            expected[1, 2] = expected[2, 1] = math.cos(2 * tau) ** (n - 1) * math.sin(2 * tau)
            worst = max(worst, float(np.max(np.abs(tp - expected))))
    ok &= worst <= 1e-9
    dt = _report("C08 spin-only criterion fails for N>3", ok, t0, f"element err {worst:.2e}")
    assert ok
    assert dt < 60.0


def test_criterion_09_operator_identities():
    t0 = time.perf_counter()
    reports, ok = checks.run_checks("appendix")   # each identity within 1e-12
    ok &= len(reports) == 8
    for d in range(2, 13):
        el = gellmann_basis(d)
        flat = el[1:].reshape(d * d - 1, -1)
        gram = (flat @ flat.conj().T).real
        ok &= float(np.max(np.abs(gram - 2.0 * np.eye(d * d - 1)))) <= 1e-12
        rng = np.random.default_rng(d)
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = h + h.conj().T
        coeffs = np.einsum("iab,ba->i", el, h)
        norms = np.einsum("iab,iba->i", el, el)
        ok &= float(np.max(np.abs(np.einsum("i,iab->ab", coeffs / norms, el) - h))) <= 1e-10
        dec = spin_gellmann_decomposition(d)
        for axis, target in zip("xyz", schwinger_ops(d, "spin_j")):
            total = np.zeros((d, d), dtype=complex)
            for idx, coeff in dec[axis]:
                total += coeff * el[idx]
            ok &= float(np.max(np.abs(total - target))) <= 1e-12
    dt = _report("C09 operator identities (d <= 12)", ok, t0)
    assert ok
    assert dt < 10.0


def test_criterion_10_oracle_suite():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        n_c, n_d = states.default_photon_outcomes(n)
        for state in (
            states.szsz_state(n, 0.3),
            states.maximally_entangled(n),
            states.acstark_state(n, 0.2, n_c, n_d).state,
        ):
            ten = witness.correlation_tensor(state)
            ok &= oracle.roundtrip_error(state, ten) < 1e-10

    rng = np.random.default_rng(2024)
    evaluated = []
    for _ in range(50):
        n = int(rng.integers(1, 6))
        state = oracle.random_pure_state(n, rng)
        evaluated.append(state)
        ten = witness.correlation_tensor(state)
        bound = witness.t_max(ten)
        for seed in (0, 1, 2):
            res = oracle.product_overlap_search(ten, iterations=6, seed=seed)
            ok &= res.best <= bound + 1e-8

    evaluated += [states.szsz_state(n, float(t)) for n in range(1, 6) for t in GRID64[::8]]
    for state in evaluated:
        rep = witness.evaluate(state)
        if rep.entangled_by_eps:
            ok &= oracle.pure_entanglement_oracle(state)
    dt = _report("C10 brute-force oracle suite", ok, t0)
    assert ok
    assert dt < 120.0


def test_check_runner_covers_all_suites():
    reports, passed = checks.run_checks("all", seed=7)
    assert passed
    names = {r.check_name for r in reports}
    assert "basis_orthogonality_d12" in names
    assert "spin_identity_M8" in names
    assert "closed_form_pdc_average" in names
    assert "product_search_bound" in names

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from boswit import checks, oracle
from boswit.basis import gellmann_basis, project_traceless
from boswit.states import (
    PdcEnsemble,
    acstark_state,
    default_photon_outcomes,
    maximally_entangled,
    szsz_state,
)
from boswit.witness import correlation_tensor, evaluate_many, tensor_identifiers


def _t_max(state) -> float:
    return tensor_identifiers(state.coeff[None])["t_max"][0].item()


def _family_states(n):
    yield szsz_state(n, 0.3)
    yield maximally_entangled(n)
    n_c, n_d = default_photon_outcomes(n)
    yield acstark_state(n, 0.2, n_c, n_d).state


@pytest.mark.parametrize("n", range(1, 7))
def test_roundtrip_all_families(n):
    for state in _family_states(n):
        ten = correlation_tensor(state)
        assert oracle.roundtrip_error(state, ten) < 1e-10


def test_roundtrip_small_case_tight():
    state = szsz_state(1, 0.3)
    ten = correlation_tensor(state)
    assert oracle.roundtrip_error(state, ten) < 1e-12


def test_reconstruction_has_unit_trace():
    ten = correlation_tensor(maximally_entangled(2))
    rho = oracle.reconstruct_density(ten)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_reconstruction_scale_limit():
    from boswit.witness import CorrelationTensor

    m = 13 * 13 - 1
    big = CorrelationTensor(d=13, t=np.zeros((m, m)), local_a=np.zeros(m), local_b=np.zeros(m))
    with pytest.raises(ValueError, match="d <= 12"):
        oracle.reconstruct_density(big)


def _einsum_reconstruction(tensor):
    """The three-operand einsum contraction that ``reconstruct_density``
    replaced, with a contraction path so that d = 12 stays fast."""
    d = tensor.d
    el = gellmann_basis(d)
    m0 = el[0]
    body = np.einsum("ij,iab,jcd->acbd", tensor.t, el[1:], el[1:], optimize=True)
    body = body + np.einsum("i,iab,cd->acbd", (d - 1.0) * tensor.local_a, el[1:], m0, optimize=True)
    body = body + np.einsum("j,ab,jcd->acbd", (d - 1.0) * tensor.local_b, m0, el[1:], optimize=True)
    rho = np.kron(m0, m0).astype(complex) + body.reshape(d * d, d * d)
    return (d - 1.0) / (2.0 * d) * rho


@pytest.mark.parametrize("d", range(2, oracle.RECONSTRUCT_MAX_D + 1))
def test_reconstruction_matches_einsum_contraction(d):
    rng = np.random.default_rng(20 + d)
    for state in (oracle.random_pure_state(d - 1, rng), szsz_state(d - 1, 0.3)):
        ten = correlation_tensor(state)
        assert np.max(np.abs(oracle.reconstruct_density(ten) - _einsum_reconstruction(ten))) <= 1e-15


def test_search_product_state_is_its_own_maximizer():
    rng = np.random.default_rng(2)
    ten = correlation_tensor(oracle.random_product_state(2, rng))
    (best,), (gap,) = oracle.product_overlap_searches([(ten, 5)], iterations=8)
    assert best == pytest.approx(1.0, abs=1e-9)
    assert abs(gap) < 1e-9


def test_search_reaches_bell_bound():
    ten = correlation_tensor(maximally_entangled(1))
    (best,), _ = oracle.product_overlap_searches([(ten, 5)], iterations=20)
    assert _t_max(maximally_entangled(1)) == pytest.approx(1.0, abs=1e-12)
    assert abs(best - 1.0) < 1e-3


def test_search_reaches_qutrit_bound():
    ten = correlation_tensor(maximally_entangled(2))
    (best,), _ = oracle.product_overlap_searches([(ten, 5)], iterations=20)
    assert abs(best - 0.5) < 1e-6


def test_search_never_exceeds_singular_bound():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        state = oracle.random_pure_state(n, rng)
        ten = correlation_tensor(state)
        bound = _t_max(state)
        best, _ = oracle.product_overlap_searches([(ten, seed) for seed in (0, 1, 2)], iterations=5)
        assert np.all(best <= bound + 1e-8)


def test_search_rejects_bad_iterations():
    ten = correlation_tensor(maximally_entangled(1))
    with pytest.raises(ValueError, match="iterations must be >= 1, got -1"):
        oracle.product_overlap_searches([(ten, 0)], iterations=-1)


def _per_start_search(tensor, iterations, seed):
    """Reference for ``product_overlap_searches``: each start runs alone, with
    Bloch vectors from ``project_traceless`` and one ``eigh`` per update.

    The same extrapolated alternation: from its second step on, a start
    solves its A-step at normalize(v + beta (v - phi v_prev)), unless the
    overlap reached there falls below the start's value; then that A-step
    is solved again from the plain v.  Returns the best value, the number
    of steps taken over all starts and the number of A-steps solved again.
    """
    d = tensor.d
    gens = gellmann_basis(d)[1:]
    rng = np.random.default_rng(seed)
    pref = d / (2.0 * (d - 1.0))

    def bloch(x):
        return project_traceless(np.outer(x.conj(), x)).real

    def top(coeffs):
        return np.linalg.eigh(np.einsum("i,iab->ab", coeffs, gens))[1][:, -1]

    best = -math.inf
    steps = 0
    resolves = 0
    for _ in range(iterations):
        oracle._random_unit(rng, d)
        v = oracle._random_unit(rng, d)
        v_prev = None
        val = -math.inf
        for _ in range(60):
            steps += 1
            ext = v
            if v_prev is not None:
                overlap = np.vdot(v_prev, v)
                phase = overlap / abs(overlap) if overlap != 0 else 1.0
                ext = v + oracle._MOMENTUM * (v - phase * v_prev)
                ext = ext / np.linalg.norm(ext)
            s = bloch(ext)
            r = bloch(top(tensor.t @ s))
            if pref * float(r @ tensor.t @ s) < val:
                resolves += 1
                r = bloch(top(tensor.t @ bloch(v)))
            v_prev, v = v, top(tensor.t.T @ r)
            new = pref * float(r @ tensor.t @ bloch(v))
            if new - val < 1e-13:
                val = max(val, new)
                break
            val = new
        best = max(best, val)
    return best, steps, resolves


def _counting_eigh(monkeypatch):
    """Patch ``np.linalg.eigh`` to record how many matrices each call solves."""
    eigh = np.linalg.eigh
    solved = []

    def counting_eigh(a, *args, **kwargs):
        solved.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return solved


@pytest.mark.parametrize("n", range(1, 6))
def test_search_matches_per_start_reference(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        state = oracle.random_pure_state(n, rng)
        ten = correlation_tensor(state)
        for seed in (0, 1, 2):
            (best,), (gap,) = oracle.product_overlap_searches([(ten, seed)], iterations=6)
            assert abs(best - _per_start_search(ten, 6, seed)[0]) <= 1e-12
            assert gap == _t_max(state) - best


def test_search_stops_each_start_on_its_own(monkeypatch):
    # A converged start leaves the stacked eigenproblems: the search solves
    # two per step of each start and one per A-step solved again, as the
    # per-start loop does.  A stop decided by last-bit rounding may move one
    # start by one step.
    rng = np.random.default_rng(12)
    cases = []
    for n in (1, 2, 3, 4):
        ten = correlation_tensor(oracle.random_pure_state(n, rng))
        _, steps, resolves = _per_start_search(ten, 8, 0)
        cases.append((ten, steps, 2 * steps + resolves))
    solved = _counting_eigh(monkeypatch)
    for ten, steps, solves in cases:
        assert steps < 50 * 8
        solved.clear()
        oracle.product_overlap_searches([(ten, 0)], iterations=8)
        assert abs(sum(solved) - solves) <= 2 * 8


def _plain_alternation(jobs, iterations, max_steps):
    """The alternation without momentum, all starts of one dimension as one
    stack through the Bloch-vector route, stopped as the search stops a
    start but after at most ``max_steps`` steps.  Returns each job's best
    value and the number of matrices solved."""
    best = np.empty(len(jobs))
    solved = 0
    for d in sorted({ten.d for ten, _ in jobs}):
        idx = [i for i, (ten, _) in enumerate(jobs) if ten.d == d]
        gens = gellmann_basis(d)[1:]
        pref = d / (2.0 * (d - 1.0))

        def bloch(x):
            return project_traceless(x.T.conj()[:, None, :] * x.T[None, :, :]).real.T

        def top(coeffs):
            return np.linalg.eigh(np.einsum("si,iab->sab", coeffs, gens))[1][:, :, -1]

        t = np.repeat(np.stack([jobs[i][0].t for i in idx]), iterations, axis=0)
        v = []
        for i in idx:
            rng = np.random.default_rng(jobs[i][1])
            for _ in range(iterations):
                oracle._random_unit(rng, d)
                v.append(oracle._random_unit(rng, d))
        v = np.array(v)
        vals = np.full(len(v), -math.inf)
        running = np.ones(len(v), dtype=bool)
        for _ in range(max_steps):
            on = np.flatnonzero(running)
            if not on.size:
                break
            solved += 2 * on.size
            r = bloch(top(np.einsum("sij,sj->si", t[on], bloch(v[on]))))
            v[on] = top(np.einsum("sji,sj->si", t[on], r))
            new = pref * np.einsum("si,sij,sj->s", r, t[on], bloch(v[on]))
            done = new - vals[on] < 1e-13
            vals[on] = np.where(done, np.maximum(vals[on], new), new)
            running[on] = ~done
        best[idx] = vals.reshape(len(idx), iterations).max(axis=1)
    return best, solved


def test_search_solves_fewer_eigenproblems_than_plain_alternation(monkeypatch):
    # On the jobs of `check roundtrip --seed 7, 8, 9`, the momentum step
    # solves at most 0.65 times the eigenproblems of the plain alternation
    # under the same stop rule and 60-step cap, and no job ends below it.
    cases = []
    for seed in (7, 8, 9):
        jobs = checks._search_jobs(np.random.default_rng(seed), seed)
        cases.append((jobs, *_plain_alternation(jobs, 6, 60)))
    solved = _counting_eigh(monkeypatch)
    plain_solves = 0
    for jobs, plain_best, plain_solved in cases:
        best, _ = oracle.product_overlap_searches(jobs, iterations=6)
        assert np.min(best - plain_best) >= -1e-12
        plain_solves += plain_solved
    assert sum(solved) <= 0.65 * plain_solves


def test_search_reaches_fixed_point_on_check_all_jobs():
    # On the jobs of `check all --seed 7, 8, 9` (the basis checks draw from
    # the generator first), every job is within 1e-10 of a 400-step plain
    # alternation; a plain 60-step search stops up to 3.1e-6 short.
    # Near-degenerate spectra still converge slowly: one qubit job of
    # `check roundtrip --seed 9`, singular values (1, 0.986, 0.986), stops
    # 2.7e-6 short, where the plain 60-step search stops 1.0e-4 short.
    for seed in (7, 8, 9):
        rng = np.random.default_rng(seed)
        checks._basis_checks(range(2, 13), rng)
        jobs = checks._search_jobs(rng, seed)
        fixed_point, _ = _plain_alternation(jobs, 6, 400)
        best, _ = oracle.product_overlap_searches(jobs, iterations=6)
        assert np.max(np.abs(best - fixed_point)) <= 1e-10


def _bits(best, gap):
    return [(b.hex(), g.hex()) for b, g in zip(best.tolist(), gap.tolist())]


@pytest.mark.parametrize("iterations", range(1, 9))
def test_searches_match_one_job_calls(iterations, monkeypatch):
    # Jobs of d = 2..6 in mixed order, some sharing a tensor or a seed: the
    # lockstep stack gives every job the numbers of its own call, in order,
    # and solves exactly the eigenproblems the one-job calls solve.
    rng = np.random.default_rng(40 + iterations)
    tensors = [correlation_tensor(oracle.random_pure_state(n, rng)) for n in (3, 1, 5, 2, 4, 1, 5)]
    jobs = [(ten, seed) for seed, ten in enumerate(tensors)] + [(tensors[2], 0), (tensors[4], 9)]
    solved = _counting_eigh(monkeypatch)
    one_job = []
    for job in jobs:
        one_job += _bits(*oracle.product_overlap_searches([job], iterations=iterations))
    per_job_matrices = sum(solved)
    solved.clear()
    assert _bits(*oracle.product_overlap_searches(jobs, iterations=iterations)) == one_job
    assert sum(solved) == per_job_matrices


def test_searches_take_no_jobs_and_reject_bad_iterations():
    best, gap = oracle.product_overlap_searches([], iterations=6)
    assert best.shape == gap.shape == (0,)
    ten = correlation_tensor(maximally_entangled(1))
    with pytest.raises(ValueError):
        oracle.product_overlap_searches([(ten, 0)], iterations=0)


def test_search_best_never_falls_with_more_starts():
    # Starts are a prefix of one seeded stream and each start's numbers do
    # not depend on the others, so best(k) is a running maximum.
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        ten = correlation_tensor(oracle.random_pure_state(n, rng))
        for seed in (0, 3):
            best = [oracle.product_overlap_searches([(ten, seed)], iterations=k)[0][0] for k in (1, 2, 6, 20)]
            assert best == sorted(best)


def test_check_roundtrip_output_is_deterministic():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-m", "boswit.cli", "check", "roundtrip", "--seed", "8"]
    first, second = (subprocess.run(argv, capture_output=True, env=env, check=True).stdout for _ in range(2))
    assert first == second
    assert b'"product_search_bound"' in first


def test_reference_closed_forms():
    ref = oracle.reference_closed_forms("szsz_n2", 2, 0.0)
    assert ref["t_norm"] == pytest.approx(1.0, abs=1e-12)
    assert ref["t_max"] == pytest.approx(1.0, abs=1e-12)
    ref = oracle.reference_closed_forms("szsz_n1", 1, math.pi / 4)
    assert ref["t_norm"] == pytest.approx(3.0, abs=1e-12)
    ref = oracle.reference_closed_forms("spin_elements", 5, 0.2)
    assert ref["txx"] == pytest.approx(math.cos(0.4) ** 8, abs=1e-12)
    with pytest.raises(ValueError, match="unsupported"):
        oracle.reference_closed_forms("szsz_n3", 3, 0.1)
    with pytest.raises(ValueError, match="unsupported"):
        oracle.reference_closed_forms("szsz_n1", 2, 0.1)


def test_pdc_average_truncation_guard():
    # At the fixed truncation N = 200, squeezing 2.0 leaves 6.1e-6 out.
    with pytest.raises(ValueError, match="truncation at N=200 leaves probability 6.1"):
        PdcEnsemble.build(2.0)


def test_pure_entanglement_oracle():
    rng = np.random.default_rng(4)
    assert not oracle.pure_entanglement_oracle(oracle.random_product_state(3, rng))
    assert oracle.pure_entanglement_oracle(szsz_state(3, 0.2))
    assert oracle.pure_entanglement_oracle(maximally_entangled(4))


def test_criterion_positive_implies_schmidt_rank():
    rng = np.random.default_rng(6)
    states = [szsz_state(n, t) for n in range(1, 6) for t in np.linspace(0.0, 1.5, 7)]
    states += [oracle.random_pure_state(3, rng) for _ in range(20)]
    n_c, n_d = default_photon_outcomes(4)
    states += [acstark_state(4, t, n_c, n_d).state for t in (0.1, 0.4)]
    for state in states:
        if evaluate_many(state.coeff[None])["entangled_by_eps"][0]:
            assert oracle.pure_entanglement_oracle(state)

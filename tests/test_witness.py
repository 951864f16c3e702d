import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from boswit import oracle, witness
from boswit.basis import _gellmann_basis, gellmann_basis, project_traceless, schwinger_ops
from boswit.states import (
    PdcEnsemble,
    PureBipartiteState,
    acstark_state,
    bloch_length_closed,
    default_photon_outcomes,
    from_coefficients,
    maximally_entangled,
    pdc_epsilon_average,
    szsz_coefficients,
    szsz_state,
)
from boswit.sweep import N_HARD_CAP
from boswit.witness import (
    _FLAG_TOL,
    correlation_tensor,
    evaluate_many,
    spin_tensors,
    tensor_identifiers,
)

GRID = np.linspace(0.0, math.pi / 2, 64, endpoint=False)


def test_n1_tensor_nonzero_entries():
    tau = 0.37
    ten = correlation_tensor(szsz_state(1, tau))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    expected[1, 2] = expected[2, 1] = math.sin(2 * tau)
    assert np.max(np.abs(ten.t - expected)) < 1e-12


def _identifiers(state, route=tensor_identifiers) -> dict:
    """``route`` on one state, a stack of one, as Python scalars."""
    return {key: col[0].item() for key, col in route(state.coeff[None]).items()}


def test_n1_closed_forms_on_grid():
    found = tensor_identifiers(szsz_coefficients(1, GRID))
    np.testing.assert_allclose(found["t_norm"], 1 + 2 * np.sin(2 * GRID) ** 2, rtol=0, atol=1e-9)
    np.testing.assert_allclose(found["t_max"], 1.0, rtol=0, atol=1e-9)
    assert _identifiers(szsz_state(1, math.pi / 4))["epsilon"] == pytest.approx(3.0, abs=1e-9)


def test_n2_closed_forms_on_grid():
    found = tensor_identifiers(szsz_coefficients(2, GRID))
    c = 53 + 48 * np.cos(4 * GRID) + 24 * np.cos(8 * GRID) + 3 * np.cos(16 * GRID)
    np.testing.assert_allclose(found["t_norm"], 2 - c / 128, rtol=0, atol=1e-9)
    np.testing.assert_allclose(found["t_max"], 0.5 + np.sqrt(c / 2) / 16, rtol=0, atol=1e-9)


def test_n2_quarter_period_point():
    rep = _identifiers(szsz_state(2, math.pi / 4), evaluate_many)
    assert rep["t_norm"] == pytest.approx(1.75, abs=1e-12)
    assert rep["t_max"] == pytest.approx(0.75, abs=1e-12)
    assert rep["epsilon"] == pytest.approx(7.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_maximally_entangled_identifiers(n):
    # Every singular value of this tensor equals 1/N, so the top one does too:
    # the pair entries tie with the diagonal block.
    rep = _assert_routes_agree(maximally_entangled(n))
    assert rep["epsilon"] == pytest.approx(n + 2, abs=1e-9)
    assert rep["t_max"] == pytest.approx(1.0 / n, abs=1e-12)
    assert rep["t_norm"] == pytest.approx((n + 2.0) / n, abs=1e-12)
    assert rep["entropy"] == pytest.approx(math.log2(n + 1), abs=1e-12)
    assert rep["bloch_sq"] == pytest.approx(0.0, abs=1e-12)
    assert rep["entangled_by_eps"]


def test_product_states_sit_on_the_boundary():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        found = _identifiers(oracle.random_product_state(n, rng))
        assert abs(found["epsilon"] - 1.0) < 1e-8
        assert found["t_norm"] <= 1.0 + 1e-8
        assert found["bloch_sq_a"] == pytest.approx(1.0, abs=1e-8)


def test_entangled_states_have_short_bloch_vectors():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        assert _identifiers(oracle.random_pure_state(n, rng))["bloch_sq_a"] < 1.0 - 1e-6


def test_bloch_matches_closed_formula():
    for n in range(1, 9):
        found = tensor_identifiers(szsz_coefficients(n, GRID))
        for tau, bs_a, bs_b in zip(GRID, found["bloch_sq_a"], found["bloch_sq_b"]):
            ref = bloch_length_closed(n, float(tau))
            assert bs_a == pytest.approx(ref, abs=1e-9)
            assert bs_b == pytest.approx(ref, abs=1e-9)


def test_entropy_examples():
    assert _identifiers(szsz_state(1, math.pi / 4), evaluate_many)["entropy"] == pytest.approx(1.0, abs=1e-12)
    assert _identifiers(szsz_state(2, 0.0), evaluate_many)["entropy"] == pytest.approx(0.0, abs=1e-12)


def test_fast_matches_dense_reference():
    rng = np.random.default_rng(5)
    cases = [szsz_state(n, 0.3) for n in (1, 2, 3, 4)]
    cases += [oracle.random_pure_state(3, rng), oracle.random_product_state(2, rng)]
    for state in cases:
        fast = correlation_tensor(state)
        dense = oracle.dense_correlation_tensor(state)
        assert np.max(np.abs(fast.t - dense.t)) < 1e-12
        assert np.max(np.abs(fast.local_a - dense.local_a)) < 1e-12
        assert np.max(np.abs(fast.local_b - dense.local_b)) < 1e-12


def test_identifiers_invariant_under_basis_shuffle():
    rng = np.random.default_rng(8)
    for n in (2, 3):
        state = szsz_state(n, 0.4)
        ref = _identifiers(state)
        d = state.d
        perm = np.concatenate([[0], rng.permutation(np.arange(1, d * d))])
        shuffled = gellmann_basis(d)[perm]
        alt = oracle.dense_correlation_tensor(state, elements=shuffled)
        bloch = (d - 1.0) * alt.local_a
        assert float(np.sum(alt.t * alt.t)) == pytest.approx(ref["t_norm"], abs=1e-9)
        assert np.linalg.svd(alt.t, compute_uv=False)[0] == pytest.approx(ref["t_max"], abs=1e-9)
        assert float(bloch @ bloch) == pytest.approx(ref["bloch_sq_a"], abs=1e-9)


def test_correlation_tensor_builds_no_basis():
    _gellmann_basis.cache_clear()
    correlation_tensor(szsz_state(4, 0.3))
    assert _gellmann_basis.cache_info().currsize == 0


def _per_state_tensor(state):
    """The single-state tensor route as written before the stacked helpers:
    (T, local_a, local_b)."""
    d = state.d
    c = state.coeff
    pref = d / (2.0 * (d - 1.0))
    q = np.einsum("am,bn->abmn", c.conj(), c)
    x = project_traceless(q)
    y = project_traceless(np.moveaxis(x, (1, 2), (0, 1)))
    m0 = 1.0 / math.sqrt(d * (d - 1) / 2.0)
    rho_a = c @ c.conj().T
    rho_b_t = c.conj().T @ c
    return (
        (pref * y.T).real,
        (pref * m0 * project_traceless(rho_a.T)).real,
        (pref * m0 * project_traceless(rho_b_t)).real,
    )


def _per_state_spin(state):
    """The single-state spin route as written before the stacked helper."""
    mats = schwinger_ops(state.d, "schwinger")
    c = state.coeff
    left = [c.conj().T @ m @ c for m in mats]
    raw = np.array([[np.sum(li * mj) for mj in mats] for li in left])
    return (raw / float(state.n) ** 2).real


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", range(1, 11))
def test_stacked_routes_match_single_state_calls(n):
    rng = np.random.default_rng(60 + n)
    n_c, n_d = default_photon_outcomes(n)
    group = [szsz_state(n, float(tau)) for tau in GRID[::9]]
    group += [maximally_entangled(n), acstark_state(n, 0.2, n_c, n_d).state]
    group += [oracle.random_pure_state(n, rng) for _ in range(3)]
    group.append(oracle.random_product_state(n, rng))
    coeffs = np.stack([state.coeff for state in group])
    t = witness._joint_blocks(coeffs)
    local_a, local_b = witness._local_vectors(coeffs)
    spin = spin_tensors(coeffs)
    for g, state in enumerate(group):
        one = correlation_tensor(state)
        for stacked, single, before in zip((t[g], local_a[g], local_b[g]), (one.t, one.local_a, one.local_b), _per_state_tensor(state)):
            assert _same_bits(stacked, single) and _same_bits(single, before), (n, g)
        assert _same_bits(spin[g], spin_tensors(state.coeff[None])[0]), (n, g)
        assert _same_bits(spin[g], _per_state_spin(state)), (n, g)


def test_spin_tensor_elements_on_grid():
    for n in range(1, 11):
        for tau, tp in zip(GRID, spin_tensors(szsz_coefficients(n, GRID))):
            expected = np.zeros((3, 3))
            expected[0, 0] = math.cos(2 * tau) ** (2 * n - 2)
            expected[1, 2] = expected[2, 1] = math.cos(2 * tau) ** (n - 1) * math.sin(2 * tau)
            assert np.max(np.abs(tp - expected)) < 1e-9


def test_spin_tensor_polarized_point():
    (tp,) = spin_tensors(szsz_coefficients(5, [0.0]))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.max(np.abs(tp - expected)) < 1e-10


def test_spin_tensor_matches_dense():
    for state in (maximally_entangled(2), szsz_state(3, 0.2)):
        assert np.max(np.abs(spin_tensors(state.coeff[None])[0] - oracle.dense_spin_tensor(state))) < 1e-12


def test_spin_criterion_family_diagonalization():
    # For this family the singular values are {T'_xx, |T'_yz|, |T'_zy|}.
    for n in (1, 2, 4, 7):
        coeffs = szsz_coefficients(n, [0.1, 0.5, 1.1])
        tops = evaluate_many(coeffs)["spin_t_max"]
        for tp, top in zip(spin_tensors(coeffs), tops):
            assert top == pytest.approx(max(tp[0, 0], abs(tp[1, 2])), abs=1e-12)


def test_spin_criterion_boundaries():
    rep = _identifiers(szsz_state(4, 0.0), evaluate_many)
    assert (rep["spin_t_norm"], rep["spin_t_max"], rep["spin_epsilon"]) == (pytest.approx(1.0), pytest.approx(1.0), pytest.approx(1.0))
    assert np.all(evaluate_many(szsz_coefficients(1, GRID[1:]))["spin_epsilon"] > 1.0)


def test_evaluate_handles_vanishing_spin_tensor():
    # Support on levels {0, 2} only: every spin correlation cancels exactly,
    # while the full tensor still certifies entanglement.
    raw = np.zeros((3, 3))
    raw[0, 0] = raw[0, 2] = raw[2, 2] = 0.5
    raw[2, 0] = -0.5
    state = from_coefficients(2, raw)
    assert not np.any(spin_tensors(state.coeff[None]))
    rep = _identifiers(state, evaluate_many)
    assert rep["spin_t_norm"] == 0.0 and rep["spin_epsilon"] == 0.0
    assert rep["entangled_by_eps"]


def test_unnormalized_state_rejected():
    bad = PureBipartiteState(n=1, coeff=np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="normalized"):
        correlation_tensor(bad)
    for route in (evaluate_many, tensor_identifiers, spin_tensors):
        with pytest.raises(ValueError, match="normalized"):
            route(bad.coeff[None])


@pytest.mark.parametrize("factor", [1.01, math.nan])
@pytest.mark.parametrize("index", [0, 3, 6])
def test_evaluate_many_rejects_an_unnormalized_state_at_any_index(index, factor):
    coeffs = np.stack([szsz_state(2, 0.2 * k).coeff for k in range(7)])
    coeffs[index] *= factor
    with pytest.raises(ValueError, match=f"not normalized: .* at stack index {index}$"):
        evaluate_many(coeffs)


def test_report_consistency_relations():
    rng = np.random.default_rng(21)
    states = [szsz_state(n, t) for n in (1, 3, 5) for t in (0.2, 0.7, 1.4)]
    states += [oracle.random_pure_state(4, rng) for _ in range(10)]
    for state in states:
        rep = _identifiers(state, evaluate_many)
        assert rep["epsilon"] * rep["t_max"] == pytest.approx(rep["t_norm"], abs=1e-9)
        if rep["entangled_by_norm"]:
            assert rep["entangled_by_eps"]
        assert 0.0 <= rep["entropy"] <= math.log2(state.d) + 1e-12


@given(st.integers(min_value=0, max_value=10_000))
def test_tensor_entry_and_singular_bounds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    state = oracle.random_pure_state(n, rng)
    ten = correlation_tensor(state)
    assert float(np.max(np.abs(ten.t))) <= 1.0 + 1e-9
    assert _identifiers(state)["t_max"] <= 1.0 + 1e-9


# The Schmidt-spectrum kernel of ``evaluate_many`` against the O(d^4) tensor route.

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _assert_routes_agree(state, ref=None):
    """``evaluate_many`` against ``tensor_identifiers``, on one state: every
    key at 1e-12 relative (1e-14 absolute near zero), each flag exactly; the
    one ``bloch_sq`` stands for both sides' Bloch lengths."""
    rep = _identifiers(state, evaluate_many)
    for key, want in (ref or _identifiers(state)).items():
        got = rep[key if not key.startswith("bloch_sq") else "bloch_sq"]
        if isinstance(want, bool):
            assert got == want, key
        else:
            assert abs(got - want) <= max(1e-12 * abs(want), 1e-14), (key, got, want)
    return rep


def _random_unitary(d, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def _state_with_spectrum(p, rng):
    """The state U diag(sqrt(p)) V^T for random unitaries U and V."""
    d = len(p)
    raw = (_random_unitary(d, rng) * np.sqrt(p)) @ _random_unitary(d, rng).T
    return from_coefficients(d - 1, raw)


@given(st.integers(min_value=1, max_value=12), SEEDS)
def test_routes_agree_on_random_states(n, seed):
    _assert_routes_agree(oracle.random_pure_state(n, np.random.default_rng(seed)))


@given(st.integers(min_value=1, max_value=12), SEEDS)
def test_routes_agree_on_product_states(n, seed):
    _assert_routes_agree(oracle.random_product_state(n, np.random.default_rng(seed)))


@given(st.integers(min_value=1, max_value=12), SEEDS, st.floats(min_value=-1.0, max_value=1.0))
def test_routes_agree_at_the_flag_margin(n, seed, decades):
    # A second Schmidt weight eta lifts t_norm to 1 + 4 d eta / (d-1)^2 at
    # first order, so this eta puts t_norm - 1 within a decade of the margin,
    # below it or above it; epsilon - 1 is (d+2)/4 times larger.
    d = n + 1
    eta = 10.0**decades * _FLAG_TOL * (d - 1) ** 2 / (4.0 * d)
    p = np.zeros(d)
    p[:2] = (1.0 - eta, eta)
    state = _state_with_spectrum(p, np.random.default_rng(seed))
    ref = _identifiers(state)
    # Inside the routes' rounding of the threshold the last ulp decides a flag.
    assume(abs(ref["t_norm"] - 1.0 - _FLAG_TOL) > 1e-14)
    assume(abs(ref["epsilon"] - 1.0 - _FLAG_TOL) > 1e-14)
    _assert_routes_agree(state, ref)


@given(
    st.integers(min_value=1, max_value=12),
    SEEDS,
    st.floats(min_value=-10.0, max_value=-1.0),
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_routes_agree_on_near_degenerate_spectra(n, seed, log_delta, sign, tail):
    # p_1 = p_2 +- delta: the pair entries 2 pref s_1 s_2 come within
    # O(delta^2) of the diagonal block's top eigenvalue and tie at delta = 0.
    rng = np.random.default_rng(seed)
    p = np.concatenate([[1.0 + sign * 10.0**log_delta, 1.0], tail * rng.random(n - 1)])
    p /= p.sum()
    rep = _assert_routes_agree(_state_with_spectrum(p, rng))
    d = n + 1
    s = np.sort(np.sqrt(p))[::-1]
    assert d / (d - 1.0) * s[0] * s[1] <= rep["t_max"] * (1.0 + 1e-14)


def test_routes_agree_on_acstark_at_the_hard_cap():
    n = N_HARD_CAP
    outcome = acstark_state(n, 2.5 / n, *default_photon_outcomes(n))
    _assert_routes_agree(outcome.state)


def test_product_states_pinned_up_to_the_hard_cap():
    rng = np.random.default_rng(40)
    for n in range(1, N_HARD_CAP + 1):
        # szsz at tau = 0 is |0)|0), whose one Schmidt weight lands a few ulp
        # above 1 (N = 2, 5, 8, ...) or below it (N = 3, 4, ...); either way
        # it is the only weight, and the entropy is exactly zero.
        basis_product = szsz_state(n, 0.0)
        for state in (oracle.random_product_state(n, rng), basis_product):
            rep = _identifiers(state, evaluate_many)
            assert rep["t_norm"] == pytest.approx(1.0, abs=1e-12), n
            assert rep["t_max"] == pytest.approx(1.0, abs=1e-12), n
            assert not rep["entangled_by_norm"] and not rep["entangled_by_eps"], n
            assert rep["entropy"] == 0.0, n


@given(st.integers(min_value=1, max_value=12), SEEDS)
def test_purity_identity_on_the_tensor_route(n, seed):
    # For a pure state t_norm = (d + 1 - 2 bloch_sq) / (d - 1): both sides are
    # affine in the purity sum p^2.  The largest residual measured is 2.9e-15.
    rng = np.random.default_rng(seed)
    members = [oracle.random_pure_state(n, rng) for _ in range(4)] + [oracle.random_product_state(n, rng)]
    found = tensor_identifiers(np.stack([state.coeff for state in members]))
    d = n + 1
    for side in ("bloch_sq_a", "bloch_sq_b"):
        np.testing.assert_allclose(found["t_norm"], (d + 1 - 2 * found[side]) / (d - 1), rtol=0, atol=1e-14)


def test_maxent_epsilon_computed_over_the_pdc_truncation():
    # pdc_epsilon_average takes eps_N = N + 2 for every N up to its
    # truncation; compute each one and rebuild its series from them.
    ens = PdcEnsemble.build(0.8)
    eps = np.array([1.0] + [_identifiers(maximally_entangled(n), evaluate_many)["epsilon"] for n in range(1, ens.n_trunc + 1)])
    np.testing.assert_allclose(eps[1:], np.arange(1, ens.n_trunc + 1) + 2.0, rtol=1e-12)
    series, _ = pdc_epsilon_average(ens)
    assert float(ens.weights @ eps) == pytest.approx(series, rel=1e-12)

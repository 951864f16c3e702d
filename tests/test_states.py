import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boswit.states import (
    _EXACT_BINOM_LIMIT,
    PdcEnsemble,
    _acstark_raw,
    _binom,
    _normalized,
    acstark_coefficients,
    acstark_state,
    bloch_closed_coefficients,
    bloch_length_closed,
    catalan,
    default_photon_outcomes,
    from_coefficients,
    maximally_entangled,
    pdc_epsilon_average,
    pdc_weight,
    szsz_coefficients,
    szsz_state,
)
from boswit.sweep import default_grid


def test_from_coefficients_bell():
    st_ = from_coefficients(1, np.eye(2))
    assert np.allclose(st_.coeff, np.eye(2) / math.sqrt(2))
    assert st_.source_norm == pytest.approx(math.sqrt(2))
    assert st_.d == 2


def test_from_coefficients_uniform():
    st_ = from_coefficients(2, np.ones((3, 3)))
    assert np.allclose(np.abs(st_.coeff) ** 2, np.full((3, 3), 1.0 / 9.0))


def test_from_coefficients_errors():
    with pytest.raises(ValueError, match="zero norm"):
        from_coefficients(1, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        from_coefficients(2, np.eye(2))
    with pytest.raises(ValueError):
        from_coefficients(0, np.eye(1))


def test_from_coefficients_divides_by_numpy_norm():
    # The stacked normalizer gives every matrix the bits of raw / norm(raw).
    rng = np.random.default_rng(5)
    for d in range(2, 42):
        for _ in range(5):
            raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            nrm = np.linalg.norm(raw)
            st_ = from_coefficients(d - 1, raw)
            assert st_.coeff.tobytes() == (raw / nrm).tobytes(), d
            assert st_.source_norm == nrm, d


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_coefficients_rejected(bad):
    with pytest.raises(ValueError, match="coefficient matrix 0 of the stack has non-finite norm"):
        from_coefficients(1, [[bad, 0.0], [0.0, 1.0]])
    stack = np.ones((4, 3, 3), dtype=complex)
    stack[2, 1, 0] = complex(0.0, bad)
    stack[3, 0, 0] = bad
    with pytest.raises(ValueError, match="coefficient matrix 2 of the stack has non-finite norm"):
        _normalized(stack)


def test_maximally_entangled():
    st_ = maximally_entangled(3)
    assert np.allclose(st_.coeff, np.eye(4) * 0.5)


def test_spin_coherent_values():
    # Without interaction each component is the x-polarized spin coherent
    # state, amplitudes sqrt(binom(N, k)) / 2^(N/2).
    r = 1 / math.sqrt(2)
    for n, v in ((1, [r, r]), (2, [0.5, r, 0.5])):
        assert np.allclose(szsz_state(n, 0.0).coeff, np.outer(v, v), atol=1e-12)


def test_szsz_no_interaction_is_product():
    n = 3
    st_ = szsz_state(n, 0.0)
    v = np.sqrt([math.comb(n, k) for k in range(n + 1)]) / 2.0 ** (n / 2)
    assert np.allclose(st_.coeff, np.outer(v, v), atol=1e-12)


def test_szsz_amplitudes_and_phases():
    n, tau = 2, 0.3
    st_ = szsz_state(n, tau)
    for k in range(3):
        for l in range(3):
            mag = math.sqrt(math.comb(2, k) * math.comb(2, l)) / 4.0
            expected = mag * np.exp(-1j * (n - 2 * k) * (n - 2 * l) * tau)
            assert st_.coeff[k, l] == pytest.approx(expected, abs=1e-12)


def test_szsz_tau_reduced_modulo_period():
    a = szsz_state(3, 0.4)
    b = szsz_state(3, 0.4 + math.pi / 2)
    assert np.allclose(a.coeff, b.coeff, atol=1e-12)


@given(st.integers(min_value=1, max_value=8), st.floats(min_value=-2.0, max_value=4.0))
def test_szsz_normalized(n, tau):
    st_ = szsz_state(n, tau)
    assert abs(np.linalg.norm(st_.coeff) - 1.0) < 1e-12


def test_szsz_coefficients_match_per_state_builds():
    # The stack of the default sweep grid equals the per-state builds bit
    # for bit at every N, and is read-only like a state's coefficients.
    grid = default_grid("szsz").points()
    for n in range(1, 41):
        stack = szsz_coefficients(n, grid)
        assert stack.shape == (len(grid), n + 1, n + 1)
        assert not stack.flags.writeable
        assert stack.tobytes() == np.stack([szsz_state(n, tau).coeff for tau in grid]).tobytes()


def test_default_photon_outcomes():
    assert default_photon_outcomes(4) == (2, 2)
    assert default_photon_outcomes(5) == (2, 3)
    assert default_photon_outcomes(1) == (0, 1)


def test_acstark_t_zero_factorizes():
    for n in (1, 2, 5):
        n_c, n_d = default_photon_outcomes(n)
        out = acstark_state(n, 0.0, n_c, n_d)
        assert out.norm_weight == pytest.approx(2.0 ** -n, rel=1e-12)
        svals = np.linalg.svd(out.state.coeff, compute_uv=False)
        assert svals[1] < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_acstark_even_matches_simplified_cosine(n):
    t = 0.37
    n_c, n_d = default_photon_outcomes(n)
    assert n_c == n_d
    out = acstark_state(n, t, n_c, n_d)
    raw = out.state.coeff * out.state.source_norm
    k = np.arange(n + 1)
    w = np.array([math.sqrt(math.comb(n, kk)) for kk in k]) / 2.0 ** (n / 2.0)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    simple = np.outer(w, w) * signs[None, :]
    simple = simple * np.cos(4.0 * t * (np.add.outer(k, k) - n)) ** n_c / 2.0 ** n_c
    assert np.max(np.abs(raw - simple)) < 1e-10


@pytest.mark.parametrize("outcomes, stride", [(None, 1), ((1, 4), 8)])
def test_acstark_coefficients_match_per_state_builds(outcomes, stride):
    # Each stacked state, weight and raw norm has the bits of its own
    # acstark_state build, on the default grid and at t = 2.5 / N.
    grid = default_grid("acstark").points()[::stride]
    for n in range(1, 41):
        n_c, n_d = outcomes or default_photon_outcomes(n)
        times = np.append(grid, 2.5 / n)
        coeffs, weights = acstark_coefficients(n, times, n_c, n_d)
        raw, _ = _acstark_raw(n, times, n_c, n_d)
        assert coeffs.shape == (len(times), n + 1, n + 1)
        assert not coeffs.flags.writeable
        for i, t in enumerate(times.tolist()):
            out = acstark_state(n, t, n_c, n_d)
            assert coeffs[i].tobytes() == out.state.coeff.tobytes(), (n, t)
            assert weights[i].tobytes() == np.float64(out.norm_weight).tobytes(), (n, t)
            assert np.linalg.norm(raw[i]) == out.state.source_norm, (n, t)


def test_acstark_coefficients_name_the_first_degenerate_time():
    with pytest.raises(ValueError, match=re.escape("(t, n_c, n_d)=(0.0, 0, 1200)")):
        acstark_coefficients(2, [0.1, 0.0, 1e-3], 0, 1200)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_acstark_non_finite_times_rejected(bad):
    # A ValueError naming t, before any numpy warning.
    with pytest.raises(ValueError, match=re.escape(f"coupling time must be finite, got t={bad}")):
        acstark_state(2, bad, 1, 1)
    with pytest.raises(ValueError, match=re.escape(f"coupling time must be finite, got t={bad}")):
        acstark_coefficients(2, [0.1, bad, 0.2, math.nan], 1, 1)


def test_acstark_phase_overflow_rejected():
    # 2 t N overflows at t = 5e307 for N = 2 but not at 1e307: a ValueError
    # naming t, before any numpy warning.
    msg = re.escape("coupling time overflows the phase 2 t (k1 + k2 - N) at N=2, got t=5e+307")
    with pytest.raises(ValueError, match=msg):
        acstark_state(2, 5e307, 1, 1)
    with pytest.raises(ValueError, match=msg):
        acstark_coefficients(2, [0.1, 1e307, 5e307, -1e308], 1, 1)
    acstark_coefficients(2, [1e307, -1e307], 1, 1)


def test_acstark_argument_errors():
    with pytest.raises(ValueError):
        acstark_state(2, 0.1, -1, 1)
    with pytest.raises(ValueError):
        acstark_state(2, 0.1, 1, 1.5)
    with pytest.raises(ValueError):
        acstark_state(0, 0.1, 0, 0)


def test_pdc_weight_values():
    assert pdc_weight(0, 1e-8) == pytest.approx(1.0, abs=1e-12)
    expected = 3.0 * math.tanh(1.0) ** 4 / math.cosh(1.0) ** 4
    assert pdc_weight(2, 1.0) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        pdc_weight(2, 0.0)
    for n in (-1, [1, -1], True, 2.0):
        with pytest.raises(ValueError, match="pair number"):
            pdc_weight(n, 0.5)
    for squeezing in (math.nan, math.inf, -1.0, [0.5, math.nan]):
        with pytest.raises(ValueError, match="positive and finite"):
            pdc_weight(2, squeezing)


@pytest.mark.parametrize("squeezing", [200.0, 1e308])
def test_pdc_squeezing_too_large_for_floats(squeezing):
    # cosh(squeezing)^4 overflows; the error names the squeezing.
    for build in (lambda: pdc_weight(2, squeezing), lambda: PdcEnsemble.build(squeezing)):
        with pytest.raises(ValueError, match=re.escape(f"squeezing {squeezing!r} is too large")):
            build()


@pytest.mark.parametrize("squeezing", [0.1, 0.5, 1.0, 1.5])
def test_pdc_weights_sum_to_one(squeezing):
    ens = PdcEnsemble.build(squeezing)
    assert ens.n_trunc == 200 and ens.weights.shape == (201,)
    assert np.all(ens.weights >= 0.0)
    assert 1.0 - float(ens.weights.sum()) < 1e-8


def test_pdc_truncation_error():
    # At the fixed truncation N = 200, squeezing 2.0 leaves 6.1e-6 out.
    with pytest.raises(ValueError, match=r"truncation at N=200 leaves probability 6\.1\d*e-06 > 1\.0e-08 at squeezing 2\.0"):
        PdcEnsemble.build(2.0)


def test_pdc_weight_broadcasts_with_the_ensemble_bits():
    # The same point gets the same bits whether N or the squeezing is the
    # array; N = 1 (exponent 2) is where numpy's square and pow part.
    squeezings = np.linspace(0.001, 1.7, 400)
    table = np.stack([PdcEnsemble.build(k).weights for k in squeezings.tolist()])
    for n in range(201):
        assert pdc_weight(n, squeezings).tobytes() == table[:, n].tobytes(), n
    assert pdc_weight(np.arange(3)[:, None], squeezings).tobytes() == table[:, :3].T.tobytes()


def test_pdc_average_matches_closed_form():
    for squeezing in (0.05, 0.25, 0.5, 1.0, 1.5):
        series, closed = pdc_epsilon_average(PdcEnsemble.build(squeezing))
        assert abs(series - closed) < 1e-8
        assert closed > 1.0


def test_pdc_average_boundary_and_monotone():
    series, closed = pdc_epsilon_average(PdcEnsemble.build(1e-6))
    assert series == pytest.approx(1.0, abs=1e-8)
    assert closed == pytest.approx(1.0, abs=1e-8)
    grid = np.linspace(0.05, 1.5, 30)
    values = [pdc_epsilon_average(PdcEnsemble.build(float(k)))[1] for k in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_binom_continuous_across_lgamma_switch():
    # Rows up to the limit are exact integers; the next row comes from lgamma.
    for n in (_EXACT_BINOM_LIMIT, _EXACT_BINOM_LIMIT + 1):
        for k in range(n + 1):
            assert _binom(n, k) == pytest.approx(math.comb(n, k), rel=1e-12), (n, k)
    # Pascal's rule joins the last exact row to the first lgamma row.
    n = _EXACT_BINOM_LIMIT + 1
    for k in range(1, n):
        assert _binom(n, k) == pytest.approx(_binom(n - 1, k - 1) + _binom(n - 1, k), rel=1e-12)


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(4) == 14
    with pytest.raises(ValueError):
        catalan(-1)


def test_bloch_closed_printed_expansions():
    taus = np.linspace(0.0, math.pi / 2, 40, endpoint=False)

    def printed(n, tau):
        c = [math.cos(2 * l * tau) for l in range(0, n + 1)]
        if n == 1:
            return c[1] ** 2
        if n == 2:
            return 1 / 16 + (3 / 4) * c[1] ** 4 + (3 / 16) * c[2] ** 4
        if n == 3:
            return 1 / 12 + (5 / 8) * c[1] ** 6 + (1 / 4) * c[2] ** 6 + (1 / 24) * c[3] ** 6
        return (
            47 / 512
            + (35 / 64) * c[1] ** 8
            + (35 / 128) * c[2] ** 8
            + (5 / 64) * c[3] ** 8
            + (5 / 512) * c[4] ** 8
        )

    for n in range(1, 5):
        for tau in taus:
            assert bloch_length_closed(n, float(tau)) == pytest.approx(
                printed(n, float(tau)), abs=1e-12
            )


def test_bloch_closed_constant_term_n4():
    b0, coeffs = bloch_closed_coefficients(4)
    assert b0 == pytest.approx(47.0 / 512.0, abs=1e-15)
    assert coeffs == pytest.approx([35 / 64, 35 / 128, 5 / 64, 5 / 512], abs=1e-15)


@pytest.mark.parametrize("n", range(1, 13))
def test_bloch_closed_is_one_at_zero(n):
    assert bloch_length_closed(n, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert bloch_length_closed(n, 0.2) < 1.0

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boswit.basis import (
    _spin_identity_errors,
    gellmann_basis,
    gm_index,
    project_traceless,
    schwinger_ops,
    spin_gellmann_decomposition,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_invalid_dimension():
    for bad in (1, 0, -3, 2.5, "3", [3]):
        with pytest.raises(ValueError):
            gellmann_basis(bad)


def _loop_built_gellmann(d):
    """Reference basis filled one element at a time, in the documented order."""
    el = np.zeros((d * d, d, d), dtype=complex)
    el[0] = np.eye(d) / math.sqrt(d * (d - 1) / 2.0)
    n_pairs = d * (d - 1) // 2
    sym_pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    anti_pairs = [(i, j) for j in range(1, d) for i in range(j - 1, -1, -1)]
    for m, (i, j) in enumerate(sym_pairs):
        el[1 + m, i, j] = 1.0
        el[1 + m, j, i] = 1.0
    for m, (i, j) in enumerate(anti_pairs):
        el[1 + n_pairs + m, i, j] = -1.0j
        el[1 + n_pairs + m, j, i] = 1.0j
    for k in range(1, d):
        w = math.sqrt(2.0 / (k * (k + 1)))
        for m in range(k):
            el[d * (d - 1) + k, m, m] = w
        el[d * (d - 1) + k, k, k] = -k * w
    return el


@pytest.mark.parametrize("d", range(2, 13))
def test_build_matches_loop_reference(d):
    el = gellmann_basis(d)
    ref = _loop_built_gellmann(d)
    assert el.shape == ref.shape and el.dtype == ref.dtype
    assert np.array_equal(el, ref)
    assert el.tobytes() == ref.tobytes()   # signs of zeros too
    assert not el.flags.writeable


def test_pauli_case():
    b = gellmann_basis(2)
    assert np.allclose(b[0], np.eye(2), atol=1e-15)
    assert np.allclose(b[1], PAULI_X, atol=1e-15)
    assert np.allclose(b[2], PAULI_Y, atol=1e-15)
    assert np.allclose(b[3], PAULI_Z, atol=1e-15)


def test_d3_elements_frozen():
    el = gellmann_basis(3)
    assert np.allclose(el[0], np.eye(3) / math.sqrt(3), atol=1e-15)
    assert np.allclose(el[1], [[0, 1, 0], [1, 0, 0], [0, 0, 0]], atol=1e-15)
    assert np.allclose(el[2], [[0, 0, 1], [0, 0, 0], [1, 0, 0]], atol=1e-15)
    assert np.allclose(el[3], [[0, 0, 0], [0, 0, 1], [0, 1, 0]], atol=1e-15)
    assert np.allclose(el[4], [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], atol=1e-15)
    assert np.allclose(el[5], [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], atol=1e-15)
    assert np.allclose(el[6], [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], atol=1e-15)
    assert np.allclose(el[7], np.diag([1, -1, 0]), atol=1e-15)
    assert np.allclose(el[8], np.diag([1, 1, -2]) / math.sqrt(3), atol=1e-15)


@pytest.mark.parametrize("d", range(2, 13))
def test_hermitian_traceless_orthogonal(d):
    el = gellmann_basis(d)
    assert np.max(np.abs(el - el.conj().transpose(0, 2, 1))) < 1e-12
    traces = np.einsum("iaa->i", el[1:])
    assert np.max(np.abs(traces)) < 1e-12
    flat = el[1:].reshape(d * d - 1, -1)
    gram = (flat @ flat.conj().T).real
    assert np.max(np.abs(gram - 2.0 * np.eye(d * d - 1))) < 1e-12


@pytest.mark.parametrize("d", range(2, 13))
def test_completeness_random_hermitian(d):
    rng = np.random.default_rng(100 + d)
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = h + h.conj().T
    el = gellmann_basis(d)
    coeffs = np.einsum("iab,ba->i", el, h)
    norms = np.einsum("iab,iba->i", el, el)
    rebuilt = np.einsum("i,iab->ab", coeffs / norms, el)
    assert np.max(np.abs(rebuilt - h)) < 1e-10


def test_gm_index_examples():
    assert gm_index(3, "symmetric", (1, 2)) == 3
    assert gm_index(3, "antisymmetric", (1, 2)) == 5
    assert gm_index(3, "diagonal", 2) == 8


@pytest.mark.parametrize("d", range(2, 13))
def test_gm_index_adjacent_pair_formulas(d):
    for k in range(1, d):
        assert gm_index(d, "symmetric", (k - 1, k)) == (2 * d * (k - 1) - k * k + k + 2) // 2
        assert gm_index(d, "antisymmetric", (k - 1, k)) == d * (d - 1) // 2 + k * (k - 1) // 2 + 1
        assert gm_index(d, "diagonal", k) == d * (d - 1) + k


def _indexed_elements(d):
    """Every pair and level with its kind, its ``gm_index`` and the matrix
    expected at that index."""
    found = []
    for i in range(d):
        for j in range(i + 1, d):
            expected = np.zeros((d, d), dtype=complex)
            expected[i, j] = expected[j, i] = 1.0
            found.append(("symmetric", gm_index(d, "symmetric", (i, j)), expected))
            expected = np.zeros((d, d), dtype=complex)
            expected[i, j], expected[j, i] = -1.0j, 1.0j
            found.append(("antisymmetric", gm_index(d, "antisymmetric", (i, j)), expected))
    for k in range(1, d):
        steps = np.array([1.0] * k + [-float(k)] + [0.0] * (d - 1 - k))
        expected = np.diag(math.sqrt(2.0 / (k * (k + 1))) * steps).astype(complex)
        found.append(("diagonal", gm_index(d, "diagonal", k), expected))
    return found


@pytest.mark.parametrize("d", range(2, 13))
def test_kind_counts(d):
    kinds = [kind for kind, _, _ in _indexed_elements(d)]
    assert kinds.count("symmetric") == d * (d - 1) // 2
    assert kinds.count("antisymmetric") == d * (d - 1) // 2
    assert kinds.count("diagonal") == d - 1


@pytest.mark.parametrize("d", range(2, 9))
def test_gm_index_locates_elements(d):
    """``gm_index`` maps the pairs and levels one-to-one onto 1 .. d^2-1, and
    each index locates the element of that kind."""
    el = gellmann_basis(d)
    found = _indexed_elements(d)
    assert sorted(idx for _, idx, _ in found) == list(range(1, d * d))
    for kind, idx, expected in found:
        assert np.array_equal(el[idx], expected), (kind, idx)


def test_gm_index_errors():
    with pytest.raises(ValueError):
        gm_index(3, "symmetric", (2, 1))
    with pytest.raises(ValueError):
        gm_index(3, "symmetric", (0, 3))
    with pytest.raises(ValueError):
        gm_index(3, "diagonal", 3)
    with pytest.raises(ValueError):
        gm_index(3, "diagonal", 0)
    with pytest.raises(ValueError):
        gm_index(3, "sideways", (0, 1))


def test_schwinger_pauli_limit():
    sx, sy, sz = schwinger_ops(2, "schwinger")
    assert np.allclose(sx, PAULI_X, atol=1e-15)
    assert np.allclose(sy, PAULI_Y, atol=1e-15)
    assert np.allclose(sz, PAULI_Z, atol=1e-15)


def test_spin_j_d3_frozen():
    sx, sy, sz = schwinger_ops(3, "spin_j")
    r = 1 / math.sqrt(2)
    assert np.allclose(sx, r * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]), atol=1e-15)
    assert np.allclose(sy, r * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]), atol=1e-15)
    assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]), atol=1e-15)


def test_schwinger_ops_are_shared_read_only_arrays():
    for d in (2, 5, 41):
        for convention in ("schwinger", "spin_j"):
            first = schwinger_ops(d, convention)
            again = schwinger_ops(np.int64(d), convention)
            assert all(a is b for a, b in zip(first, again))
            assert not any(a.flags.writeable for a in first)
    assert all(a is b for a, b in zip(schwinger_ops(3), schwinger_ops(3, "schwinger")))
    with pytest.raises(ValueError):
        schwinger_ops(1)
    with pytest.raises(ValueError):
        schwinger_ops(3, "holstein")


def test_schwinger_d4_sz():
    _, _, sz = schwinger_ops(4, "schwinger")
    assert np.allclose(sz, np.diag([3.0, 1.0, -1.0, -3.0]), atol=1e-15)


@pytest.mark.parametrize("d", range(2, 13))
def test_commutators(d):
    sx, sy, sz = schwinger_ops(d, "schwinger")
    assert np.max(np.abs(sx @ sy - sy @ sx - 2j * sz)) < 1e-10
    jx, jy, jz = schwinger_ops(d, "spin_j")
    assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-10
    assert np.max(np.abs(2.0 * jx - sx)) < 1e-14


def test_decomposition_printed_cases():
    dec = spin_gellmann_decomposition(3)
    r = 1 / math.sqrt(2)
    assert dec["x"] == [(1, pytest.approx(r)), (3, pytest.approx(r))]
    assert dec["y"] == [(4, pytest.approx(r)), (5, pytest.approx(r))]
    assert dec["z"] == [(7, pytest.approx(0.5)), (8, pytest.approx(math.sqrt(3) / 2))]
    assert spin_gellmann_decomposition(2)["z"] == [(3, pytest.approx(0.5))]


@pytest.mark.parametrize("d", range(2, 13))
def test_decomposition_sums_to_spin_j(d):
    dec = spin_gellmann_decomposition(d)
    el = gellmann_basis(d)
    for axis, target in zip("xyz", schwinger_ops(d, "spin_j")):
        total = np.zeros((d, d), dtype=complex)
        for idx, coeff in dec[axis]:
            total += coeff * el[idx]
        assert np.max(np.abs(total - target)) < 1e-12


def test_spin_identities_all_pass():
    errors = _spin_identity_errors()
    assert [name for name, _ in errors] == [f"M{m}" for m in range(1, 9)]
    assert max(err for _, err in errors) < 1e-12


def test_spin_identity_frozen_values():
    sx, sy, sz = schwinger_ops(3, "spin_j")
    m2 = sx @ sx - sy @ sy
    assert np.allclose(m2, [[0, 0, 1], [0, 0, 0], [1, 0, 0]], atol=1e-14)
    m7 = (sz + 2 * (sz @ sz) - sx @ sx - sy @ sy) / 2
    assert np.allclose(m7, np.diag([1.0, -1.0, 0.0]), atol=1e-14)


def test_project_traceless_matches_dense():
    rng = np.random.default_rng(3)
    for d in range(2, 10):
        el = gellmann_basis(d)
        # A bare matrix, as for the locals, and one with two trailing axes,
        # as for the two-point function of the tensor route.
        for shape in ((d, d), (d, d, d, d)):
            q = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            fast = project_traceless(q)
            dense = np.einsum("iab,ab...->i...", el[1:], q)
            assert fast.shape == (d * d - 1,) + shape[2:]
            assert np.max(np.abs(fast - dense)) < 1e-12, (d, shape)


@given(st.integers(min_value=2, max_value=9))
def test_basis_properties_hypothesis(d):
    el = gellmann_basis(d)
    assert el.shape == (d * d, d, d)
    assert np.max(np.abs(el - el.conj().transpose(0, 2, 1))) < 1e-12
    assert abs(np.trace(el[0] @ el[0]).real - 2.0 / (d - 1)) < 1e-12

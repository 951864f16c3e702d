"""Correlation-tensor entanglement identifiers for bipartite boson states.

For a state with coefficient matrix c in the |k) basis, the two-point
function over matrix units is q[a, b, m, n] = conj(c)[a, m] c[b, n], so
every joint expectation <M_i x M_j> is a sparse contraction of q against
the generators on each side.  The full (d^2-1) x (d^2-1) tensor therefore
costs O(d^4); no d^2 x d^2 density matrix is ever materialized.

The tensor entries carry the prefactor d / (2(d-1)), which normalizes pure
product states to unit tensor norm and unit leading singular value.  The
reported identifiers are the squared tensor norm, its largest singular
value, and their ratio; each exceeding one certifies entanglement.

Two routes lead to the identifiers:

* ``evaluate_many`` works from the Schmidt spectrum p of c, one d x d SVD.
  Local unitaries rotate the traceless coordinates orthogonally, so every
  identifier depends on p alone.  In the Schmidt basis the tensor is block
  diagonal: the (d-1) x (d-1) diagonal-generator block
  pref W diag(p) W^T, with W = ``basis.diagonal_weights(d)``, plus the
  entries +-2 pref sqrt(p_i p_j), two per pair i < j.
* ``tensor_identifiers`` builds the whole O(d^4) tensor by contracting q
  through ``basis.project_traceless``; the (d^2, d, d) basis itself is
  never built.  It returns the tensor keys of ``evaluate_many`` and both
  sides' Bloch lengths, and is the independent reference for them.
  ``correlation_tensor`` hands one state's tensor to the round trips and
  the product-overlap search.

Both routes work on a (G, d, d) stack of coefficient matrices, so a sweep or
a check passes a whole grid at once; one state is a stack of one
(``state.coeff[None]``), with the same bits as in any larger stack.
``correlation_tensor`` is the tensor route's stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import diagonal_weights, project_traceless, schwinger_ops
from .states import PureBipartiteState

__all__ = [
    "CorrelationTensor",
    "correlation_tensor",
    "tensor_identifiers",
    "spin_tensors",
    "evaluate_many",
]

_IMAG_TOL = 1e-10
_NORM_TOL = 1e-10
# Soundness margin for the boolean flags: separable states can land a few
# ulp above the bound, and a detector must not report those as positives.
_FLAG_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """Joint correlation block T_ij plus the two local expectation vectors."""

    d: int
    t: np.ndarray           # (d^2-1, d^2-1) real
    local_a: np.ndarray     # (d^2-1,) real, T_i0
    local_b: np.ndarray     # (d^2-1,) real, T_0j


def _require_normalized(coeffs: np.ndarray) -> np.ndarray:
    """Return a (G, d, d) coefficient stack once every state in it has unit norm."""
    nrm = np.linalg.norm(coeffs, axis=(1, 2))
    bad = np.flatnonzero(~(np.abs(nrm - 1.0) <= _NORM_TOL))  # NaN is off unit norm too
    if bad.size:
        raise ValueError(f"state is not normalized: |c| = {float(nrm[bad[0]])!r} at stack index {bad[0]}")
    return coeffs


def _real_guard(arr: np.ndarray) -> np.ndarray:
    resid = float(np.max(np.abs(arr.imag))) if arr.size else 0.0
    if resid > _IMAG_TOL:
        raise ValueError(f"expectation values acquired imaginary residue {resid:.3e}")
    return np.ascontiguousarray(arr.real)


def _joint_blocks(coeffs: np.ndarray) -> np.ndarray:
    """Joint blocks T of a (G, d, d) stack of normalized coefficient
    matrices, shape (G, d^2-1, d^2-1).

    The stack rides on the trailing axes of ``project_traceless``, so each
    state's numbers are those of a stack of one.
    """
    d = coeffs.shape[-1]
    pref = d / (2.0 * (d - 1.0))
    c = np.moveaxis(coeffs, 0, -1)                         # (d, d, G)
    q = np.einsum("amg,bng->abmng", c.conj(), c)
    x = project_traceless(q)                               # (d^2-1, d, d, G)
    y = project_traceless(np.moveaxis(x, (1, 2), (0, 1)))  # (j, i, G)
    return _real_guard(pref * y.transpose(2, 1, 0))


def _local_vectors(coeffs: np.ndarray) -> tuple:
    """Local vectors (T_i0, T_0j) of a (G, d, d) coefficient stack, each
    (G, d^2-1), from the two reduced states alone."""
    d = coeffs.shape[-1]
    pref = d / (2.0 * (d - 1.0))
    m0 = 1.0 / math.sqrt(d * (d - 1) / 2.0)
    c_h = coeffs.conj().transpose(0, 2, 1)
    rho_a = coeffs @ c_h
    rho_b_t = c_h @ coeffs            # transpose of the second reduced state
    local_a = _real_guard(pref * m0 * project_traceless(rho_a.transpose(2, 1, 0)).T)
    local_b = _real_guard(pref * m0 * project_traceless(np.moveaxis(rho_b_t, 0, -1)).T)
    return local_a, local_b


def correlation_tensor(state: PureBipartiteState) -> CorrelationTensor:
    """Correlation tensor of a normalized pure state.

    T_ij = d/(2(d-1)) <M_i x M_j> for i, j >= 1; the locals are the
    matching expectations against the scaled identity on the other side.
    """
    coeffs = _require_normalized(state.coeff[None])
    t = _joint_blocks(coeffs)[0]
    local_a, local_b = (a[0] for a in _local_vectors(coeffs))
    for a in (t, local_a, local_b):
        a.setflags(write=False)
    return CorrelationTensor(d=state.d, t=t, local_a=local_a, local_b=local_b)


def _bloch_lengths(coeffs: np.ndarray) -> tuple:
    """Squared local Bloch lengths (side A, side B) of a (G, d, d)
    coefficient stack, each (G,), from the locals alone.

    The Bloch vector is (d-1) times the local tensor entries, the unique
    scale under which pure product states have unit length.  A one-row
    matmul gives each length the bits of its own ``vec @ vec``.
    """
    d = coeffs.shape[-1]
    vecs = [(d - 1.0) * local for local in _local_vectors(coeffs)]
    return tuple((v[:, None, :] @ v[:, :, None])[:, 0, 0] for v in vecs)


def _tensor_columns(tn: np.ndarray, tm: np.ndarray) -> dict:
    """The tensor keys of ``evaluate_many`` from the squared norms and the
    largest singular values."""
    eps = tn / tm
    return {
        "t_norm": tn,
        "t_max": tm,
        "epsilon": eps,
        "entangled_by_norm": tn > 1.0 + _FLAG_TOL,
        "entangled_by_eps": eps > 1.0 + _FLAG_TOL,
    }


def tensor_identifiers(coeffs: np.ndarray) -> dict:
    """Tensor identifiers of a (G, d, d) stack of normalized coefficient
    matrices, from each state's whole O(d^4) tensor: the reference for
    ``evaluate_many``.

    Returns one length-G array per key: ``evaluate_many``'s ``t_norm`` (the
    squared Frobenius norm of the joint block, locals excluded), ``t_max``
    (its largest singular value), ``epsilon`` and the two flags, plus the
    Bloch lengths ``bloch_sq_a`` and ``bloch_sq_b`` of the two sides.  A
    normalized pure state has t_norm >= 1, so t_max never vanishes.
    """
    t = _joint_blocks(_require_normalized(coeffs))
    columns = _tensor_columns(np.sum(t * t, axis=(1, 2)), np.linalg.svd(t, compute_uv=False)[:, 0])
    columns["bloch_sq_a"], columns["bloch_sq_b"] = _bloch_lengths(coeffs)
    return columns


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Entropies in bits of the rows of a (G, d) stack of descending Schmidt
    weights.  Weights at or below 1e-15 count as zero, so one weight left is
    a product state: exactly zero, wherever that weight rounded to.  The
    floor keeps a p = s^2 that landed a few ulp above 1 from giving a tiny
    negative.  The kept weights are a prefix of each row; summing rows in
    groups of one prefix length keeps padding zeros out of a sum."""
    kept = np.count_nonzero(p > 1e-15, axis=1)
    bits = np.zeros(len(p))
    for k in set(kept[kept > 1].tolist()):
        rows = kept == k
        q = p[rows, :k]
        bits[rows] = np.maximum(0.0, -np.sum(q * np.log2(q), axis=1))
    return bits


def spin_tensors(coeffs: np.ndarray) -> np.ndarray:
    """Spin correlation matrices of a (G, d, d) stack of normalized
    coefficient matrices, shape (G, 3, 3): the correlations of the
    integer-spectrum spin components, scaled by 1/N^2 (N = d-1) so an
    x-polarized product pair gives unit xx entry."""
    _require_normalized(coeffs)
    n = coeffs.shape[-1] - 1
    mats = np.stack(schwinger_ops(n + 1, "schwinger"))
    left = coeffs.conj().transpose(0, 2, 1)[:, None] @ mats @ coeffs[:, None]
    raw = np.sum(left[:, :, None] * mats, axis=(-2, -1))
    return _real_guard(raw / float(n) ** 2)


def _spin_identifiers(tps: np.ndarray) -> tuple:
    """Squared norm, largest singular value and their ratio for each 3x3
    matrix of a (G, 3, 3) stack; all three are zero for a zero matrix."""
    norm = np.sum(tps * tps, axis=(1, 2))
    top = np.linalg.svd(tps, compute_uv=False)[:, 0]
    ratio = np.divide(norm, top, out=np.zeros_like(norm), where=top > 0.0)
    return norm, top, ratio


def evaluate_many(coeffs: np.ndarray) -> dict:
    """Evaluate every identifier on a (G, d, d) stack of coefficient
    matrices, from their Schmidt spectra.

    Returns one length-G array per key: ``t_norm`` (the squared norm of the
    joint block), ``t_max`` (its largest singular value), ``epsilon`` (their
    ratio), the flags ``entangled_by_norm`` and ``entangled_by_eps``,
    ``bloch_sq``, ``entropy`` (in bits), and ``spin_t_norm``,
    ``spin_t_max`` and ``spin_epsilon`` from ``spin_tensors``.  A single
    state is the stack ``state.coeff[None]``.

    With Schmidt coefficients s and p = s^2, the tensor's singular values
    are 2 pref s_i s_j (i < j, each twice) and the eigenvalues of the
    positive semidefinite diagonal-generator block.  The block's nonzero
    eigenvalues are those of
    2 pref (diag(p) - sqrt(p) sqrt(p)^T / d), whose largest Rayleigh
    quotient on the span of the two top Schmidt levels is at least
    2 pref s_1 s_2, with equality only at p_1 = p_2; so the block's top
    eigenvalue is t_max.  Both sides share one spectrum, so one Bloch
    length serves both.

    A state whose spin correlations all vanish exactly gets zero spin
    identifiers (the three-operator criterion detects nothing there).
    """
    _require_normalized(coeffs)
    d = coeffs.shape[-1]
    pref = d / (2.0 * (d - 1.0))
    s = np.linalg.svd(coeffs, compute_uv=False)
    p = s * s
    w = diagonal_weights(d)
    block = pref * (w * p[:, None]) @ w.T
    # The pair entries add 2 (2 pref)^2 sum_{i<j} p_i p_j = 4 pref^2 (1 - sum p^2).
    # A matmul forms sum p^2 with the bits of a 1-D dot product.
    sum_p2 = (p[:, None] @ p[:, :, None])[:, 0, 0]
    tn = np.sum(block * block, axis=(1, 2)) + 4.0 * pref * pref * (1.0 - sum_p2)
    tm = np.linalg.eigvalsh(block)[:, -1]
    if not np.all(tm > 0.0):
        raise ValueError("degenerate tensor: all joint correlations vanish")
    # Equals (d sum p^2 - 1)/(d - 1) but cannot come out negative.  Like the
    # traceless projection, centring on the mean ignores rounding in sum p,
    # so an equal-weight spectrum gives exactly zero.
    bloch = d / (d - 1.0) * np.sum((p - p.mean(axis=1, keepdims=True)) ** 2, axis=1)
    stn, stm, seps = _spin_identifiers(spin_tensors(coeffs))
    return {
        **_tensor_columns(tn, tm),
        "bloch_sq": bloch,
        "entropy": _entropy_bits(p),
        "spin_t_norm": stn,
        "spin_t_max": stm,
        "spin_epsilon": seps,
    }

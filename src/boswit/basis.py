"""Generalized Gell-Mann matrices and collective two-mode spin operators.

A single bosonic component with N particles in two modes is treated as one
(N+1)-level system in the occupation basis |k) = |N-k, k>.  This module
builds the Hermitian operator basis used for that system:

* flat index 0 holds the scaled identity M_0 = I / sqrt(d(d-1)/2);
* symmetric pair matrices E_ij + E_ji, pairs i < j in lexicographic order,
  occupy indices 1 .. d(d-1)/2;
* antisymmetric pair matrices -i E_ij + i E_ji follow, ordered by column j
  ascending and, inside one column, row i descending;
* the d-1 diagonal matrices sqrt(2/(k(k+1))) (sum_{m<k} E_mm - k E_kk)
  occupy the last slots.

This module is the one place that knows the enumeration: the pair order,
the diagonal weights (``diagonal_weights``) and the flat indices
(``gm_index``).  Everything it hands out is a plain read-only array:
``gellmann_basis(d)`` the (d^2, d, d) basis, ``schwinger_ops`` the tuple
(sx, sy, sz).  Both check their arguments first and then build once per
argument through a private cache, so a bad ``d`` is a ``ValueError`` and
never a cache key.  ``project_traceless`` contracts against the traceless
elements without building them.

Under this enumeration the three collective spin components of the two-mode
system expand over adjacent-pair matrices with closed-form flat indices; see
``gm_index`` and ``spin_gellmann_decomposition``.  At d = 3 the eight
generators are also polynomials in the spin-1 components; ``check
appendix`` reports how closely each one is rebuilt.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "diagonal_weights",
    "gellmann_basis",
    "gm_index",
    "schwinger_ops",
    "spin_gellmann_decomposition",
    "project_traceless",
]


def _check_dimension(d) -> int:
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    return int(d)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _pairs(d: int) -> tuple:
    """Row and column indices (i, j), i < j, of the symmetric pairs and of
    the antisymmetric pairs, each as a (2, d(d-1)/2) array in basis order."""
    sym = [(i, j) for i in range(d) for j in range(i + 1, d)]
    anti = [(i, j) for j in range(1, d) for i in range(j - 1, -1, -1)]
    return _read_only(np.array(sym).T), _read_only(np.array(anti).T)


def _level_weights(d: int) -> np.ndarray:
    """sqrt(2/(k(k+1))) for the diagonal levels k = 1 .. d-1."""
    k = np.arange(1, d)
    return np.sqrt(2.0 / (k * (k + 1.0)))


@lru_cache(maxsize=None)
def diagonal_weights(d: int) -> np.ndarray:
    """Diagonals of the d-1 diagonal generators, row k-1 for level k:
    sqrt(2/(k(k+1))) on levels below k and -k sqrt(2/(k(k+1))) on level k."""
    k = np.arange(1, d)
    steps = np.tri(d - 1, d) - k[:, None] * np.eye(d - 1, d, 1)
    return _read_only(_level_weights(d)[:, None] * steps)


def gellmann_basis(d: int) -> np.ndarray:
    """Read-only (d^2, d, d) operator basis for dimension ``d``, built once
    per dimension and shared."""
    return _gellmann_basis(_check_dimension(d))


@lru_cache(maxsize=None)
def _gellmann_basis(d: int) -> np.ndarray:
    elements = np.zeros((d * d, d, d), dtype=complex)
    elements[0] = np.eye(d) / math.sqrt(d * (d - 1) / 2.0)
    (si, sj), (ai, aj) = _pairs(d)
    sym = 1 + np.arange(si.size)
    elements[sym, si, sj] = 1.0
    elements[sym, sj, si] = 1.0
    anti = sym + si.size
    elements[anti, ai, aj] = -1.0j
    elements[anti, aj, ai] = 1.0j
    levels = np.arange(d)
    elements[d * (d - 1) + 1:, levels, levels] = diagonal_weights(d)
    return _read_only(elements)


def gm_index(d: int, kind: str, arg) -> int:
    """Flat index of a basis element from its kind and pair or level.

    Off-diagonal kinds take a 0-based pair (i, j) with i < j; the diagonal
    kind takes a level k in 1 .. d-1.  For adjacent pairs (k-1, k) the
    returned values reduce to

        symmetric      (2d(k-1) - k^2 + k + 2) / 2
        antisymmetric  d(d-1)/2 + k(k-1)/2 + 1
        diagonal       d(d-1) + k
    """
    d = _check_dimension(d)
    if kind == "diagonal":
        k = int(arg)
        if not 1 <= k <= d - 1:
            raise ValueError(f"diagonal level must be in 1..{d - 1}, got {arg!r}")
        return d * (d - 1) + k
    try:
        i, j = (int(arg[0]), int(arg[1]))
    except (TypeError, IndexError) as exc:
        raise ValueError(f"expected an index pair, got {arg!r}") from exc
    if not 0 <= i < j <= d - 1:
        raise ValueError(f"pair must satisfy 0 <= i < j <= {d - 1}, got {(i, j)}")
    if kind == "symmetric":
        return i * (d - 1) - i * (i - 1) // 2 + (j - i)
    if kind == "antisymmetric":
        return d * (d - 1) // 2 + j * (j - 1) // 2 + (j - i)
    raise ValueError(f"unknown basis kind {kind!r}")


def schwinger_ops(d: int, convention: str = "schwinger") -> tuple:
    """Read-only collective spin components (sx, sy, sz) in the
    |k) = |N-k, k> basis, N = d-1, shared per (d, convention).

    The ``schwinger`` convention has integer spectrum N-2k on the z
    component; ``spin_j`` divides every component by two, giving the
    standard spin-(N/2) matrices.
    """
    d = _check_dimension(d)
    if convention not in ("schwinger", "spin_j"):
        raise ValueError(f"unknown convention {convention!r}")
    return _schwinger_ops(d, convention)


@lru_cache(maxsize=None)
def _schwinger_ops(d: int, convention: str) -> tuple:
    k = np.arange(1, d)
    off = np.sqrt(k * (d - k)).astype(complex)
    sx = np.zeros((d, d), dtype=complex)
    sy = np.zeros((d, d), dtype=complex)
    sx[k - 1, k] = off
    sx[k, k - 1] = off
    sy[k - 1, k] = -1.0j * off
    sy[k, k - 1] = 1.0j * off
    sz = np.diag((d - 1) - 2.0 * np.arange(d)).astype(complex)
    if convention == "spin_j":
        sx, sy, sz = sx / 2.0, sy / 2.0, sz / 2.0
    return _read_only(sx), _read_only(sy), _read_only(sz)


def spin_gellmann_decomposition(d: int) -> dict:
    """Expansion of the spin-(N/2) components over the basis.

    Returns 'x', 'y', 'z' lists of (flat index, coefficient) pairs whose
    weighted sums reproduce ``schwinger_ops(d, "spin_j")`` exactly.
    """
    d = _check_dimension(d)
    x = []
    y = []
    z = []
    for k in range(1, d):
        c = 0.5 * math.sqrt(k * (d - k))
        x.append((gm_index(d, "symmetric", (k - 1, k)), c))
        y.append((gm_index(d, "antisymmetric", (k - 1, k)), c))
        z.append((gm_index(d, "diagonal", k), 0.5 * math.sqrt(k * (k + 1) / 2.0)))
    return {"x": x, "y": y, "z": z}


def _spin_identity_errors() -> list:
    """Entrywise errors of the eight d=3 generators rebuilt from spin-1 ops."""
    sx, sy, sz = schwinger_ops(3, "spin_j")
    r2 = math.sqrt(2.0)
    r3 = math.sqrt(3.0)
    built = {
        "M1": (sx + sx @ sz + sz @ sx) / r2,
        "M2": sx @ sx - sy @ sy,
        "M3": (sx - sx @ sz - sz @ sx) / r2,
        "M4": (sy + sy @ sz + sz @ sy) / r2,
        "M5": (sy - sy @ sz - sz @ sy) / r2,
        "M6": sx @ sy + sy @ sx,
        "M7": (sz + 2.0 * (sz @ sz) - sx @ sx - sy @ sy) / 2.0,
        # The squared-z term must enter negatively: the positive-sign
        # combination is not traceless and cannot equal a generator.
        "M8": (3.0 * sz - 2.0 * (sz @ sz) + sx @ sx + sy @ sy) / (2.0 * r3),
    }
    elements = gellmann_basis(3)
    out = []
    for m, (name, candidate) in enumerate(built.items(), start=1):
        err = float(np.max(np.abs(candidate - elements[m])))
        out.append((name, err))
    return out


def project_traceless(q: np.ndarray) -> np.ndarray:
    """Contract ``q`` against every traceless element along two leading axes.

    Returns out[i-1, ...] = sum_{ab} (M_i)_{ab} q[a, b, ...] for
    i = 1 .. d^2 - 1, in basis order, with d = q.shape[0].
    """
    d = q.shape[0]
    (si, sj), (ai, aj) = _pairs(d)
    idx, k, w = _diagonal_terms(d)
    sym = q[si, sj] + q[sj, si]
    anti = 1.0j * (q[aj, ai] - q[ai, aj])
    diag = q[idx, idx]
    csum = np.cumsum(diag, axis=0)
    extra = (1,) * (diag.ndim - 1)
    dia = w.reshape((-1,) + extra) * (csum[:-1] - k.reshape((-1,) + extra) * diag[1:])
    return np.concatenate([sym, anti, dia], axis=0)


@lru_cache(maxsize=None)
def _diagonal_terms(d: int) -> tuple:
    """Level indices 0 .. d-1, levels k = 1 .. d-1 and their weights, the
    per-d constants of ``project_traceless``'s diagonal block."""
    return _read_only(np.arange(d)), _read_only(np.arange(1, d)), _read_only(_level_weights(d))

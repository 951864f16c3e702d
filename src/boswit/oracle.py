"""Independent brute-force verifiers for the fast correlation pipeline.

Everything here recomputes a quantity through a second route: dense
expectation values over explicit operator pairs, density-matrix
reconstruction from a tensor, random product-state search against the
singular-value bound, and printed-formula reference evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import gellmann_basis, schwinger_ops
from .states import (
    PdcEnsemble,
    PureBipartiteState,
    bloch_length_closed,
    from_coefficients,
)
from .witness import CorrelationTensor, t_max

__all__ = [
    "OracleReport",
    "ProductSearchResult",
    "dense_correlation_tensor",
    "dense_spin_tensor",
    "reconstruct_density",
    "roundtrip_error",
    "product_overlap_search",
    "reference_closed_forms",
    "pdc_epsilon_average",
    "pure_entanglement_oracle",
    "random_product_state",
    "random_pure_state",
]

RECONSTRUCT_MAX_D = 12


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one verification check."""

    check_name: str
    max_abs_error: float
    passed: bool
    samples: int = 1
    search_gap: float | None = None

    def as_dict(self) -> dict:
        out = {
            "check_name": self.check_name,
            "max_abs_error": self.max_abs_error,
            "passed": self.passed,
            "samples": self.samples,
        }
        if self.search_gap is not None:
            out["search_gap"] = self.search_gap
        return out


@dataclass(frozen=True)
class ProductSearchResult:
    best: float
    gap: float
    samples: int


def dense_correlation_tensor(state: PureBipartiteState, elements: np.ndarray | None = None) -> CorrelationTensor:
    """Reference tensor from explicit expectations of every operator pair."""
    d = state.d
    if elements is None:
        elements = gellmann_basis(d)
    psi = state.coeff.reshape(-1)
    rho = np.outer(psi, psi.conj())
    pref = d / (2.0 * (d - 1.0))
    m = d * d - 1
    t = np.empty((m, m))
    local_a = np.empty(m)
    local_b = np.empty(m)
    for i in range(1, d * d):
        for j in range(1, d * d):
            op = np.kron(elements[i], elements[j])
            t[i - 1, j - 1] = pref * np.sum(rho * op.T).real
        op = np.kron(elements[i], elements[0])
        local_a[i - 1] = pref * np.sum(rho * op.T).real
        op = np.kron(elements[0], elements[i])
        local_b[i - 1] = pref * np.sum(rho * op.T).real
    return CorrelationTensor(d=d, t=t, local_a=local_a, local_b=local_b)


def dense_spin_tensor(state: PureBipartiteState) -> np.ndarray:
    """Reference 3x3 spin correlation matrix via explicit tensor products."""
    mats = schwinger_ops(state.d, "schwinger")
    psi = state.coeff.reshape(-1)
    rho = np.outer(psi, psi.conj())
    out = np.empty((3, 3))
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            out[i, j] = np.sum(rho * np.kron(a, b).T).real
    return out / float(state.n) ** 2


def reconstruct_density(tensor: CorrelationTensor) -> np.ndarray:
    """Assemble the density matrix encoded by a correlation tensor."""
    d = tensor.d
    if d > RECONSTRUCT_MAX_D:
        raise ValueError(f"dense reconstruction is limited to d <= {RECONSTRUCT_MAX_D}, got {d}")
    el = gellmann_basis(d)
    m0 = el[0]
    body = np.einsum("ij,iab,jcd->acbd", tensor.t, el[1:], el[1:])
    body = body + np.einsum("i,iab,cd->acbd", (d - 1.0) * tensor.local_a, el[1:], m0)
    body = body + np.einsum("j,ab,jcd->acbd", (d - 1.0) * tensor.local_b, m0, el[1:])
    rho = np.kron(m0, m0).astype(complex) + body.reshape(d * d, d * d)
    return (d - 1.0) / (2.0 * d) * rho


def roundtrip_error(state: PureBipartiteState, tensor: CorrelationTensor) -> float:
    """Max-abs distance between the reconstruction and the projector."""
    psi = state.coeff.reshape(-1)
    target = np.outer(psi, psi.conj())
    return float(np.max(np.abs(reconstruct_density(tensor) - target)))


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1.0j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _projectors(vecs: np.ndarray) -> np.ndarray:
    """Entries conj(x_a) x_b of each row x of ``vecs``, shape (n, 1, d*d).

    Each projector is its own one-row matrix, so ``@`` handles every start
    alone: a start's numbers do not depend on which other starts still run.
    """
    n, d = vecs.shape
    return (vecs.conj()[:, :, None] * vecs[:, None, :]).reshape(n, 1, d * d)


def product_overlap_search(tensor: CorrelationTensor, iterations: int = 50, seed: int = 0) -> ProductSearchResult:
    """Lower-bound the best product-tensor overlap against ``tensor``.

    Random product starts are refined by alternating exact one-side updates.
    With the second side fixed at the unit vector v, whose Bloch vector is
    s, the overlap pref * r.T.s is linear in the first side's Bloch vector
    r and is maximized by the top eigenvector u of A(v) = sum_i (T s)_i M_i.
    Both one-side operators come straight from the correlation operator

        K[a,b,c,e] = sum_ij T_ij (M_i)_ab (M_j)_ce,

    built once per call: A(v)_ab = sum_ce K_abce conj(v_c) v_e, and the
    second-side operator B(u)_ce = sum_ab K_abce conj(u_a) u_b is the same
    formula on K transposed as (c,e,a,b).  The top eigenvector of B(u) is
    the next v, and pref * lambda_max(B(u)) = pref * r.T.s is the overlap
    reached, so no Bloch vector is ever formed.

    All starts advance together: each half-step is one stacked ``eigh``
    over the starts still running.  A start stops once a step gains less
    than 1e-13, or after 60 steps, and keeps its value.  Each start draws
    u, then v, from one seeded stream (the drawn u is never used), so a
    larger ``iterations`` extends the same sequence of starts.  The result
    can never exceed the largest singular value; the remaining gap is
    reported.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations!r}")
    d = tensor.d
    flat = gellmann_basis(d)[1:].reshape(d * d - 1, d * d)
    # K with the pairs (ab) and (ce) flattened: A(v) = q(v) @ K.T and
    # B(u) = q(u) @ K for the flattened projector q(x) = conj(x_a) x_b.
    k_op = flat.T @ tensor.t @ flat
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(iterations):
        _random_unit(rng, d)
        starts.append(_random_unit(rng, d))
    v = np.array(starts)
    pref = d / (2.0 * (d - 1.0))
    vals = np.full(iterations, -math.inf)
    active = np.arange(iterations)
    for _ in range(60):
        u = np.linalg.eigh((_projectors(v[active]) @ k_op.T).reshape(-1, d, d))[1][:, :, -1]
        evals, evecs = np.linalg.eigh((_projectors(u) @ k_op).reshape(-1, d, d))
        new = pref * evals[:, -1]
        old = vals[active]
        done = new - old < 1e-13
        vals[active] = np.where(done, np.maximum(old, new), new)
        v[active] = evecs[:, :, -1]
        active = active[~done]
        if active.size == 0:
            break
    best = float(vals.max())
    bound = t_max(tensor)
    if best > bound + 1e-8:
        raise RuntimeError(
            f"product overlap {best!r} exceeded the singular-value bound {bound!r}"
        )
    return ProductSearchResult(best=best, gap=bound - best, samples=iterations)


def reference_closed_forms(family: str, n: int | None, parameter: float) -> dict:
    """Evaluate a printed reference formula for comparison runs."""
    tau = float(parameter)
    if family == "szsz_n1":
        if n not in (None, 1):
            raise ValueError(f"unsupported reference: szsz_n1 with N={n!r}")
        return {"t_norm": 1.0 + 2.0 * math.sin(2.0 * tau) ** 2, "t_max": 1.0}
    if family == "szsz_n2":
        if n not in (None, 2):
            raise ValueError(f"unsupported reference: szsz_n2 with N={n!r}")
        c = (
            53.0
            + 48.0 * math.cos(4.0 * tau)
            + 24.0 * math.cos(8.0 * tau)
            + 3.0 * math.cos(16.0 * tau)
        )
        return {"t_norm": 2.0 - c / 128.0, "t_max": 0.5 + math.sqrt(c / 2.0) / 16.0}
    if family == "spin_elements":
        if n is None or n < 1:
            raise ValueError(f"unsupported reference: spin_elements needs N >= 1, got {n!r}")
        cos2 = math.cos(2.0 * tau)
        return {
            "txx": cos2 ** (2 * n - 2),
            "tyz": cos2 ** (n - 1) * math.sin(2.0 * tau),
        }
    if family == "bloch_closed":
        if n is None or n < 1:
            raise ValueError(f"unsupported reference: bloch_closed needs N >= 1, got {n!r}")
        return {"bloch_sq": bloch_length_closed(n, tau)}
    raise ValueError(f"unsupported reference family {family!r}")


def pdc_epsilon_average(squeezing: float, n_trunc: int = 200) -> tuple:
    """Truncated series and closed form of the post-selected identifier mean.

    The vacuum outcome carries no correlations, so its identifier is the
    separable boundary value 1; every N >= 1 outcome contributes N + 2.
    """
    ens = PdcEnsemble.build(squeezing, n_trunc=n_trunc)
    n = np.arange(n_trunc + 1)
    eps_n = np.where(n == 0, 1.0, n + 2.0)
    series = float(ens.weights @ eps_n)
    ch = math.cosh
    k = float(squeezing)
    closed = (15.0 * ch(2 * k) + 6.0 * ch(4 * k) + ch(6 * k) - 6.0) / (16.0 * ch(k) ** 4)
    return series, closed


def pure_entanglement_oracle(state: PureBipartiteState) -> bool:
    """True iff the Schmidt rank of the coefficient matrix exceeds one."""
    svals = np.linalg.svd(state.coeff, compute_uv=False)
    return int(np.sum(svals > 1e-10)) > 1


def random_product_state(n: int, rng: np.random.Generator) -> PureBipartiteState:
    u = _random_unit(rng, n + 1)
    v = _random_unit(rng, n + 1)
    return from_coefficients(n, np.outer(u, v))


def random_pure_state(n: int, rng: np.random.Generator) -> PureBipartiteState:
    """Random state with Schmidt rank >= 2."""
    while True:
        raw = rng.standard_normal((n + 1, n + 1)) + 1.0j * rng.standard_normal((n + 1, n + 1))
        state = from_coefficients(n, raw)
        if pure_entanglement_oracle(state):
            return state

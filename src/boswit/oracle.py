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
from .states import PureBipartiteState, _row_norms, from_coefficients
from .witness import CorrelationTensor

__all__ = [
    "OracleReport",
    "dense_correlation_tensor",
    "dense_spin_tensor",
    "reconstruct_density",
    "roundtrip_error",
    "product_overlap_searches",
    "reference_closed_forms",
    "pure_entanglement_oracle",
    "random_product_state",
    "random_pure_state",
]

RECONSTRUCT_MAX_D = 12

# Momentum of the product-overlap search: before each A-half-step a start's
# second side moves on from v by this fraction of its last step.  Half a
# step cut the eigenproblems of ``check all`` by ~44%, and brought the best
# start of every job within 2e-11 of its fixed point inside the 60-step cap.
_MOMENTUM = 0.5


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
    # rho is (d-1)/(2d) sum_mn C_mn M_m x M_n over the whole basis, with
    # C_00 = 1, the scaled locals in row and column 0 and T in the rest.
    coeffs = np.empty((d * d, d * d))
    coeffs[0, 0] = 1.0
    coeffs[1:, 0] = (d - 1.0) * tensor.local_a
    coeffs[0, 1:] = (d - 1.0) * tensor.local_b
    coeffs[1:, 1:] = tensor.t
    flat = gellmann_basis(d).reshape(d * d, d * d)
    rho = (flat.T @ coeffs @ flat).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    return (d - 1.0) / (2.0 * d) * rho.reshape(d * d, d * d)


def roundtrip_error(state: PureBipartiteState, tensor: CorrelationTensor) -> float:
    """Max-abs distance between the reconstruction and the projector."""
    psi = state.coeff.reshape(-1)
    target = np.outer(psi, psi.conj())
    return float(np.max(np.abs(reconstruct_density(tensor) - target)))


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1.0j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _projectors(vecs: np.ndarray) -> np.ndarray:
    """Entries conj(x_a) x_b of each vector x along the last axis of
    ``vecs``, as one-row matrices: shape (..., 1, d*d).

    Each projector is its own one-row matrix, so ``@`` handles every start
    alone: a start's numbers do not depend on which other starts still run.
    """
    d = vecs.shape[-1]
    return (vecs.conj()[..., :, None] * vecs[..., None, :]).reshape(vecs.shape[:-1] + (1, d * d))


def product_overlap_searches(jobs, iterations: int) -> tuple:
    """Lower-bound the best product-tensor overlap of each ``(tensor, seed)``
    job with ``iterations`` random starts.

    Returns two float arrays in job order: ``best``, the overlap reached,
    and ``gap``, the tensor's largest singular value minus ``best``.  A job's
    best can never exceed that singular value.  Each job's numbers do not
    depend on the other jobs; one search is a list of one job.

    Random product starts are refined by alternating exact one-side updates.
    With the second side fixed at the unit vector v, whose Bloch vector is
    s, the overlap pref * r.T.s is linear in the first side's Bloch vector
    r and is maximized by the top eigenvector u of A(v) = sum_i (T s)_i M_i.
    Both one-side operators come straight from the correlation operator

        K[a,b,c,e] = sum_ij T_ij (M_i)_ab (M_j)_ce,

    built once per job: A(v)_ab = sum_ce K_abce conj(v_c) v_e, and the
    second-side operator B(u)_ce = sum_ab K_abce conj(u_a) u_b is the same
    formula on K transposed as (c,e,a,b).  The top eigenvector of B(u) is
    the next v, and pref * lambda_max(B(u)) = pref * r.T.s is the overlap
    reached, so no Bloch vector is ever formed.

    The plain alternation converges linearly, so from its second step on a
    start extrapolates: its A-step is solved at

        ext = normalize(v + beta (v - phi v_prev)),   beta = _MOMENTUM,

    where v_prev is the v of the step before and the phase
    phi = <v_prev, v> / |<v_prev, v>| (1 if the overlap is 0) lines it up
    with v.  If pref * lambda_max(A(ext)), the overlap reached at ext,
    falls below the start's value, that start's A-step is solved again from
    the plain v, so no step loses value.

    Every start of every job of one dimension advances together: each
    half-step is one stacked ``eigh`` over the starts still running, and the
    plain A-steps solved again are one more.  A start stops once a step
    gains less than 1e-13, or after 60 steps, and keeps its value; its
    numbers do not depend on the other starts in the stack.  Each start
    draws u, then v, from its job's seeded stream (the drawn u is never
    used), so a larger ``iterations`` extends the same sequence of starts.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations!r}")
    jobs = list(jobs)
    best = np.empty(len(jobs))
    for d in sorted({tensor.d for tensor, _ in jobs}):
        idx = [i for i, (tensor, _) in enumerate(jobs) if tensor.d == d]
        best[idx] = _lockstep_search([jobs[i] for i in idx], d, iterations)
    bound = np.array([np.linalg.svd(tensor.t, compute_uv=False)[0] for tensor, _ in jobs])
    over = np.flatnonzero(best > bound + 1e-8)
    if over.size:
        i = over[0]
        raise RuntimeError(
            f"product overlap {best[i].item()!r} exceeded the singular-value bound {bound[i].item()!r}"
        )
    return best, bound - best


def _lockstep_search(jobs: list, d: int, iterations: int) -> np.ndarray:
    """Best overlap of each job of dimension ``d``, all starts in lockstep."""
    flat = gellmann_basis(d)[1:].reshape(d * d - 1, d * d)
    # K with the pairs (ab) and (ce) flattened: A(v) = q(v) @ K.T and
    # B(u) = q(u) @ K for the flattened projector q(x) = conj(x_a) x_b.
    # Built job by job: one stacked product holds three temporaries the
    # size of the whole stack, which showed in the peak RSS of check all.
    k_op = np.empty((len(jobs), 1, d * d, d * d), dtype=complex)
    for k, (tensor, _) in zip(k_op, jobs):
        k[0] = flat.T @ tensor.t @ flat
    # Per start: the real and imaginary parts of u, then of v, the draws
    # of two ``_random_unit`` calls.
    draws = np.stack([np.random.default_rng(seed).standard_normal((iterations, 2, 2, d)) for _, seed in jobs])
    v = draws[:, :, 1, 0] + 1.0j * draws[:, :, 1, 1]
    v /= _row_norms(v)[..., None]
    v_prev = v.copy()
    pref = d / (2.0 * (d - 1.0))
    vals = np.full((len(jobs), iterations), -math.inf)
    running = np.ones(vals.shape, dtype=bool)
    for step in range(60):
        # Each job's K is broadcast over its starts, not copied to each; the
        # finished jobs leave the stack, the finished starts of the others
        # are dropped before the eigenproblems.
        live = np.flatnonzero(running.any(axis=1))
        k_live = k_op if live.size == len(jobs) else k_op[live]
        act = running[live]
        rows, cols = np.nonzero(act)
        at = (live[rows], cols)
        old = vals[at]
        k_t = k_live.swapaxes(-1, -2)
        x = v[live]
        if step:
            x = _extrapolate(x, v_prev[live])
        lam, u = np.linalg.eigh((_projectors(x) @ k_t)[act].reshape(-1, d, d))
        u = u[:, :, -1]
        # pref * lambda_max(A(ext)) is the overlap at (u, ext).  Where it
        # fell below the start's value, the A-step is solved again from the
        # plain v, which can never lose value.
        low = pref * lam[:, -1] < old
        if low.any():
            a_plain = (_projectors(v[live]) @ k_t)[act][low]
            u[low] = np.linalg.eigh(a_plain.reshape(-1, d, d))[1][:, :, -1]
        x[act] = u
        evals, evecs = np.linalg.eigh((_projectors(x) @ k_live)[act].reshape(-1, d, d))
        new = pref * evals[:, -1]
        done = new - old < 1e-13
        vals[at] = np.where(done, np.maximum(old, new), new)
        v_prev[at] = v[at]
        v[at] = evecs[:, :, -1]
        running[at] = ~done
        if not running.any():
            break
    return vals.max(axis=1)


def _extrapolate(v: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """normalize(v + beta (v - phi prev)) for each row, where the phase
    phi = <prev, v> / |<prev, v>| (1 where the overlap is 0) lines the
    previous vector up with v."""
    overlap = (prev.conj()[..., None, :] @ v[..., :, None])[..., 0, 0]
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0)
    ext = v + _MOMENTUM * (v - phase[..., None] * prev)
    return ext / _row_norms(ext)[..., None]


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
    raise ValueError(f"unsupported reference family {family!r}")


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

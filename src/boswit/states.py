"""State families for two separated ensembles of N two-mode bosons.

Every state is stored as a complex (N+1) x (N+1) coefficient matrix c_kl in
the per-component occupation basis |k) = |N-k, k>, normalized to unit
Frobenius norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PureBipartiteState",
    "AcStarkOutcome",
    "PdcEnsemble",
    "from_coefficients",
    "maximally_entangled",
    "szsz_state",
    "szsz_coefficients",
    "acstark_state",
    "acstark_coefficients",
    "default_photon_outcomes",
    "pdc_weight",
    "bloch_length_closed",
    "bloch_closed_coefficients",
    "catalan",
    "TAU_PERIOD",
]

# The z-z interaction repeats after this phase.
TAU_PERIOD = math.pi / 2.0

_EXACT_BINOM_LIMIT = 60

# Largest pair number of a post-selected ensemble, and the largest
# probability that truncation may leave out.
_PDC_N_TRUNC = 200
_PDC_TAIL_TOL = 1e-8


def _check_n(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"boson number per component must be an integer >= 1, got {n!r}")
    return int(n)


def _binom(n: int, k: int) -> float:
    if n <= _EXACT_BINOM_LIMIT:
        return float(math.comb(n, k))
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))


def _half_binom_row(n: int) -> np.ndarray:
    """Amplitudes sqrt(binom(n, k)) / 2^(n/2) for k = 0 .. n."""
    return np.array([math.sqrt(_binom(n, k)) for k in range(n + 1)]) / 2.0 ** (n / 2.0)


def catalan(n: int) -> int:
    """Catalan number, exact integer arithmetic."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ValueError(f"catalan is defined for integers n >= 0, got {n!r}")
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True, eq=False)
class PureBipartiteState:
    """Normalized pure state of two components with N bosons each."""

    n: int
    coeff: np.ndarray
    source_norm: float = 1.0    # Euclidean norm of the raw input matrix

    @property
    def d(self) -> int:
        return self.n + 1


@dataclass(frozen=True, eq=False)
class AcStarkOutcome:
    """Post-measurement state for one photon-count outcome (n_c, n_d)."""

    n: int
    t: float
    n_c: int
    n_d: int
    state: PureBipartiteState
    norm_weight: float          # squared norm of the projected amplitudes


@dataclass(frozen=True, eq=False)
class PdcEnsemble:
    """Pair-number distribution of a bright squeezed vacuum source."""

    squeezing: float
    weights: np.ndarray         # p_N for N = 0 .. n_trunc
    n_trunc: int

    @classmethod
    def build(cls, squeezing: float):
        w = pdc_weight(np.arange(_PDC_N_TRUNC + 1), squeezing)
        tail = 1.0 - float(w.sum())
        if tail > _PDC_TAIL_TOL:
            raise ValueError(
                f"truncation at N={_PDC_N_TRUNC} leaves probability {tail:.3e} > {_PDC_TAIL_TOL:.1e}"
                f" at squeezing {squeezing!r}"
            )
        w.setflags(write=False)
        return cls(squeezing=float(squeezing), weights=w, n_trunc=_PDC_N_TRUNC)


def from_coefficients(n: int, raw) -> PureBipartiteState:
    """Normalize a raw (N+1) x (N+1) coefficient matrix into a state."""
    n = _check_n(n)
    raw = np.asarray(raw, dtype=complex)
    if raw.shape != (n + 1, n + 1):
        raise ValueError(
            f"coefficient matrix for N={n} must have shape {(n + 1, n + 1)}, got {raw.shape}"
        )
    coeff, norms = _normalized(raw[np.newaxis])
    return PureBipartiteState(n=n, coeff=coeff[0], source_norm=float(norms[0]))


def maximally_entangled(n: int) -> PureBipartiteState:
    """Equal-weight diagonal state c_kl = delta_kl / sqrt(N+1)."""
    n = _check_n(n)
    return from_coefficients(n, np.eye(n + 1))


def szsz_state(n: int, tau: float) -> PureBipartiteState:
    """Two x-polarized components entangled by a z-z phase interaction.

    c_kl = 2^-N sqrt(binom(N,k) binom(N,l)) exp(-i (N-2k)(N-2l) tau); the
    interaction phase is reduced modulo pi/2.
    """
    n = _check_n(n)
    return from_coefficients(n, _szsz_raw(n, float(tau) % TAU_PERIOD))


def szsz_coefficients(n: int, taus) -> np.ndarray:
    """Read-only (G, N+1, N+1) stack of ``szsz_state(n, tau).coeff`` for
    the G phases ``taus``, bit for bit."""
    n = _check_n(n)
    taus = np.asarray(taus, dtype=float).reshape(-1, 1, 1) % TAU_PERIOD
    return _normalized(_szsz_raw(n, taus))[0]


def _szsz_raw(n: int, tau):
    """Raw amplitudes of ``szsz_state`` at the reduced phase ``tau``, a
    float or a (G, 1, 1) array of phases."""
    w = _half_binom_row(n)
    m = n - 2.0 * np.arange(n + 1)
    return np.outer(w, w) * np.exp(-1.0j * np.outer(m, m) * tau)


def _normalized(raw: np.ndarray) -> tuple:
    """Read-only unit-norm copy of a (G, d, d) stack of coefficient
    matrices, and the G norms of the raw matrices.

    Each matrix is divided by its own ``np.linalg.norm``, bit for bit.
    """
    norms = _row_norms(raw.reshape(len(raw), -1))
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(f"coefficient matrix {bad[0]} of the stack has non-finite norm {norms[bad[0]]}")
    if np.any(norms < 1e-150):
        raise ValueError("degenerate state: coefficient matrix has zero norm")
    coeff = raw / norms[:, None, None]
    coeff.setflags(write=False)
    return coeff, norms


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (last axis) of a complex array.

    Each norm is sqrt(re.re + im.im) from one-row matmuls, which numpy runs
    as the dot products of ``np.linalg.norm``: a row gets the bits of its
    own ``np.linalg.norm`` call, whatever else is in the stack.
    """
    re = x.real[..., None, :]
    im = x.imag[..., None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def default_photon_outcomes(n: int) -> tuple:
    """Central photon-count outcome pair (floor(N/2), N - floor(N/2))."""
    n = _check_n(n)
    n_c = n // 2
    return n_c, n - n_c


def acstark_state(n: int, t: float, n_c: int, n_d: int) -> AcStarkOutcome:
    """Two-component state after a shared dispersive light coupling of
    duration ``t`` followed by counting n_c and n_d photons in the two
    polarization outputs: ``acstark_coefficients`` at the one time ``t``.
    """
    t = float(t)
    raw, weights = _acstark_raw(n, [t], n_c, n_d)
    state = from_coefficients(n, raw[0])
    return AcStarkOutcome(
        n=state.n, t=t, n_c=int(n_c), n_d=int(n_d), state=state, norm_weight=float(weights[0])
    )


def acstark_coefficients(n: int, times, n_c: int, n_d: int) -> tuple:
    """Post-measurement states for the outcome (n_c, n_d) at the G coupling
    durations ``times``: a read-only (G, N+1, N+1) stack of normalized
    coefficients and the G probability weights.

    The unnormalized amplitudes are
    2^-N sqrt(binom(N,k1) binom(N,k2)) (-1)^k2 sin(xi)^n_c cos(xi)^n_d with
    xi = 2 t (k1 + k2 - N) + pi/4; a weight is their squared norm.
    """
    raw, weights = _acstark_raw(n, times, n_c, n_d)
    return _normalized(raw)[0], weights


def _acstark_raw(n: int, times, n_c: int, n_d: int) -> tuple:
    """Complex raw amplitudes of ``acstark_coefficients``, and the weights."""
    n = _check_n(n)
    for label, value in (("n_c", n_c), ("n_d", n_d)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{label} must be a non-negative integer, got {value!r}")
    times = np.asarray(times, dtype=float).reshape(-1, 1, 1)
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise ValueError(f"coupling time must be finite, got t={float(times.flat[bad[0]])}")
    w = _half_binom_row(n)
    k = np.arange(n + 1)
    xi = 2.0 * times * (np.add.outer(k, k) - n) + math.pi / 4.0
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    amps = np.outer(w, w) * signs[np.newaxis, :]
    amps = amps * np.sin(xi) ** n_c * np.cos(xi) ** n_d
    weights = np.sum(np.abs(amps) ** 2, axis=(1, 2))
    bad = np.flatnonzero(weights < 1e-300)
    if bad.size:
        raise ValueError(
            "degenerate outcome: all amplitudes vanish for "
            f"(t, n_c, n_d)=({float(times.flat[bad[0]])}, {n_c}, {n_d})"
        )
    return amps.astype(complex), weights


def _cosh4(squeezing: float) -> float:
    """cosh(squeezing)^4, the normalizer of the pair-number distribution."""
    if not 0.0 < squeezing < math.inf:
        raise ValueError(f"squeezing must be positive and finite, got {squeezing!r}")
    try:
        return math.cosh(squeezing) ** 4
    except OverflowError:
        raise ValueError(f"squeezing {squeezing!r} is too large: cosh(squeezing)^4 overflows") from None


def pdc_weight(n, squeezing) -> np.ndarray:
    """Probability (N+1) tanh(K)^(2N) / cosh(K)^4 of post-selecting N photon
    pairs at squeezing K; broadcasts over arrays of pair numbers and of
    squeezings."""
    n = np.asarray(n)
    if n.dtype.kind not in "iu" or np.any(n < 0):
        raise ValueError(f"pair number must be an integer >= 0, got {n.tolist()!r}")
    # tanh and cosh come from math, one squeezing at a time: numpy's
    # vectorized versions differ from them in the last bit.
    k = np.asarray(squeezing, dtype=float)
    ks = k.ravel().tolist()
    cosh4 = np.reshape([_cosh4(x) for x in ks], k.shape)
    tanh = np.reshape([math.tanh(x) for x in ks], k.shape)
    # Every point gets its own exponent: under a scalar exponent 2, numpy
    # squares the base, which can differ from its pow in the last bit.
    twice_n = np.full(np.broadcast_shapes(n.shape, k.shape), 2 * n)
    return (n + 1) * tanh ** twice_n / cosh4


def bloch_closed_coefficients(n: int) -> tuple:
    """Constant term and cosine-power coefficients of the squared Bloch
    length of ``szsz_state`` as a function of the interaction phase.

    Returns (b0, [b_1 .. b_N]) with
    b_l = 2 Cat(N) (N+1) prod_{i=2..l}(N-i+1) / (4^N prod_{i=2..l}(N+i))
    and b0 = (N+1)^2 Cat(N) / (4^N N) - 1/N; all products are exact integer
    arithmetic before the final division.
    """
    n = _check_n(n)
    cat = catalan(n)
    four_n = 4 ** n
    b0 = float((n + 1) ** 2 * cat) / float(four_n * n) - 1.0 / n
    num = 2 * cat * (n + 1)
    den = four_n
    coeffs = []
    for l in range(1, n + 1):
        if l >= 2:
            num *= n - l + 1
            den *= n + l
        coeffs.append(float(num) / float(den))
    return b0, coeffs


def bloch_length_closed(n: int, tau: float) -> float:
    """Squared local Bloch length of ``szsz_state(n, tau)``, closed form."""
    b0, coeffs = bloch_closed_coefficients(n)
    tau = float(tau)
    total = b0
    for l, b in enumerate(coeffs, start=1):
        total += b * math.cos(2.0 * l * tau) ** (2 * n)
    return total

"""Entanglement measures for two-mode states.

Pure states are handled through the singular values of the amplitude matrix
phi (the squared singular values are the Schmidt spectrum, i.e. the
eigenvalues of either reduced density matrix); mixed states go through the
partial transpose of the 4-index density matrix rho[m1, m2, n1, n2].
Entropies are in bits (log base 2).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "entanglement_entropy",
    "log_negativity",
    "partial_transpose",
    "pure_state_log_negativity",
    "pure_to_density",
    "schmidt_spectrum",
    "von_neumann_entropy",
]

# Schmidt weights below this are pure roundoff; 0*log(0) -> 0.
_ENTROPY_FLOOR = 1e-15
# eigenvalue magnitudes below this are dropped from the trace norm
_TRACE_NORM_FLOOR = 1e-12


def schmidt_spectrum(phi: np.ndarray) -> np.ndarray:
    """Squared singular values of phi, descending; one row per matrix for a
    (T, d, d) stack."""
    s = np.linalg.svd(np.asarray(phi, dtype=complex), compute_uv=False)
    return s * s


def von_neumann_entropy(lambdas: np.ndarray) -> float | np.ndarray:
    """-sum(lam * log2 lam) over each spectrum, the last axis, divided by its
    sum, skipping the 0*log(0) limit; NaN for a spectrum that is not finite.

    A float for one spectrum, an array for a (..., d) stack.  Schmidt weights
    of a unit vector sum to 1, so dividing makes the leading weight of a
    rank-1 spectrum exactly 1.  The result is clipped at 0 (also turning -0.0
    into 0.0).
    """
    lam = np.asarray(lambdas, dtype=float)
    total = lam.sum(axis=-1, keepdims=True)  # not finite when any weight is not
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = lam / total
        terms = np.where(lam > _ENTROPY_FLOOR, lam * np.log2(lam), 0.0)
    entropy = np.maximum(0.0, 0.0 - terms.sum(axis=-1))  # 0.0 - 0.0 is +0.0, -(0.0) is not
    entropy = np.where(np.isfinite(total[..., 0]), entropy, np.nan)
    return float(entropy) if entropy.ndim == 0 else entropy


def entanglement_entropy(phi: np.ndarray) -> float | np.ndarray:
    """Entropy of entanglement (ebits) of a pure two-mode amplitude matrix;
    one per matrix, from one batched SVD, for a (T, d, d) stack."""
    return von_neumann_entropy(schmidt_spectrum(phi))


def pure_to_density(phi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix rho[m1,m2,n1,n2] = phi[m1,m2] * conj(phi[n1,n2]),
    of shape (d1, d2, d1, d2) for a (d1, d2) phi."""
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 2:
        raise ValueError(f"phi must be a (d1, d2) matrix, got shape {phi.shape}")
    v = phi.reshape(-1)
    return np.outer(v, v.conj()).reshape(phi.shape * 2)


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose mode c of rho[m1,m2,n1,n2], swapping (m1, n1).  An
    involution; the result is Hermitian but in general not positive.  The
    transpose of mode d is its full transpose, so both have one spectrum."""
    return np.ascontiguousarray(np.swapaxes(rho, 0, 2))


def _flatten(rho: np.ndarray) -> np.ndarray:
    d1, d2 = rho.shape[0], rho.shape[1]
    return rho.reshape(d1 * d2, d1 * d2)


def log_negativity(rho: np.ndarray) -> float:
    """log2 of the trace norm of the partial transpose, clipped at 0.

    For a Hermitian operator the trace norm is the sum of absolute
    eigenvalues; magnitudes below 1e-12 are discarded as roundoff.  NaN when
    rho or the eigenvalues are not finite.
    """
    flat = _flatten(partial_transpose(rho))
    if not np.isfinite(flat).all():
        return math.nan
    eig = np.linalg.eigvalsh(flat)
    if not np.isfinite(eig).all():
        return math.nan
    mags = np.abs(eig)
    trace_norm = float(mags[mags > _TRACE_NORM_FLOOR].sum())
    if trace_norm <= 0.0:
        return 0.0
    return max(float(np.log2(trace_norm)), 0.0)


def pure_state_log_negativity(phi: np.ndarray) -> float:
    """Closed form for pure states: E_N = 2 * log2(sum of singular values)."""
    s = np.linalg.svd(np.asarray(phi, dtype=complex), compute_uv=False)
    return max(float(2.0 * np.log2(s.sum())), 0.0)

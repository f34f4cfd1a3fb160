"""Zero-temperature photon loss on the two output modes.

Each mode decays independently with rate gamma_j; in the Fock basis the
damped density matrix has the closed form

    <m1,m2|rho(tau)|n1,n2> = sum_{p1,p2} R_1 R_2
                             <m1+p1, m2+p2|rho(0)|n1+p1, n2+p2>,
    R_j = C(m_j+p_j, p_j)^(1/2) * C(n_j+p_j, p_j)^(1/2)
          * (1 - exp(-2*g_j))^(p_j) * exp(-g_j*(m_j+n_j)),   g_j = gamma_j*tau,

exact on a truncated basis because every p-sum terminates at the cutoff.
Free mode rotations are local unitaries that cannot move any entanglement
quantity computed downstream, so they are omitted.  Mode 1 is output mode c,
mode 2 is mode d.

The sum factorizes per mode, so ``damp`` applies one precomputed transfer
matrix per mode on the paired row/column index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .entanglement import log_negativity, pure_to_density
from .fock import DEFAULT_DIM_CAP, check_dim_cap

__all__ = [
    "ChannelParams",
    "damp",
    "negativity_decay_curve",
]

@dataclass(frozen=True)
class ChannelParams:
    """Coupling rates of modes c and d to their environments (inverse time)."""

    gamma1: float = 0.1
    gamma2: float = 0.1

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("coupling rates must be >= 0")


def _mode_transfer(dim: int, g: float) -> np.ndarray:
    """Single-mode loss map as a matrix over the paired index (m, n):

    T[(m,n), (m+p, n+p)] = R(m, n, p) for the g = gamma*tau product above.
    """
    if g == 0.0:
        return np.eye(dim * dim)
    lgfact = gammaln(np.arange(dim) + 1.0)
    log_loss = math.log(-math.expm1(-2.0 * g))  # ln(1 - exp(-2g))
    out = np.zeros((dim * dim, dim * dim))
    for p in range(dim):
        m = np.arange(dim - p)
        logc = 0.5 * (lgfact[m + p] - lgfact[p] - lgfact[m])
        w = np.exp(
            logc[:, None] + logc[None, :] + p * log_loss - g * (m[:, None] + m[None, :])
        )
        rows = (m[:, None] * dim + m[None, :]).ravel()
        cols = ((m[:, None] + p) * dim + (m[None, :] + p)).ravel()
        out[rows, cols] = w.ravel()
    return out


def damp(
    rho: np.ndarray,
    tau: float,
    params: ChannelParams = ChannelParams(),
    dim_cap: int = DEFAULT_DIM_CAP,
) -> np.ndarray:
    """Apply the loss channel for time tau to rho[m1, m2, n1, n2].

    Trace preserving, Hermiticity preserving, completely positive, and a
    semigroup in tau (damping for tau_a then tau_b equals tau_a + tau_b).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 4 or len(set(rho.shape)) != 1:
        raise ValueError(f"rho must be a 4-index array with equal dims, got {rho.shape}")
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    d = rho.shape[0]
    check_dim_cap(d * d, dim_cap, "two-mode density matrix")
    t1 = _mode_transfer(d, params.gamma1 * tau)
    t2 = t1 if params.gamma2 == params.gamma1 else _mode_transfer(d, params.gamma2 * tau)
    paired = rho.transpose(0, 2, 1, 3).reshape(d * d, d * d)  # [(m1,n1), (m2,n2)]
    paired = t1 @ paired
    paired = paired @ t2.T
    return paired.reshape(d, d, d, d).transpose(0, 2, 1, 3)


def negativity_decay_curve(
    phi: np.ndarray,
    gamma_tau_values,
    params: ChannelParams = ChannelParams(),
    dim_cap: int = DEFAULT_DIM_CAP,
) -> list[tuple[float, float]]:
    """Log negativity of the damped state at each gamma*tau on the grid.

    The abscissa is gamma1 * tau (the paper-style axis; with equal couplings
    it is the common gamma*tau).  The dimension check runs before any work so
    infeasible inputs fail fast.
    """
    phi = np.asarray(phi, dtype=complex)
    check_dim_cap(phi.shape[0] ** 2, dim_cap, "two-mode density matrix")
    gamma_tau_values = [float(g) for g in gamma_tau_values]
    if any(g > 0 for g in gamma_tau_values) and params.gamma1 <= 0:
        raise ValueError("gamma1 must be > 0 to reach gamma_tau > 0")
    rho0 = pure_to_density(phi)
    curve = []
    for g in gamma_tau_values:
        tau = g / params.gamma1 if g > 0 else 0.0
        curve.append((g, log_negativity(damp(rho0, tau, params, dim_cap))))
    return curve

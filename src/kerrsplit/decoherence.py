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

The sum factorizes per mode, and each factor is that mode's amplitude-damping
Kraus sum (Nielsen & Chuang, section 8.3.5): R_j = a_p[m_j] * a_p[n_j] with
a_p[m] = C(m+p, p)^(1/2) * (1 - exp(-2g))^(p/2) * exp(-g*m).  ``damp`` runs
it on mode c, then on mode d, each as one weighted, shifted slice addition
per p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .entanglement import log_negativity, pure_to_density
from .fock import DEFAULT_DIM_CAP, check_dim_cap, check_real

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
        for name in ("gamma1", "gamma2"):
            if check_real(name, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")


def _damp_mode(rho: np.ndarray, g: float, axes: tuple[int, int]) -> np.ndarray:
    """One mode's Kraus sum over its (row, column) ``axes`` of rho:

    rho[..m..n..] <- sum_p a_p[m] a_p[n] rho[..m+p..n+p..], for g = gamma*tau.
    """
    if g == 0.0:
        return rho
    d = rho.shape[0]
    lgfact = gammaln(np.arange(d) + 1.0)
    log_loss = math.log(-math.expm1(-2.0 * g))  # ln(1 - exp(-2g))
    src = np.moveaxis(rho, axes, (0, 1))
    out = np.zeros(src.shape, dtype=complex)
    for p in range(d):
        m = np.arange(d - p)
        a = np.exp(0.5 * (lgfact[m + p] - lgfact[p] - lgfact[m] + p * log_loss) - g * m)
        out[: d - p, : d - p] += np.outer(a, a)[:, :, None, None] * src[p:, p:]
    return np.moveaxis(out, (0, 1), axes)


def damp(
    rho: np.ndarray,
    tau: float,
    params: ChannelParams = ChannelParams(),
    dim_cap: int = DEFAULT_DIM_CAP,
) -> np.ndarray:
    """Apply the loss channel for time tau to rho[m1, m2, n1, n2].

    Trace preserving, Hermiticity preserving, completely positive, and a
    semigroup in tau (damping for tau_a then tau_b equals tau_a + tau_b).
    Returns a new array, also at tau = 0.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 4 or len(set(rho.shape)) != 1:
        raise ValueError(f"rho must be a 4-index array with equal dims, got {rho.shape}")
    if check_real("tau", tau) < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    check_dim_cap(rho.shape[0] ** 2, dim_cap, "two-mode density matrix")
    out = _damp_mode(_damp_mode(rho, params.gamma1 * tau, (0, 2)), params.gamma2 * tau, (1, 3))
    return out.copy() if out is rho else out


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
    for g in gamma_tau_values:
        if check_real("gamma_tau", g) < 0:
            raise ValueError(f"gamma_tau must be >= 0, got {g}")
    if any(g > 0 for g in gamma_tau_values) and params.gamma1 <= 0:
        raise ValueError("gamma1 must be > 0 to reach gamma_tau > 0")
    rho0 = pure_to_density(phi)
    curve = []
    for g in gamma_tau_values:
        tau = g / params.gamma1 if g > 0 else 0.0
        curve.append((g, log_negativity(damp(rho0, tau, params, dim_cap))))
    return curve

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
mode 2 is mode d; rho[m1, m2, n1, n2] may keep d1 levels of mode c and d2 of
mode d.

The sum factorizes per mode, and each factor is that mode's amplitude-damping
Kraus sum (Nielsen & Chuang, section 8.3.5): R_j = a_p[m_j] * a_p[n_j] with
a_p[m] = C(m+p, p)^(1/2) * (1 - exp(-2g))^(p/2) * exp(-g*m).  The sum maps
each diagonal offset k = n - m of a mode's (m, n) indices to itself, so
``damp`` runs it on mode c, then on mode d, as one real matrix product per
offset with the upper-triangular A_k[i, j] = a_{j-i}[r_i] * a_{j-i}[c_i]
(r_i, c_i the row and column levels of the i-th entry on the offset).  All
2d - 1 of them come from one vectorized (2d - 1, d, d) table, shared by both
modes when their sizes and g agree.  Each mode takes one working copy of rho
with that mode's (m, n) axes first, flattened to rows m*d + n; offset k is
then the strided slice of every (d + 1)-th row from its first entry, and
A_k times that view is written back into it in place, with no gather or
scatter.

``negativity_decay_curve`` runs at the state's natural size.  A mode keeps
the fewest leading levels whose marginal photon-number mass beyond them is
below ``fock._TAIL`` of the total, by the tail rule that also sets the Fock
cutoff and trims the entropy curves.  ``fock._kept_mode_levels`` takes the
photon-number mass: |phi|^2 trims phi before rho is built, and the diagonal
rho[a, b, a, b] trims each damped rho before the partial transpose (loss
only lowers photon numbers).  The error in E_N is O(sqrt(_TAIL)) by the
gentle-measurement lemma (Winter 1999).  At gamma*tau = 0 the state is pure
and E_N is the closed form ``pure_state_log_negativity`` of the untrimmed
phi, so no eigensolve runs.

Each damped point takes one of two eigensolves of the partial transpose,
chosen once per curve.  The splitter writes
phi[p, k] = c[p+k] * sqrt(C(p+k, p) / 2^(p+k)) * i^k, so A = phi * diag(i^-k)
is symmetric.  Dropping i^k is a local phase on mode d; the loss channel is
phase covariant and E_N ignores local unitaries, so the curve of A is the
curve of phi.  With gamma1 == gamma2 the damped state of A is invariant
under swapping the modes, and its partial transpose is then real symmetric
in the basis |aa>, (|ab> + |ba>)/sqrt(2), i(|ab> - |ba>)/sqrt(2), a < b
(the orthogonal class of Dyson's threefold way, J. Math. Phys. 3, 1199
(1962)).  So a real n^2 x n^2 eigvalsh replaces the complex one:
``entanglement._swap_invariant_real_form`` builds a real array whose partial
transpose is that matrix, and ``log_negativity`` solves it, so both routes
share one eigvalsh -> trace norm -> log2 tail.  Under the symmetry both
marginals are equal, and both modes keep the larger of their kept sizes.

The real route runs exactly when gamma1 == gamma2 and phi is square with
max|A - A^T| <= 1e-12 * max|A| (splitter outputs meet this to ~1e-15).
Equal rates alone are not enough: a phi that is not symmetric gives a
damped state without the symmetry.  Every other input takes the complex
route on the (n1, n2) trim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamsplitter import _I_POW
from .entanglement import (
    _swap_invariant_real_form,
    log_negativity,
    pure_state_log_negativity,
    pure_to_density,
)
from .fock import DEFAULT_DIM_CAP, _kept_mode_levels, check_dim_cap, check_real, log_factorials

__all__ = [
    "ChannelParams",
    "damp",
    "negativity_decay_curve",
]

# splitter outputs are symmetric after the rotation to ~1e-15 of their largest entry
_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class ChannelParams:
    """Coupling rates of modes c and d to their environments (inverse time)."""

    gamma1: float = 0.1
    gamma2: float = 0.1

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            if check_real(name, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")


def _offset_weights(d: int, g: float) -> np.ndarray:
    """The A_k of the module docstring for every offset k of a mode with d
    levels and g = gamma*tau > 0, as one (2d - 1, d, d) table: A_k is
    W[k + d - 1, :d - |k|, :d - |k|], and every other entry is 0."""
    lgfact = log_factorials(d)
    log_loss = math.log(-math.expm1(-2.0 * g))  # ln(1 - exp(-2g))
    p, m = np.ogrid[:d, :d]
    # a[p, m] = a_p[m]; only entries with m + p < d are ever read
    a = np.exp(0.5 * (lgfact[np.minimum(m + p, d - 1)] - lgfact[p] - lgfact[m]
                      + p * log_loss) - g * m)
    k, i, j = np.ogrid[1 - d:d, :d, :d]
    shift = j - i
    used = (shift >= 0) & (j < d - abs(k))
    lift = np.where(used, shift, 0)  # unused entries read a in range, then drop out
    rows = np.minimum(i + np.maximum(0, -k), d - 1)
    cols = np.minimum(i + np.maximum(0, k), d - 1)
    return np.where(used, a[lift, rows] * a[lift, cols], 0.0)


def _damp_mode(rho: np.ndarray, weights: np.ndarray | None, axes: tuple[int, int]) -> np.ndarray:
    """One mode's Kraus sum over its (row, column) ``axes`` of rho:

    rho[..m..n..] <- sum_p a_p[m] a_p[n] rho[..m+p..n+p..],

    as one real matrix product per diagonal offset k = n - m with that mode's
    ``_offset_weights``, run in place on one working copy of rho with the
    damped mode's axes first.  ``weights`` None (g = 0) returns rho itself.
    """
    if weights is None:
        return rho
    d = rho.shape[axes[0]]
    work = np.array(np.moveaxis(rho, axes, (0, 1)), order="C")  # rho is never written
    # row m*d + n holds rho's (m, n) block, real and imaginary parts side by side
    # (its length spelled out, since -1 cannot be inferred when a mode is empty)
    flat = work.reshape(d * d, math.prod(work.shape[2:])).view(float)
    for k in range(1 - d, d):
        size = d - abs(k)
        start = max(0, -k) * d + max(0, k)  # the row of the offset's first entry
        diag = flat[start:start + (size - 1) * (d + 1) + 1:d + 1]  # a view, no copy
        diag[...] = weights[k + d - 1, :size, :size] @ diag
    return np.moveaxis(work, (0, 1), axes)


def damp(
    rho: np.ndarray,
    tau: float,
    params: ChannelParams = ChannelParams(),
    dim_cap: int = DEFAULT_DIM_CAP,
) -> np.ndarray:
    """Apply the loss channel for time tau to rho[m1, m2, n1, n2], of shape
    (d1, d2, d1, d2).

    Trace preserving, Hermiticity preserving, completely positive, and a
    semigroup in tau (damping for tau_a then tau_b equals tau_a + tau_b).
    Returns a new array, also at tau = 0.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 4 or rho.shape[:2] != rho.shape[2:]:
        raise ValueError(f"rho must have shape (d1, d2, d1, d2), got {rho.shape}")
    if check_real("tau", tau) < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    check_dim_cap(rho.shape[0] * rho.shape[1], dim_cap, "two-mode density matrix")
    (d1, d2), g1, g2 = rho.shape[:2], params.gamma1 * tau, params.gamma2 * tau
    w1 = _offset_weights(d1, g1) if g1 else None
    w2 = w1 if (d2, g2) == (d1, g1) else _offset_weights(d2, g2) if g2 else None
    out = _damp_mode(_damp_mode(rho, w1, (0, 2)), w2, (1, 3))
    return out.copy() if out is rho else out


def negativity_decay_curve(
    phi: np.ndarray,
    gamma_tau_values,
    params: ChannelParams = ChannelParams(),
    dim_cap: int = DEFAULT_DIM_CAP,
) -> list[tuple[float, float]]:
    """Log negativity of the damped state at each gamma*tau on the grid.

    The abscissa is gamma1 * tau (the paper-style axis; with equal couplings
    it is the common gamma*tau).  ``phi`` must be a finite 2-D array with a
    nonzero norm.  The dimension check, on the untrimmed d^2, runs before any
    work so infeasible inputs fail fast.  With gamma1 == gamma2 and a phi
    that is symmetric once its reflection phase is dropped, as every splitter
    output is, each point takes the real eigensolve (see the module
    docstring); any other input takes the complex one.
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 2 or not np.isfinite(phi).all():
        raise ValueError(f"phi must be a finite 2-D array, got shape {phi.shape}")
    with np.errstate(over="ignore"):  # an overflowing mass is refused below
        mass = np.abs(phi) ** 2
    if not 0.0 < mass.sum() < math.inf:
        raise ValueError("phi must have a finite, nonzero norm")
    check_dim_cap(phi.size, dim_cap, "two-mode density matrix")
    gamma_tau_values = [float(check_real("gamma_tau", g)) for g in gamma_tau_values]
    for g in gamma_tau_values:
        if g < 0:
            raise ValueError(f"gamma_tau must be >= 0, got {g}")
    if any(g > 0 for g in gamma_tau_values) and params.gamma1 <= 0:
        raise ValueError("gamma1 must be > 0 to reach gamma_tau > 0")
    rotated = phi * _I_POW[np.arange(phi.shape[1]) % 4].conj()  # the splitter's i^k dropped
    swap_invariant = (
        params.gamma1 == params.gamma2
        and phi.shape[0] == phi.shape[1]
        and np.abs(rotated - rotated.T).max() <= _SYMMETRY_TOL * np.abs(rotated).max()
    )

    def kept(mass: np.ndarray) -> tuple[int, int]:
        n1, n2 = _kept_mode_levels(mass)
        return (max(n1, n2),) * 2 if swap_invariant else (n1, n2)

    n1, n2 = kept(mass)
    rho0 = pure_to_density((rotated if swap_invariant else phi)[:n1, :n2])
    curve = []
    for g in gamma_tau_values:
        if g == 0.0:
            curve.append((g, pure_state_log_negativity(phi)))
            continue
        rho = damp(rho0, g / params.gamma1, params, dim_cap)
        n1, n2 = kept(np.einsum("abab->ab", rho).real)
        rho = rho[:n1, :n2, :n1, :n2]
        curve.append((g, log_negativity(_swap_invariant_real_form(rho) if swap_invariant else rho)))
    return curve

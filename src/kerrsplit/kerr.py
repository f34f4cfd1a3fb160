"""Kerr-medium time evolution and the fractional-revival superposition oracle.

Time is dimensionless throughout: tau = t / T_rev with T_rev = pi / chi, so a
full revival sits at tau = 1 and the phase picked up by Fock level n is
exp(-i * pi * tau * n * (n-1)).  At rational tau = p/q the evolved coherent
state is also an exact superposition of q rotated coherent states; building
that superposition independently gives a validation oracle for the direct
diagonal evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    DEFAULT_DIM_CAP,
    CutoffPolicy,
    CutoffTooSmallError,
    InfeasibleScenarioError,
    InitialStateSpec,
    _coherent_amplitudes,
    build_initial_state,
    check_dim_cap,
)

__all__ = [
    "CoherentSuperposition",
    "fractional_revival_superposition",
    "kerr_evolve",
    "oracle_fidelity",
    "reconstruct_fock",
]


def kerr_evolve(amplitudes: np.ndarray, taus) -> np.ndarray:
    """Amplitudes after tau revival units of Kerr evolution: level n picks up
    the phase exp(-i*pi*tau*n*(n-1)).

    A scalar tau gives shape (d,); an array of T times gives one row per
    time, shape (T, d).  The exponent is reduced mod 2 before the complex
    exponential so that integer tau (full revivals, where n*(n-1) is always
    even) gives phases of exactly 1.  An exponent (d-1)*(d-2)*max|tau| that
    is not finite raises InfeasibleScenarioError, before any phase is
    computed, where the phases would be NaN.
    """
    amplitudes = np.asarray(amplitudes)
    taus = np.asarray(taus, dtype=float)
    top = amplitudes.shape[-1] - 1
    tau_max = float(np.abs(taus).max(initial=0.0))
    if not math.isfinite(float(top * (top - 1)) * tau_max):
        raise InfeasibleScenarioError(
            f"Kerr evolution: the phase of level {top} at |tau|={tau_max!r} "
            f"gave a non-finite result"
        )
    n = np.arange(top + 1, dtype=float)
    cycles = np.mod(n * (n - 1.0) * taus[..., None], 2.0)
    return amplitudes * np.exp(-1j * math.pi * cycles)


@dataclass(frozen=True)
class CoherentSuperposition:
    """Weighted coherent states sum_j c_j |center_j>, centers on one circle."""

    coefficients: np.ndarray
    centers: np.ndarray

    def __post_init__(self):
        coeff = np.array(self.coefficients, dtype=complex)
        centers = np.array(self.centers, dtype=complex)
        if coeff.shape != centers.shape or coeff.ndim != 1 or len(coeff) == 0:
            raise ValueError("coefficients and centers must be equal-length 1-D arrays")
        coeff.setflags(write=False)
        centers.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "centers", centers)


def fractional_revival_superposition(alpha: complex, p: int, q: int) -> CoherentSuperposition:
    """Superposition equal to the Kerr-evolved coherent state at tau = p/q.

    Centers are alpha * exp(-2*pi*i*j/q) for odd q and pick up an extra
    exp(i*pi/q) offset for even q.  The coefficients solve the q x q linear
    relation

        exp(-i*pi*p*n*(n-1)/q) = sum_j c_j * (center_j / alpha)^n

    over one period n = 0..q-1; both sides repeat (q odd) or flip sign
    (q even) under n -> n+q, so matching one period matches every level.
    The system matrix is a phase-scaled DFT and perfectly conditioned.  A q
    over ``DEFAULT_DIM_CAP`` raises InfeasibleScenarioError before any work.
    """
    p, q = int(p), int(q)
    if q <= 1:
        raise ValueError(f"q must be an integer > 1, got {q}")
    if not 1 <= p < q:
        raise ValueError(f"p must satisfy 1 <= p < q, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got p={p}, q={q}")
    check_dim_cap(q, DEFAULT_DIM_CAP, f"revival superposition at p/q={p}/{q}")

    j = np.arange(q)
    offset = math.pi / q if q % 2 == 0 else 0.0
    angles = offset - 2.0 * math.pi * j / q
    n = np.arange(q, dtype=float)
    target = np.exp(-1j * math.pi * np.mod(p * n * (n - 1.0) / q, 2.0))
    coeff = np.linalg.solve(np.exp(1j * np.outer(n, angles)), target)

    # guard the (anti)periodicity argument over one extra period
    n2 = np.arange(q, 2 * q, dtype=float)
    lhs = np.exp(1j * np.outer(n2, angles)) @ coeff
    rhs = np.exp(-1j * math.pi * np.mod(p * n2 * (n2 - 1.0) / q, 2.0))
    residual = float(np.max(np.abs(lhs - rhs)))
    if residual > 1e-9:
        raise RuntimeError(
            f"superposition coefficients for p/q={p}/{q} fail off-period check "
            f"(residual {residual:.3e})"
        )
    return CoherentSuperposition(coeff, alpha * np.exp(1j * angles))


def reconstruct_fock(superposition: CoherentSuperposition, n_cut: int) -> np.ndarray:
    """Sum the coherent components into amplitudes over levels 0..n_cut,
    renormalized.

    The dropped tail, refused above the default ``CutoffPolicy``'s
    ``tail_tol``, is measured against the exact squared norm, computed in
    closed form from the pairwise coherent overlaps
    <g_i|g_j> = exp(-|g_i|^2/2 - |g_j|^2/2 + conj(g_i)*g_j).  An n_cut + 1
    over ``DEFAULT_DIM_CAP`` raises InfeasibleScenarioError before any work.
    """
    check_dim_cap(n_cut + 1, DEFAULT_DIM_CAP, "reconstructed superposition")
    coeff, centers = superposition.coefficients, superposition.centers
    amps = np.zeros(n_cut + 1, dtype=complex)
    for c, g in zip(coeff, centers):
        amps += c * _coherent_amplitudes(g, n_cut)
    sq = np.abs(centers) ** 2
    overlaps = np.exp(
        -0.5 * (sq[:, None] + sq[None, :]) + np.conj(centers)[:, None] * centers[None, :]
    )
    exact_sq_norm = float(np.real(np.conj(coeff) @ overlaps @ coeff))
    retained = float(np.sum(np.abs(amps) ** 2))
    tail_tol = CutoffPolicy().tail_tol
    if 1.0 - retained / exact_sq_norm > tail_tol:
        raise CutoffTooSmallError(
            f"n_cut={n_cut} drops tail {1.0 - retained / exact_sq_norm:.3e} "
            f"> tail_tol {tail_tol:.3e}"
        )
    return amps / math.sqrt(retained)


def oracle_fidelity(nu: float, p: int, q: int) -> float:
    """|<oracle|direct>| between the reconstructed superposition and
    kerr_evolve, for the coherent input of mean photon number nu at the
    default phase theta = pi/4, cut off by the default ``CutoffPolicy``.

    Both states live in the same truncated basis, so unit fidelity up to
    roundoff is the expected outcome for every coprime (p, q).
    """
    spec = InitialStateSpec(nu=nu)
    direct = kerr_evolve(build_initial_state(spec), p / q)
    sup = fractional_revival_superposition(spec.alpha, p, q)
    rebuilt = reconstruct_fock(sup, len(direct) - 1)
    return float(abs(np.vdot(rebuilt, direct)))

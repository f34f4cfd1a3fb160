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
    CutoffPolicy,
    CutoffTooSmallError,
    FockVector,
    InitialStateSpec,
    _coherent_amplitudes,
    build_initial_state,
    inner_product,
)

__all__ = [
    "CoherentSuperposition",
    "fractional_revival_superposition",
    "kerr_evolve",
    "kerr_phases",
    "oracle_fidelity",
    "reconstruct_fock",
]


def kerr_phases(dim: int, taus) -> np.ndarray:
    """Phases exp(-i*pi*tau*n*(n-1)) of levels n = 0..dim-1.

    A scalar tau gives shape (dim,); an array of T times gives one row per
    time, shape (T, dim).  The exponent is reduced mod 2 before the complex
    exponential so that integer tau (full revivals, where n*(n-1) is always
    even) gives phases of exactly 1.
    """
    n = np.arange(dim, dtype=float)
    cycles = np.mod(n * (n - 1.0) * np.asarray(taus, dtype=float)[..., None], 2.0)
    return np.exp(-1j * math.pi * cycles)


def kerr_evolve(state: FockVector, tau: float) -> FockVector:
    """Multiply amplitude n by exp(-i*pi*tau*n*(n-1)); see ``kerr_phases``."""
    return FockVector(state.amplitudes * kerr_phases(len(state.amplitudes), tau))


@dataclass(frozen=True)
class CoherentSuperposition:
    """Weighted coherent states sum_j c_j |center_j>, centers on one circle.

    ``p`` and ``q`` tag the revival fraction the superposition was built for
    (None for hand-assembled superpositions); parity of q selects which
    branch of center placements was used.
    """

    coefficients: np.ndarray
    centers: np.ndarray
    p: int | None = None
    q: int | None = None

    def __post_init__(self):
        coeff = np.array(self.coefficients, dtype=complex)
        centers = np.array(self.centers, dtype=complex)
        if coeff.shape != centers.shape or coeff.ndim != 1 or len(coeff) == 0:
            raise ValueError("coefficients and centers must be equal-length 1-D arrays")
        coeff.setflags(write=False)
        centers.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "centers", centers)

    @property
    def n_components(self) -> int:
        return len(self.coefficients)


def fractional_revival_superposition(alpha: complex, p: int, q: int) -> CoherentSuperposition:
    """Superposition equal to the Kerr-evolved coherent state at tau = p/q.

    Centers are alpha * exp(-2*pi*i*j/q) for odd q and pick up an extra
    exp(i*pi/q) offset for even q.  The coefficients solve the q x q linear
    relation

        exp(-i*pi*p*n*(n-1)/q) = sum_j c_j * (center_j / alpha)^n

    over one period n = 0..q-1; both sides repeat (q odd) or flip sign
    (q even) under n -> n+q, so matching one period matches every level.
    The system matrix is a phase-scaled DFT and perfectly conditioned.
    """
    p, q = int(p), int(q)
    if q <= 1:
        raise ValueError(f"q must be an integer > 1, got {q}")
    if not 1 <= p < q:
        raise ValueError(f"p must satisfy 1 <= p < q, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got p={p}, q={q}")

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
    return CoherentSuperposition(coeff, alpha * np.exp(1j * angles), p=p, q=q)


def reconstruct_fock(
    superposition: CoherentSuperposition,
    n_cut: int,
    policy: CutoffPolicy = CutoffPolicy(),
) -> FockVector:
    """Sum the coherent components into a truncated Fock vector, renormalized.

    The dropped tail is measured against the exact squared norm, computed in
    closed form from the pairwise coherent overlaps
    <g_i|g_j> = exp(-|g_i|^2/2 - |g_j|^2/2 + conj(g_i)*g_j).
    """
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
    if 1.0 - retained / exact_sq_norm > policy.tail_tol:
        raise CutoffTooSmallError(
            f"n_cut={n_cut} drops tail {1.0 - retained / exact_sq_norm:.3e} "
            f"> tail_tol {policy.tail_tol:.3e}"
        )
    return FockVector(amps / math.sqrt(retained))


def oracle_fidelity(
    nu: float,
    p: int,
    q: int,
    theta: float = math.pi / 4,
    policy: CutoffPolicy = CutoffPolicy(),
) -> float:
    """|<oracle|direct>| between the reconstructed superposition and kerr_evolve.

    Both states live in the same truncated basis, so unit fidelity up to
    roundoff is the expected outcome for every coprime (p, q).
    """
    spec = InitialStateSpec(nu=nu, theta=theta)
    direct = kerr_evolve(build_initial_state(spec, policy=policy), p / q)
    sup = fractional_revival_superposition(spec.alpha, p, q)
    rebuilt = reconstruct_fock(sup, direct.n_cut, policy)
    return abs(inner_product(rebuilt, direct))

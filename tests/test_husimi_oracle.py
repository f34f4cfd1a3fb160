"""Truncation-free oracle for the Husimi map at the fractional revivals tau = p/q.

The photon-added input is a^dag^m |alpha> / sqrt(m! L_m(-|alpha|^2)).  Since
<beta| a^dag^m = conj(beta)^m <beta| and
exp(-i pi tau N(N-1)) a^dag^m = a^dag^m exp(-i pi tau (N+m)(N+m-1)), the extra
phase exp(-2 pi i m tau N) rotates the coherent state by exp(-2 pi i m tau),
and the Kerr state of the rotated |alpha> at tau = p/q is the superposition
sum_j c_j |alpha_j> of ``fractional_revival_superposition``.  So

    Q(beta) = |beta|^(2m) |sum_j c_j <beta|alpha_j exp(-2 pi i m tau)>|^2
              / (pi m! L_m(-|alpha|^2)),

with the closed-form overlap <beta|g> = exp(-|beta|^2/2 - |g|^2/2 + conj(beta) g):
no Fock space at all.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import laguerre

from kerrsplit.fock import InitialStateSpec, build_initial_state
from kerrsplit.husimi import PhaseSpaceGrid, count_peaks, husimi_q
from kerrsplit.kerr import fractional_revival_superposition, kerr_evolve

FRACTIONS = [(1, 2), (1, 3), (1, 4), (2, 5), (1, 7)]
# The worst difference measured on these maps is 1.2e-10 (nu = 20, m = 5) and
# 3.5e-11 at nu = 5: the input cutoff's scale.  The cutoff drops at most
# tail_tol = 1e-12 of the state's mass, which moves Q by up to
# sqrt(1e-12) / pi = 3e-7, so the bound below is far inside what it allows.
Q_TOL = 1e-9


def oracle_q(spec, p, q, x, p_axis):
    """Q on the (x, p) lattice of ``husimi_q``, from the closed form."""
    tau, m, alpha = p / q, spec.m, spec.alpha
    kerr = fractional_revival_superposition(alpha, p, q)
    centers = kerr.centers * np.exp(-2j * math.pi * m * tau)
    beta = (x[:, None] + 1j * p_axis[None, :]) / math.sqrt(2.0)
    sq = np.abs(beta) ** 2
    exponents = (-0.5 * sq[..., None] - 0.5 * np.abs(centers) ** 2
                 + np.conj(beta)[..., None] * centers)
    amplitude = np.exp(exponents) @ kerr.coefficients
    norm = math.pi * math.factorial(m) * laguerre.lagval(-abs(alpha) ** 2, [0] * m + [1])
    return sq ** m * np.abs(amplitude) ** 2 / norm


@pytest.mark.parametrize("p, q", FRACTIONS)
@pytest.mark.parametrize("m", [0, 2, 5])
@pytest.mark.parametrize("nu", [5.0, 20.0])
def test_husimi_map_at_fractional_revival_equals_coherent_state_oracle(nu, m, p, q):
    spec = InitialStateSpec(nu=nu, m=m)
    grid = husimi_q(kerr_evolve(build_initial_state(spec), p / q), resolution=201)
    want = oracle_q(spec, p, q, grid.x, grid.p)
    assert np.max(np.abs(grid.values - want)) <= Q_TOL
    assert count_peaks(grid) == count_peaks(PhaseSpaceGrid(grid.x, grid.p, want))

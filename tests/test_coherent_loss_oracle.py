"""Truncation-free oracle for the loss curve at the splitter time tau = 1/2.

At tau = 1/2 the Kerr phase exp(-i*pi*n*(n-1)/2) of level n equals
((1-i)/2) i^n + ((1+i)/2) (-i)^n, so the evolved coherent state |alpha> is
the two-term superposition ((1-i)/2)|i*alpha> + ((1+i)/2)|-i*alpha>.  The
splitter sends |g>|0> to |g/sqrt(2)>_c |i*g/sqrt(2)>_d, and amplitude damping
with eta = exp(-2*gamma*tau) sends |a><b| to <b|a>^(1-eta) |sqrt(eta) a><sqrt(eta) b|
(Walls & Milburn, PRA 31, 2403 (1985)), where
<b|a>^s = exp(s * (conj(b)*a - |a|^2/2 - |b|^2/2)).  The damped state
therefore lives on a two-dimensional span of coherent states per mode, and
E_N follows from one 4x4 partial transpose in an orthonormal basis of each
span, built from closed-form coherent overlaps with no Fock space at all.
"""

import math

import numpy as np

from kerrsplit.decoherence import negativity_decay_curve
from kerrsplit.fock import InitialStateSpec, build_initial_state
from kerrsplit.kerr import kerr_evolve

GAMMA_TAUS = [round(0.1 * k, 1) for k in range(16)]


def coherent_gram(x, s=1.0):
    """G[j, k] = <x_j|x_k>^s for coherent amplitudes x."""
    return np.exp(s * (np.conj(x)[:, None] * x[None, :]
                       - 0.5 * np.abs(x)[:, None] ** 2 - 0.5 * np.abs(x)[None, :] ** 2))


def span_coordinates(x):
    """B with B^dag B = Gram of |x_j>: column j holds |x_j> in an orthonormal
    basis of their span."""
    w, v = np.linalg.eigh(coherent_gram(x))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def oracle_log_negativity(alpha, gamma_tau):
    coeffs = np.array([(1 - 1j) / 2, (1 + 1j) / 2])
    kerr = np.array([1j * alpha, -1j * alpha])
    a, b = kerr / math.sqrt(2.0), 1j * kerr / math.sqrt(2.0)
    eta = math.exp(-2.0 * gamma_tau)
    # rho = sum_jk r[j, k] |a'_j b'_j><a'_k b'_k| with a' = sqrt(eta) a, b' = sqrt(eta) b
    r = np.outer(coeffs, coeffs.conj()) * (coherent_gram(a, 1 - eta) * coherent_gram(b, 1 - eta)).T
    ba, bb = span_coordinates(math.sqrt(eta) * a), span_coordinates(math.sqrt(eta) * b)
    rho = np.einsum("jk,aj,bj,ck,dk->abcd", r, ba, bb, ba.conj(), bb.conj())
    rho /= np.einsum("abab", rho).real
    eig = np.linalg.eigvalsh(np.swapaxes(rho, 0, 2).reshape(4, 4))
    return max(math.log2(np.abs(eig).sum()), 0.0)


def test_kerr_phase_at_half_revival_is_two_powers_of_i():
    n = np.arange(40)
    phase = (-1.0) ** (n * (n - 1) // 2)  # exp(-i*pi*n*(n-1)/2)
    i_pow = np.array([1, 1j, -1, -1j])[n % 4]
    assert np.array_equal(phase, (1 - 1j) / 2 * i_pow + (1 + 1j) / 2 * i_pow.conj())


def test_loss_curve_matches_coherent_state_oracle():
    spec = InitialStateSpec(nu=2.0)
    curve = negativity_decay_curve(kerr_evolve(build_initial_state(spec), 0.5), GAMMA_TAUS)
    for gamma_tau, got in curve:
        want = oracle_log_negativity(spec.alpha, gamma_tau)
        # Below gamma*tau = 0.6 the library's Fock cutoff still shows: it drops
        # tail_tol = 1e-12 of the input's weight, which moves E_N on the scale
        # of sqrt(tail_tol) (1.4e-8 at gamma*tau = 0); damping shrinks the
        # truncated tail until the two agree to roundoff.
        tol = 1e-12 if gamma_tau >= 0.6 else 1e-7
        assert abs(got - want) <= tol, (gamma_tau, got, want)

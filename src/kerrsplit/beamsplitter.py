"""50/50 beam splitter acting on a single-mode state plus vacuum.

The output of exp[i*pi/4*(a^dag b + a b^dag)] on |n>_a |0>_b is spread over
the anti-diagonal p + k = n of a two-mode amplitude matrix phi[p, k] with
weights 2^(-n/2) * C(n, p)^(1/2) * i^(n-p).  The i^(n-p) factor is the pi/2
phase of the reflected arm; it makes a coherent input come out as the exact
product |alpha/sqrt(2)>_c |i*alpha/sqrt(2)>_d and, being a local phase on
mode d, cannot change any entanglement quantity computed downstream.

The whole map is one gather, phi[p, k] = c[p + k] * W[p, k], so a stack of
input rows (one per evolution time) splits in a single vectorized step.
``split_amplitudes`` builds that gather for every level of each output mode
or, given ``kept``, for the leading ``kept`` levels only: the block that the
entropy curves keep after their per-mode trim.  ``output_at_time`` keeps
every level.

A single-mode density matrix sigma splits through the same gather, on both
sides.  ``_split_density`` drops the splitter's i^k, a local phase on mode d
that the phase-covariant loss channel and E_N ignore, leaving
rho[p, k, p', k'] = sigma[p+k, p'+k'] * w[p, k] * w[p', k'] with the
symmetric weights w[p, k] = |W[p, k]| = sqrt(C(p+k, p) / 2^(p+k)), at the
leading n levels of each output mode, from the (n, n) gather alone.
The split of a photon-number vector P[n] (|c[n]|^2 of a pure state, the
diagonal of sigma) gives each output mode the same marginal, P thinned at
1/2: marginal[p] = sum_k P[p+k] * w[p, k]^2.  ``_kept_split_levels`` sums it
in log space with O(d) memory and trims both modes by ``fock._kept_levels``
of it, so choosing a kept size builds no two-mode array.  Only
``split_amplitudes`` at every level builds a (d, d) table.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fock import InitialStateSpec, _kept_levels, build_initial_state, check_int, log_factorials
from .kerr import kerr_evolve

__all__ = ["output_at_time", "split_amplitudes"]

_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])  # i^k for k mod 4
_LN2 = math.log(2.0)


def _log_split_weight(lgfact: np.ndarray, p, k):
    """ln w[p, k]^2 = ln C(p+k, p) - (p+k) ln 2, from the ln n! table."""
    n = p + k
    return lgfact[n] - lgfact[p] - lgfact[k] - n * _LN2


# An entropy curve or surface column uses one key, (dim, kept); a loss curve
# uses (dim, dim) at gamma*tau = 0 and then (dim, n) at each damped point.
@functools.lru_cache(maxsize=2)
def _splitter_gather(dim: int, kept: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and weights of the splitter from input levels 0..dim-1
    to levels 0..kept-1 of each output mode.

    phi[p, k] = c[index[p, k]] * weights[p, k]: entries with p + k >= dim
    point at the last input level and carry zero weight.
    """
    p, k = np.nonzero(np.add.outer(np.arange(kept), np.arange(kept)) < dim)
    index = np.full((kept, kept), dim - 1)
    index[p, k] = p + k
    weights = np.zeros((kept, kept), dtype=complex)
    weights[p, k] = np.exp(0.5 * _log_split_weight(log_factorials(dim), p, k)) * _I_POW[k % 4]
    index.setflags(write=False)
    weights.setflags(write=False)
    return index, weights


def split_amplitudes(amplitudes: np.ndarray, kept: int | None = None) -> np.ndarray:
    """Splitter output for amplitude rows of shape (..., d): phi[..., p, k]
    over the leading ``kept`` levels of each output mode (all d by default),
    an integer from 1 to d.

    Unitary at kept = d: each output has the Frobenius norm of its input row,
    and the support stays on the anti-diagonals p + k = n of the input
    levels.  A smaller ``kept`` gives the top-left (kept, kept) block of that
    output without building the rest; it reads input levels below
    2 * kept - 1 only.
    """
    c = np.asarray(amplitudes, dtype=complex)
    dim = c.shape[-1]
    kept = dim if kept is None else check_int("kept", kept, 1)
    if kept > dim:
        raise ValueError(f"kept must be <= {dim}, got {kept!r}")
    index, weights = _splitter_gather(dim, kept)
    phi = c[..., index]
    phi *= weights
    return phi


def _split_density(sigma: np.ndarray, n: int) -> np.ndarray:
    """The split state rho[p, k, p', k'] = sigma[p+k, p'+k'] * w[p, k] * w[p', k']
    of the (d, d) single-mode ``sigma`` at n levels per mode, without the
    splitter's i^k (module docstring); real when ``sigma`` is."""
    index, weights = _splitter_gather(len(sigma), n)
    flat = index.ravel()
    wf = np.abs(weights).ravel()
    rho = sigma[flat][:, flat]
    rho *= wf[:, None]
    rho *= wf
    return rho.reshape((n,) * 4)


def _kept_split_levels(populations: np.ndarray, tail: float) -> int:
    """Kept levels of each output mode of the split of the photon-number
    vector ``populations``: ``_kept_levels`` at ``tail`` of the modes' one
    marginal, summed over the other mode's count k (module docstring)."""
    d = len(populations)
    lgfact = log_factorials(d)
    marginal, p = np.zeros(d), np.arange(d)
    for k in range(d):
        marginal[:d - k] += populations[k:] * np.exp(_log_split_weight(lgfact, p[:d - k], k))
    return _kept_levels(marginal, tail)


def output_at_time(initial: InitialStateSpec, tau: float, n_cut: int | None = None) -> np.ndarray:
    """Two-mode amplitude matrix after Kerr evolution for tau revival units
    followed by the 50/50 splitter with vacuum in the second port."""
    return split_amplitudes(kerr_evolve(build_initial_state(initial, n_cut=n_cut), tau))

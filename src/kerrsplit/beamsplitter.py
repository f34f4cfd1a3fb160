"""50/50 beam splitter acting on a single-mode state plus vacuum.

The output of exp[i*pi/4*(a^dag b + a b^dag)] on |n>_a |0>_b is spread over
the anti-diagonal p + k = n of a two-mode amplitude matrix phi[p, k] with
weights 2^(-n/2) * C(n, p)^(1/2) * i^(n-p).  The i^(n-p) factor is the pi/2
phase of the reflected arm; it makes a coherent input come out as the exact
product |alpha/sqrt(2)>_c |i*alpha/sqrt(2)>_d and, being a local phase on
mode d, cannot change any entanglement quantity computed downstream.

The whole map is one gather, phi[p, k] = c[p + k] * W[p, k], so a stack of
input rows (one per evolution time) splits in a single vectorized step.
``_split_kept`` builds the gather for the leading ``kept`` levels of each
output mode only, the block that the entropy curves keep after their
per-mode trim; ``_split_mass`` gives |phi|^2 from |c|^2 without a gather,
to choose that trim.  ``split_amplitudes`` and ``output_at_time`` keep every
level.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fock import CutoffPolicy, InitialStateSpec, build_initial_state
from .fock import log_factorials
from .kerr import kerr_evolve

__all__ = ["output_at_time", "split_amplitudes"]

_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])  # i^k for k mod 4
_LN2 = math.log(2.0)


def _sqrt_binomials(p: np.ndarray, k: np.ndarray, lgfact: np.ndarray) -> np.ndarray:
    """sqrt(C(p + k, p) / 2^(p + k)), the weight magnitudes of the splitter."""
    n = p + k
    return np.exp(0.5 * (lgfact[n] - lgfact[p] - lgfact[k] - n * _LN2))


@functools.lru_cache(maxsize=2)  # a curve or surface column uses one (dim, kept) at a time
def _splitter_gather(dim: int, kept: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and weights of the splitter from input levels 0..dim-1
    to levels 0..kept-1 of each output mode.

    phi[p, k] = c_pad[index[p, k]] * weights[p, k], where c_pad is the input
    with one zero appended: entries with p + k >= dim point at that zero and
    carry zero weight.
    """
    p, k = np.nonzero(np.add.outer(np.arange(kept), np.arange(kept)) < dim)
    index = np.full((kept, kept), dim)
    index[p, k] = p + k
    weights = np.zeros((kept, kept), dtype=complex)
    weights[p, k] = _sqrt_binomials(p, k, log_factorials(dim)) * _I_POW[k % 4]
    index.setflags(write=False)
    weights.setflags(write=False)
    return index, weights


def _split_kept(amplitudes: np.ndarray, kept: int) -> np.ndarray:
    """The top-left (kept, kept) block of split_amplitudes(amplitudes), built
    without the rest: rows of shape (..., d) give (..., kept, kept)."""
    c = np.asarray(amplitudes, dtype=complex)
    dim = c.shape[-1]
    index, weights = _splitter_gather(dim, kept)
    padded = np.zeros(c.shape[:-1] + (dim + 1,), dtype=complex)
    padded[..., :dim] = c
    phi = padded[..., index]
    phi *= weights
    return phi


def _split_mass(amplitudes: np.ndarray) -> np.ndarray:
    """|phi[p, k]|^2 of split_amplitudes(amplitudes) for one row of d levels,
    from |c|^2 alone, with no gather built.  Kerr evolution leaves it, and so
    both output modes' photon-number marginals, the same at every tau."""
    dim = len(amplitudes)
    p, k = np.nonzero(np.add.outer(np.arange(dim), np.arange(dim)) < dim)
    mass = np.zeros((dim, dim))
    mass[p, k] = (np.abs(amplitudes[p + k]) * _sqrt_binomials(p, k, log_factorials(dim))) ** 2
    return mass


def split_amplitudes(amplitudes: np.ndarray) -> np.ndarray:
    """Splitter output for amplitude rows of shape (..., d): phi[..., p, k].

    Unitary: each output has the Frobenius norm of its input row, and the
    support stays on the anti-diagonals p + k = n of the input levels.
    """
    return _split_kept(amplitudes, np.shape(amplitudes)[-1])


def output_at_time(
    initial: InitialStateSpec,
    tau: float,
    n_cut: int | None = None,
    policy: CutoffPolicy = CutoffPolicy(),
) -> np.ndarray:
    """Two-mode amplitude matrix after Kerr evolution for tau revival units
    followed by the 50/50 splitter with vacuum in the second port."""
    amplitudes = build_initial_state(initial, n_cut=n_cut, policy=policy)
    return split_amplitudes(kerr_evolve(amplitudes, tau))

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
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fock import CutoffPolicy, InitialStateSpec, build_initial_state, check_int, log_factorials
from .kerr import kerr_evolve

__all__ = ["output_at_time", "split_amplitudes"]

_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])  # i^k for k mod 4
_LN2 = math.log(2.0)


# An entropy curve or surface column uses two keys: (dim, dim) for its trim
# and (dim, kept) for its blocks.
@functools.lru_cache(maxsize=2)
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
    lgfact, n = log_factorials(dim), p + k
    weights[p, k] = np.exp(0.5 * (lgfact[n] - lgfact[p] - lgfact[k] - n * _LN2)) * _I_POW[k % 4]
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
    padded = np.zeros(c.shape[:-1] + (dim + 1,), dtype=complex)
    padded[..., :dim] = c
    phi = padded[..., index]
    phi *= weights
    return phi


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

"""Entanglement measures for two-mode states.

Pure states are handled through the singular values of the amplitude matrix
phi (the squared singular values are the Schmidt spectrum, i.e. the
eigenvalues of either reduced density matrix); mixed states go through the
partial transpose of the 4-index density matrix rho[m1, m2, n1, n2], which
``log_negativity`` solves whether it is complex or real.  Entropies are in
bits (log base 2).

``entropy_curve`` is the pure-state pipeline at many times: the entropy of
the input amplitudes c after Kerr evolution and the splitter, at every tau
of a curve.  Kerr evolution is diagonal in photon number, so each output
mode's marginal is the same at every tau and equal between the modes; the
curve trims both modes once, by ``beamsplitter._kept_split_levels`` of
|c|^2 at ``_TAIL``, in O(d) memory, and ``split_amplitudes`` then builds
only the (kept, kept) block of each tau, so no (d, d) array is built and
the SVDs run at the state's natural size (47 of 65 levels at nu = 20).

``_TAIL`` = 1e-16 is a tenth of ``_ENTROPY_FLOOR`` (1e-15), below which
``von_neumann_entropy`` already drops a Schmidt weight.  With t = ``_TAIL``,
d the untrimmed levels per mode and eta(x) = -x log2 x, the trim's error in
the entropy E is bounded in three steps:

- interlacing: the kept (n, n) block phi' of phi has
  sigma_i(phi') <= sigma_i(phi), so its Schmidt weights lambda'_i <= lambda_i
  termwise, and sum(lambda_i - lambda'_i), the mass beyond n on either mode,
  is at most 2t;
- Fannes' lemma (Commun. Math. Phys. 31, 291 (1973)): with
  |eta(a) - eta(b)| <= eta(|a - b|) and concavity, the weights move E by at
  most 2t log2(d / 2t), and renormalizing lambda' to a unit sum adds at most
  2t (log2 d + 1.5); together about 1.3e-14 at d = 65 (nu = 20);
- floor crossings: each weight that the trim carries across the floor adds
  eta(1e-15), about 5e-14, to that sum.

The curve then runs the Kerr phases, the splitter and the Schmidt SVDs on
blocks of tau values, at least one block per CPU the process may run on
(``os.sched_getaffinity``).  With more than one CPU and more than one
block, the blocks run on a thread pool of one thread per CPU.  Two blocks
overlap only where numpy releases the GIL, which its batched SVD does when
(matrices in the stack) x n is over 500, so ``_BLOCK_BYTES`` is sized for
that.  Each matrix's SVD is the same in any stack, so the entropies are the
same bits on any number of CPUs.  The pool starts and joins inside that one
call on the calling thread, so a tracer that brackets the call sees all of
its threads' work and no thread outlives it; ``tracemalloc`` was seen to
crash on Python 3.11 when it stopped while another thread allocated.
"""

from __future__ import annotations

import contextvars
import os

import numpy as np

from .beamsplitter import _kept_split_levels, split_amplitudes
from .fock import check_amplitudes, check_finite
from .kerr import kerr_evolve

__all__ = [
    "entanglement_entropy",
    "entropy_curve",
    "log_negativity",
    "partial_transpose",
    "pure_state_log_negativity",
    "schmidt_spectrum",
    "von_neumann_entropy",
]

# Schmidt weights below this are pure roundoff; 0*log(0) -> 0.
_ENTROPY_FLOOR = 1e-15
# share of an output mode's photon-number mass an entropy curve may drop
# beyond its kept levels; the module docstring bounds what that moves E by
_TAIL = 1e-16
# eigenvalue magnitudes below this are dropped from the trace norm
_TRACE_NORM_FLOOR = 1e-12


def schmidt_spectrum(phi: np.ndarray) -> np.ndarray:
    """Squared singular values of phi, descending; one row per matrix for a
    (T, d, d) stack."""
    s = np.linalg.svd(np.asarray(phi, dtype=complex), compute_uv=False)
    return s * s


def von_neumann_entropy(lambdas: np.ndarray) -> float | np.ndarray:
    """-sum(lam * log2 lam) over each spectrum, the last axis, divided by its
    sum, skipping the 0*log(0) limit.

    A float for one spectrum, an array for a (..., d) stack.  Schmidt weights
    of a unit vector sum to 1, so dividing makes the leading weight of a
    rank-1 spectrum exactly 1.  The result is clipped at 0 (also turning -0.0
    into 0.0).  A spectrum that is not finite has a sum that is not, which
    raises InfeasibleScenarioError; a stack holding one is refused whole.
    """
    lam = np.asarray(lambdas, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam = lam / check_finite(lam.sum(axis=-1, keepdims=True), "von Neumann entropy")
        terms = np.where(lam > _ENTROPY_FLOOR, lam * np.log2(lam), 0.0)
    entropy = np.maximum(0.0, 0.0 - terms.sum(axis=-1))  # 0.0 - 0.0 is +0.0, -(0.0) is not
    return float(entropy) if entropy.ndim == 0 else entropy


def entanglement_entropy(phi: np.ndarray) -> float | np.ndarray:
    """Entropy of entanglement (ebits) of a pure two-mode amplitude matrix;
    one per matrix, from one batched SVD, for a (T, d, d) stack."""
    return von_neumann_entropy(schmidt_spectrum(phi))


def _worker_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


# Two-mode amplitudes per block of an entropy curve, in bytes.  numpy's
# batched SVD releases the GIL only when (matrices in the block) x n is over
# 500, so only such blocks run their SVDs at once: 512 KiB holds 14 matrices
# at n = 47 (nu = 20), 14 x 47 = 658, and meets the 500 up to n = 60.  The
# blocks in flight, one per CPU, bound a curve's peak memory.
_BLOCK_BYTES = 1 << 19


def entropy_curve(amplitudes: np.ndarray, taus) -> np.ndarray:
    """Entanglement entropy (ebits) at each of the 1-D ``taus`` of the input
    ``amplitudes`` after Kerr evolution and the splitter: equal to
    entanglement_entropy(split_amplitudes(kerr_evolve(amplitudes, tau)))
    point by point up to the trim's bound (module docstring), run on each
    output mode's kept levels in blocks of at most ``_BLOCK_BYTES``.
    ``amplitudes`` pass ``fock.check_amplitudes`` before any work, as the
    loss curve's do, but are not normalised: the entropy divides by the
    Schmidt weights' sum.  On the thread pool each block runs in a copy of
    the caller's context, and an error or an interrupt ends the call
    without running the blocks still queued."""
    amplitudes, _ = check_amplitudes(amplitudes)
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1:
        raise ValueError(f"taus must be a 1-D sequence, got shape {taus.shape}")
    kept = _kept_split_levels(np.abs(amplitudes) ** 2, _TAIL)
    workers = _worker_count()
    block = max(1, min(_BLOCK_BYTES // (16 * kept * kept), -(-len(taus) // workers)))
    starts = range(0, len(taus), block)

    def entropies(start: int) -> np.ndarray:
        rows = kerr_evolve(amplitudes, taus[start:start + block])
        return entanglement_entropy(split_amplitudes(rows, kept))

    if not starts:
        return np.empty(0)
    if workers == 1 or len(starts) == 1:
        return np.concatenate([entropies(start) for start in starts])
    from concurrent.futures import ThreadPoolExecutor  # only here: it slows the CLI import

    with ThreadPoolExecutor(min(workers, len(starts))) as pool:
        # numpy (2.0 on) keeps its error state in a context variable; a
        # context runs on one thread at a time, so each task gets its own copy
        tasks = [pool.submit(contextvars.copy_context().run, entropies, start)
                 for start in starts]
        try:
            return np.concatenate([task.result() for task in tasks])
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose mode c of rho[m1,m2,n1,n2], swapping (m1, n1).  An
    involution; the result is Hermitian but in general not positive.  The
    transpose of mode d is its full transpose, so both have one spectrum."""
    return np.ascontiguousarray(np.swapaxes(rho, 0, 2))


def _flatten(rho: np.ndarray) -> np.ndarray:
    d1, d2 = rho.shape[0], rho.shape[1]
    return rho.reshape(d1 * d2, d1 * d2)


def log_negativity(rho: np.ndarray) -> float:
    """log2 of the trace norm of the partial transpose, clipped at 0.

    For a Hermitian operator the trace norm is the sum of absolute
    eigenvalues; magnitudes below 1e-12 are discarded as roundoff.  A rho or
    eigenvalues that are not finite raise InfeasibleScenarioError.
    """
    flat = check_finite(_flatten(partial_transpose(rho)), "log negativity")
    mags = np.abs(check_finite(np.linalg.eigvalsh(flat), "log negativity"))
    trace_norm = float(mags[mags > _TRACE_NORM_FLOOR].sum())
    if trace_norm <= 0.0:
        return 0.0
    return max(float(np.log2(trace_norm)), 0.0)


def pure_state_log_negativity(phi: np.ndarray) -> float:
    """Closed form for pure states: E_N = 2 * log2(sum of singular values);
    singular values that are not finite raise InfeasibleScenarioError."""
    s = np.linalg.svd(np.asarray(phi, dtype=complex), compute_uv=False)
    total = check_finite(s.sum(), "pure-state log negativity")
    return max(float(2.0 * np.log2(total)), 0.0)

"""Single-mode pure states in a truncated Fock basis.

Everything downstream (Kerr evolution, beam splitting, phase-space maps)
operates on the complex amplitude vectors built here.  Constructors
renormalize over the truncated basis and refuse cutoffs that would silently
drop more than ``tail_tol`` of probability mass.  Factorials and binomials
are in log space, from ``log_factorials``, so levels near n = 100 stay finite.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_DIM_CAP",
    "CutoffPolicy",
    "CutoffTooSmallError",
    "FockVector",
    "InfeasibleScenarioError",
    "InitialStateSpec",
    "build_initial_state",
    "choose_cutoff",
    "coherent_state",
    "fock_state",
    "inner_product",
    "log_factorials",
    "photon_added_coherent_state",
]


DEFAULT_DIM_CAP = 4096  # largest side of a square matrix a pipeline may build


class CutoffTooSmallError(ValueError):
    """The requested Fock cutoff drops more tail mass than the policy allows."""


class InfeasibleScenarioError(RuntimeError):
    """A scenario needs a matrix beyond the dimension cap."""


def check_dim_cap(side: int, dim_cap: int, what: str) -> None:
    """Refuse, before any work, a ``side`` x ``side`` matrix over the cap."""
    if side > dim_cap:
        raise InfeasibleScenarioError(
            f"{what} needs a {side} x {side} matrix, over dim_cap {dim_cap}"
        )


def check_real(name: str, value) -> float:
    """``value`` if it is a finite real number (not a bool); TypeError or
    ValueError naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints too big for a float
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_int(name: str, value, minimum: int) -> int:
    """``value`` if it is an integer (not a bool or float) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True)
class CutoffPolicy:
    """Truncation policy: allowed tail mass plus padding above the estimate."""

    tail_tol: float = 1e-12
    safety_margin: int = 5

    def __post_init__(self):
        if not 0.0 < check_real("tail_tol", self.tail_tol) < 1.0:
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol!r}")
        check_int("safety_margin", self.safety_margin, 0)


@dataclass(frozen=True)
class InitialStateSpec:
    """Input field of the interferometer: |alpha> with m photons added.

    ``nu`` is the mean photon number |alpha|^2 of the underlying coherent
    amplitude and ``theta`` its phase, so alpha = sqrt(nu) * exp(i*theta).
    ``m`` is the photon excitation number; m = 0 is a plain coherent state.
    """

    nu: float
    theta: float = math.pi / 4
    m: int = 0

    def __post_init__(self):
        if check_real("nu", self.nu) < 0.0:
            raise ValueError(f"nu must be >= 0, got {self.nu!r}")
        check_real("theta", self.theta)
        check_int("m", self.m, 0)

    @property
    def alpha(self) -> complex:
        r = math.sqrt(self.nu)
        return complex(r * math.cos(self.theta), r * math.sin(self.theta))


@dataclass(frozen=True)
class FockVector:
    """Pure state as complex amplitudes over Fock levels 0..n_cut."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or len(amps) == 0:
            raise ValueError("amplitudes must be a non-empty 1-D array")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_cut(self) -> int:
        return len(self.amplitudes) - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def mean_photon_number(self) -> float:
        probs = self.probabilities()
        return float(np.dot(np.arange(len(probs)), probs))


def log_factorials(count: int) -> np.ndarray:
    """ln n! for n = 0..count-1."""
    return np.array([math.lgamma(n + 1.0) for n in range(count)])


def _log_level_weights(nu: float, m: int, count: int) -> np.ndarray:
    """Log of the unnormalized occupation weights at Fock levels m..m+count-1.

    weight_n = nu^n * (n+m)! / (n!)^2 * exp(-nu); for m = 0 this is the
    Poisson distribution with mean nu.
    """
    lgfact = log_factorials(count + m)
    return -nu + np.arange(count) * math.log(nu) + lgfact[m:] - 2.0 * lgfact[:count]


def _converged_weights(nu: float, m: int, tail_tol: float) -> np.ndarray:
    """Occupation weights summed far enough that the remainder is irrelevant."""
    count = max(64, int(nu + 12.0 * math.sqrt(nu)) + m + 32)
    while True:
        logw = _log_level_weights(nu, m, count)
        floor = logw.max() + min(math.log(tail_tol) - 46.0, -80.0)
        if logw[-1] < floor and logw[-1] < logw[-2]:
            return np.exp(logw - logw.max())
        count *= 2


def choose_cutoff(nu: float, m: int, policy: CutoffPolicy = CutoffPolicy()) -> int:
    """Smallest Fock level holding all but ``tail_tol`` of the initial state,
    plus the policy's safety margin.

    Kerr evolution is diagonal in photon number, so the cutoff chosen for the
    initial state is valid for the whole downstream pipeline.
    """
    if nu < 0 or m < 0:
        raise ValueError("nu and m must be non-negative")
    if nu == 0:
        return m + policy.safety_margin
    w = _converged_weights(nu, m, policy.tail_tol)
    suffix = np.cumsum(w[::-1])[::-1]
    tails = suffix[1:] / w.sum()
    j = int(np.argmax(tails < policy.tail_tol))
    return m + j + policy.safety_margin


def _coherent_amplitudes(gamma: complex, n_cut: int) -> np.ndarray:
    """Exact Fock coefficients of |gamma> truncated at n_cut, no renormalization."""
    n = np.arange(n_cut + 1)
    g = abs(gamma)
    if g == 0.0:
        amps = np.zeros(n_cut + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    log_mag = -0.5 * g * g + n * math.log(g) - 0.5 * log_factorials(n_cut + 1)
    return np.exp(log_mag + 1j * n * np.angle(gamma))


def coherent_state(
    spec: InitialStateSpec, n_cut: int, policy: CutoffPolicy = CutoffPolicy()
) -> FockVector:
    """Coherent state amplitudes exp(-nu/2) * alpha^n / sqrt(n!), renormalized.

    Raises CutoffTooSmallError when the dropped tail exceeds the policy's
    tail_tol (the untruncated state has unit norm, so the tail is
    1 - sum of retained probabilities).
    """
    if spec.m != 0:
        raise ValueError("coherent_state requires m = 0; use photon_added_coherent_state")
    amps = _coherent_amplitudes(spec.alpha, n_cut)
    retained = float(np.sum(np.abs(amps) ** 2))
    if 1.0 - retained > policy.tail_tol:
        raise CutoffTooSmallError(
            f"n_cut={n_cut} keeps only {retained:.15g} of the state "
            f"(tail {1.0 - retained:.3e} > tail_tol {policy.tail_tol:.3e})"
        )
    return FockVector(amps / math.sqrt(retained))


def photon_added_coherent_state(
    spec: InitialStateSpec, n_cut: int, policy: CutoffPolicy = CutoffPolicy()
) -> FockVector:
    """m-photon-added coherent state: m creation operators applied to |alpha>.

    Unnormalized amplitude at level n+m is
    exp(-nu/2) * alpha^n * sqrt((n+m)!) / n!, zero below level m; the overall
    constant is fixed numerically over the truncated basis, which is exact
    there and needs no special-function expression.
    """
    m = spec.m
    if n_cut < m:
        raise CutoffTooSmallError(f"n_cut={n_cut} cannot hold m={m} added photons")
    amps = np.zeros(n_cut + 1, dtype=complex)
    if spec.nu == 0.0:
        amps[m] = 1.0
        return FockVector(amps)
    n = np.arange(n_cut - m + 1)
    amps[m:] = np.exp(0.5 * _log_level_weights(spec.nu, m, len(n)) + 1j * n * spec.theta)
    w = _converged_weights(spec.nu, m, policy.tail_tol)
    tail = 1.0 - float(np.sum(w[: n_cut - m + 1])) / float(w.sum())
    if tail > policy.tail_tol:
        raise CutoffTooSmallError(
            f"n_cut={n_cut} drops tail {tail:.3e} > tail_tol {policy.tail_tol:.3e} "
            f"for nu={spec.nu}, m={m}"
        )
    return FockVector(amps / np.linalg.norm(amps))


def build_initial_state(
    spec: InitialStateSpec,
    n_cut: int | None = None,
    policy: CutoffPolicy = CutoffPolicy(),
) -> FockVector:
    """Construct the configured input state, choosing the cutoff if not given."""
    if n_cut is None:
        n_cut = choose_cutoff(spec.nu, spec.m, policy)
    if spec.m == 0:
        return coherent_state(spec, n_cut, policy)
    return photon_added_coherent_state(spec, n_cut, policy)


def fock_state(n: int, n_cut: int) -> FockVector:
    """Basis vector |n> in a space truncated at n_cut."""
    if not 0 <= n <= n_cut:
        raise ValueError(f"need 0 <= n <= n_cut, got n={n}, n_cut={n_cut}")
    amps = np.zeros(n_cut + 1, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps)


def inner_product(a: FockVector, b: FockVector) -> complex:
    """<a|b> = sum conj(a_n) * b_n, zero-padding the shorter vector."""
    x, y = a.amplitudes, b.amplitudes
    k = min(len(x), len(y))
    return complex(np.vdot(x[:k], y[:k]))

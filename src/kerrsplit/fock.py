"""Single-mode pure states in a truncated Fock basis.

A state is a plain 1-D complex array of amplitudes over levels 0..n_cut;
everything downstream (Kerr evolution, beam splitting, phase-space maps)
operates on the arrays built here.  One builder,
``build_initial_state``, makes every input, coherent or photon-added, and
renormalizes it over the truncated basis.  One tail rule, ``_kept_levels``
(the fewest leading levels that hold all but a tail of the weight), sets the
cutoff and refuses a cutoff that would drop ``tail_tol`` of the state.
One trim call, ``_kept_mode_levels``, applies that rule at ``_TAIL`` to each
output mode's marginal of a two-mode photon-number mass: |phi|^2 once per
curve for the Schmidt SVDs in ``sweep`` and the loss channel in
``decoherence``, and the diagonal of each damped rho there.  Factorials and
binomials are in log space, from ``log_factorials``, so levels near n = 100
stay finite.
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
    "InfeasibleScenarioError",
    "InitialStateSpec",
    "build_initial_state",
    "choose_cutoff",
    "log_factorials",
]


DEFAULT_DIM_CAP = 4096  # largest side of a square matrix a pipeline may build

# share of an output mode's photon-number mass it may drop beyond its kept levels
_TAIL = 1e-20


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
    """Occupation weights summed far enough that the remainder is irrelevant;
    [1] at nu = 0, where the state is |m>."""
    if nu == 0:
        return np.ones(1)
    count = max(64, int(nu + 12.0 * math.sqrt(nu)) + m + 32)
    while True:
        logw = _log_level_weights(nu, m, count)
        floor = logw.max() + min(math.log(tail_tol) - 46.0, -80.0)
        if logw[-1] < floor and logw[-1] < logw[-2]:
            return np.exp(logw - logw.max())
        count *= 2


def _kept_levels(weights: np.ndarray, tail: float) -> int:
    """The fewest leading levels whose weight beyond them, as a fraction of
    the total, is below ``tail``; at least one."""
    beyond = np.cumsum(weights[:0:-1])[::-1] / weights.sum()  # beyond[k]: above level k
    return int(np.count_nonzero(beyond >= tail)) + 1


def _kept_mode_levels(mass: np.ndarray) -> tuple[int, int]:
    """Kept levels of modes c and d of a two-mode state whose photon-number
    mass is mass[p, k] (|phi[p, k]|^2 for a pure state, rho[p, k, p, k] for a
    mixed one): ``_kept_levels`` of each mode's marginal at ``_TAIL``."""
    return _kept_levels(mass.sum(axis=1), _TAIL), _kept_levels(mass.sum(axis=0), _TAIL)


def choose_cutoff(nu: float, m: int, policy: CutoffPolicy = CutoffPolicy()) -> int:
    """Smallest Fock level holding all but ``tail_tol`` of the initial state,
    plus the policy's safety margin.

    Kerr evolution is diagonal in photon number, so the cutoff chosen for the
    initial state is valid for the whole downstream pipeline.
    """
    if nu < 0 or m < 0:
        raise ValueError("nu and m must be non-negative")
    w = _converged_weights(nu, m, policy.tail_tol)
    return m + _kept_levels(w, policy.tail_tol) - 1 + policy.safety_margin


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


def build_initial_state(
    spec: InitialStateSpec,
    n_cut: int | None = None,
    policy: CutoffPolicy = CutoffPolicy(),
) -> np.ndarray:
    """The read-only amplitudes of the input state over levels 0..n_cut,
    renormalized there: m creation operators applied to |alpha> (m = 0 is the
    coherent state itself).

    The unnormalized amplitude at level n+m is
    exp(-nu/2) * alpha^n * sqrt((n+m)!) / n!, zero below level m; at nu = 0
    the state is |m>.  The cutoff is chosen when not given.  Raises
    CutoffTooSmallError when levels 0..n_cut drop ``tail_tol`` or more of
    the occupation weight, which includes n_cut < m.
    """
    nu, m = spec.nu, spec.m
    if n_cut is None:
        n_cut = choose_cutoff(nu, m, policy)
    if _kept_levels(_converged_weights(nu, m, policy.tail_tol), policy.tail_tol) > n_cut - m + 1:
        raise CutoffTooSmallError(
            f"n_cut={n_cut} drops tail_tol {policy.tail_tol:.3e} or more of the state "
            f"for nu={nu}, m={m}"
        )
    amps = np.zeros(n_cut + 1, dtype=complex)
    if nu == 0.0:
        amps[m] = 1.0
    else:
        n = np.arange(n_cut - m + 1)
        amps[m:] = np.exp(0.5 * _log_level_weights(nu, m, len(n)) + 1j * n * spec.theta)
        amps /= np.linalg.norm(amps)
    amps.setflags(write=False)
    return amps

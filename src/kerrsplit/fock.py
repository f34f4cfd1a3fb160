"""Single-mode pure states in a truncated Fock basis.

A state is a plain 1-D complex array of amplitudes over levels 0..n_cut;
everything downstream (Kerr evolution, beam splitting, phase-space maps)
operates on the arrays built here.  One builder,
``build_initial_state``, makes every input, coherent or photon-added, and
renormalizes it over the truncated basis.  One tail rule, ``_kept_levels``
(the fewest leading levels that hold all but a tail of the weight), runs
once per state built: it either chooses the cutoff, when none is given, or
refuses a given cutoff that would drop ``tail_tol`` of the state.
The builder and ``choose_cutoff`` also own the size rule, d = n_cut + 1 <=
``dim_cap``: ``_dim_lower_bound``, which allocates nothing, is checked
before the tail rule builds its weight array, and the built d after it, so
a huge ``nu`` or ``n_cut`` is refused at once and no caller keeps a copy.
The tail rule also trims the output modes of the splitter, in
``beamsplitter`` and ``decoherence``; each caller names its tail.
``check_amplitudes`` is the input rule of the entropy and loss curves and
of the Husimi map: a finite 1-D array with a finite, nonzero norm.
``check_finite`` is their output rule: the function that computes a number
refuses it when it is not finite, so no caller checks one.
Factorials and binomials are in log space, from ``log_factorials``, so
levels near n = 100 stay finite.
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


class CutoffTooSmallError(ValueError):
    """The requested Fock cutoff drops more tail mass than the policy allows."""


class InfeasibleScenarioError(RuntimeError):
    """A scenario needs a matrix beyond the dimension cap, or gives a non-finite result."""


def check_dim_cap(side: int, dim_cap: int, what: str) -> None:
    """Refuse, before any work, a ``side`` x ``side`` matrix over the cap."""
    if side > dim_cap:
        raise InfeasibleScenarioError(
            f"{what} needs a {side} x {side} matrix, over dim_cap {dim_cap}"
        )


def check_finite(values, what: str):
    """``values`` if all are finite; InfeasibleScenarioError naming ``what`` otherwise."""
    if not np.isfinite(values).all():
        raise InfeasibleScenarioError(f"{what} gave a non-finite result")
    return values


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


def check_amplitudes(amplitudes) -> tuple[np.ndarray, float]:
    """``amplitudes`` as a complex array and its squared norm, if it is a
    finite 1-D array with a finite, nonzero norm; ValueError otherwise."""
    c = np.asarray(amplitudes, dtype=complex)
    if c.ndim != 1 or not np.isfinite(c).all():
        raise ValueError(f"amplitudes must be a finite 1-D array, got shape {c.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm = float((np.abs(c) ** 2).sum())
    if not 0.0 < norm < math.inf:
        raise ValueError("amplitudes must have a finite, nonzero norm")
    return c, norm


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


def choose_cutoff(
    nu: float,
    m: int,
    policy: CutoffPolicy = CutoffPolicy(),
    dim_cap: int = DEFAULT_DIM_CAP,
) -> int:
    """Smallest Fock level holding all but ``tail_tol`` of the initial state,
    plus the policy's safety margin.

    Kerr evolution is diagonal in photon number, so the cutoff chosen for the
    initial state is valid for the whole downstream pipeline.  More than
    ``dim_cap`` levels raise InfeasibleScenarioError, at once when
    ``_dim_lower_bound`` is over the cap.
    """
    if nu < 0 or m < 0:
        raise ValueError("nu and m must be non-negative")
    check_real("nu", nu)
    what = f"state (nu={nu:g}, m={m})"
    check_dim_cap(_dim_lower_bound(nu, m, policy), dim_cap, what)
    w = _converged_weights(nu, m, policy.tail_tol)
    n_cut = m + _kept_levels(w, policy.tail_tol) - 1 + policy.safety_margin
    check_dim_cap(n_cut + 1, dim_cap, what)
    return n_cut


def _dim_lower_bound(nu: float, m: int, policy: CutoffPolicy) -> int:
    """A lower bound on choose_cutoff(nu, m, policy) + 1 that allocates nothing:
    below the Poisson median, which is at least nu - ln 2, the tail holds half
    the mass or more, and photon addition only moves weight upward."""
    past_median = max(0, math.ceil(nu - math.log(2.0))) if policy.tail_tol < 0.5 else 0
    return m + policy.safety_margin + 1 + past_median


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
    dim_cap: int = DEFAULT_DIM_CAP,
) -> np.ndarray:
    """The read-only amplitudes of the input state over levels 0..n_cut,
    renormalized there: m creation operators applied to |alpha> (m = 0 is the
    coherent state itself).

    The unnormalized amplitude at level n+m is
    exp(-nu/2) * alpha^n * sqrt((n+m)!) / n!, zero below level m; at nu = 0
    the state is |m>.  The cutoff is chosen by ``choose_cutoff`` when not
    given.  A given one raises InfeasibleScenarioError when n_cut + 1 is
    over ``dim_cap``, and CutoffTooSmallError when levels 0..n_cut drop
    ``tail_tol`` or more of the occupation weight, which includes n_cut < m;
    one below ``_dim_lower_bound`` is refused before any weights are built.
    A phase n * theta that overflows raises InfeasibleScenarioError naming
    theta, where the amplitudes would be NaN (at nu = 0 there is no phase).
    """
    nu, m = spec.nu, spec.m
    if n_cut is None:
        n_cut = choose_cutoff(nu, m, policy, dim_cap)
    else:
        check_dim_cap(n_cut + 1, dim_cap, f"state (nu={nu:g}, m={m})")
        if (n_cut + 1 < _dim_lower_bound(nu, m, policy) - policy.safety_margin
                or _kept_levels(_converged_weights(nu, m, policy.tail_tol), policy.tail_tol)
                > n_cut - m + 1):
            raise CutoffTooSmallError(
                f"n_cut={n_cut} drops tail_tol {policy.tail_tol:.3e} or more of the state "
                f"for nu={nu}, m={m}"
            )
    amps = np.zeros(n_cut + 1, dtype=complex)
    if nu == 0.0:
        amps[m] = 1.0
    else:
        if not math.isfinite((n_cut - m) * spec.theta):
            raise InfeasibleScenarioError(
                f"state (nu={nu:g}, m={m}): the phase of level {n_cut} at "
                f"theta={spec.theta!r} gave a non-finite result"
            )
        n = np.arange(n_cut - m + 1)
        amps[m:] = np.exp(0.5 * _log_level_weights(nu, m, len(n)) + 1j * n * spec.theta)
        amps /= np.linalg.norm(amps)
    amps.setflags(write=False)
    return amps

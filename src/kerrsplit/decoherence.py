"""Zero-temperature photon loss on the two output modes.

Each mode decays independently with rate gamma_j.  For g = gamma_j*tau its
channel is the amplitude-damping Kraus sum (Nielsen & Chuang, section
8.3.5), which ``_damp_mode`` runs on that mode's (row, column) axes of a
density matrix:

    rho[..m..n..] <- sum_p a_p[m] * a_p[n] * rho[..m+p..n+p..],
    a_p[m] = C(m+p, p)^(1/2) * (1 - exp(-2g))^(p/2) * exp(-g*m),

exact on a truncated basis because every p-sum terminates at the cutoff.
From one (d, d) table a_p[m], each p adds a_p[m] * a_p[n] times the block
of rho shifted by p on the mode's (m, n) axes to the leading (d - p, d - p)
block of a zero-initialised output.  The channels of the two modes commute,
and each is a semigroup in tau.  Free mode rotations are local unitaries
that cannot move any entanglement quantity computed downstream, so they are
omitted.  Mode 1 is output mode c, mode 2 is mode d; rho[m1, m2, n1, n2]
may keep d1 levels of mode c and d2 of mode d.

``negativity_decay_curve`` damps before the splitter.  At equal rates the
loss generator sum_j gamma D[a_j] is invariant under any passive two-mode
unitary, and the vacuum in the splitter's second port is a fixed point of
loss, so the two-mode channel takes BS (sigma x |0><0|) BS^dag to
BS (damp_1(sigma) x |0><0|) BS^dag for the single-mode sigma = |c><c|
(uniform loss commutes with linear optics; Oszmaniec & Brod, New J. Phys.
20, 092002 (2018)).  Each damped point runs ``_damp_mode`` on the d x d
sigma, then splits it.  Unequal rates factor exactly, as the modes' channels
commute and each is a semigroup: the smaller rate acts on sigma, and the
excess on the faster mode after the split.

The split of the damped sigma', ``beamsplitter._split_density``, drops the
splitter's i^k, a local phase on mode d that the phase-covariant channel
and E_N ignore.  Each mode keeps the fewest leading levels whose marginal
mass beyond them is below ``_EN_TAIL``, by the rule of the Fock cutoff,
from the O(d) marginal of the diagonal of sigma' after the split
(``beamsplitter._kept_split_levels``); after an excess rate
``_kept_mode_levels`` trims them again from the diagonal of rho.  The error in
E_N is O(sqrt(_EN_TAIL)) by the gentle-measurement lemma (Winter 1999), and
up to about 2 * sqrt(_EN_TAIL) in practice: at a coherent input with
tau = 0 and little loss, where the E_N of about 1e-8 is all the Fock
cutoff's, a trim at 1e-20 lost 1.2e-10 of it.  So ``_EN_TAIL`` is 1e-21,
which keeps E_N within 1e-10 of the untrimmed one for one more kept level
per mode.  It is apart from the entropy curves' ``entanglement._TAIL``
(1e-16), whose error in the entropy grows as tail * log(1/tail), not as its
square root.  At gamma*tau = 0, E_N is the closed form
``pure_state_log_negativity`` of the untrimmed split state.

The loss path's two input rules live here, and ``sweep`` calls them rather
than keeping copies.  ``ChannelParams._damping_times`` owns gamma*tau: each
value must be a finite number >= 0, a value above 0 needs gamma1 > 0, and
both damping exponents, at most max(gamma1, gamma2) * gamma*tau / gamma1,
must be finite; it returns each point's tau.  ``_check_loss_cap`` owns the
cap: max(d, n0^2) <= ``dim_cap`` for the d input levels and the n0 levels
per mode that the undamped split keeps.

Both routes gather rho from sigma' with ``_split_density``.  At equal
rates rho is swap invariant, so its partial transpose X = A + iB is
real symmetric in a fixed basis (the orthogonal class of Dyson's threefold
way, J. Math. Phys. 3, 1199 (1962)): the swap S of the modes gives
S X S = conj(X), so V = (1 - iS)/sqrt(2) is unitary and V^dag X V = A + BS
is real.  ``_split_real_form`` builds it from the gathers of the real and
imaginary parts of sigma' for the real eigvalsh of ``log_negativity``;
unequal rates gather the complex rho and take the complex eigvalsh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamsplitter import _kept_split_levels, _split_density, split_amplitudes
from .entanglement import log_negativity, partial_transpose, pure_state_log_negativity
from .fock import (
    DEFAULT_DIM_CAP,
    _kept_levels,
    check_amplitudes,
    check_dim_cap,
    check_real,
    log_factorials,
)

__all__ = [
    "ChannelParams",
    "negativity_decay_curve",
]

_EN_TAIL = 1e-21  # the loss curves' trim tail (module docstring)


@dataclass(frozen=True)
class ChannelParams:
    """Coupling rates of modes c and d to their environments (inverse time)."""

    gamma1: float = 0.1
    gamma2: float = 0.1

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            if check_real(name, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    def _damping_times(self, gamma_tau_values) -> list[tuple[float, float]]:
        """(gamma*tau, tau = gamma*tau / gamma1) for each of the sequence
        ``gamma_tau_values``.  A ValueError names the quantity when a value is
        not a finite number >= 0, is above 0 while gamma1 = 0, or makes
        max(gamma1, gamma2) * tau overflow."""
        if not np.iterable(gamma_tau_values):
            raise TypeError(f"gamma_tau_values must be a sequence, got {gamma_tau_values!r}")
        times = []
        for g in gamma_tau_values:
            g = float(check_real("gamma_tau", g))
            if g < 0:
                raise ValueError(f"gamma_tau must be >= 0, got {g}")
            if g > 0 and self.gamma1 <= 0:
                raise ValueError("gamma1 must be > 0 to reach gamma_tau > 0")
            tau = g / float(self.gamma1) if g else 0.0  # Python floats overflow silently
            if not math.isfinite(float(max(self.gamma1, self.gamma2)) * tau):
                raise ValueError(f"max(gamma1, gamma2) * gamma_tau / gamma1 must be finite, "
                                 f"got gamma_tau={g} with gamma1={self.gamma1!r}, "
                                 f"gamma2={self.gamma2!r}")
            times.append((g, tau))
        return times


def _check_loss_cap(amplitudes: np.ndarray, dim_cap: int, what: str) -> None:
    """The loss path's cap: refuse max(d, n0^2) > ``dim_cap`` for the d input
    ``amplitudes``, d first.  The path builds the d x d single-mode density
    matrix sigma, the (d, d) split state at gamma*tau = 0, and at each damped
    point a partial transpose of side n^2, n the kept levels per mode.  Loss
    only thins the photon-number distribution, so no damped point keeps more
    than n0 = ``_kept_split_levels`` of |c|^2 at ``_EN_TAIL``, read from the
    O(d) marginal with no two-mode array built."""
    check_dim_cap(len(amplitudes), dim_cap, what)
    n0 = _kept_split_levels(np.abs(amplitudes) ** 2, _EN_TAIL)
    check_dim_cap(n0 * n0, dim_cap, what)


def _kept_mode_levels(mass: np.ndarray, tail: float) -> tuple[int, int]:
    """Kept levels of modes c and d of a two-mode state whose photon-number
    mass is mass[p, k] (rho[p, k, p, k]): ``_kept_levels`` of each mode's
    marginal at ``tail``."""
    return _kept_levels(mass.sum(axis=1), tail), _kept_levels(mass.sum(axis=0), tail)


def _damp_mode(rho: np.ndarray, g: float, axes: tuple[int, int]) -> np.ndarray:
    """One mode's Kraus sum over its (row, column) ``axes`` of rho, with
    g = gamma*tau:

    rho[..m..n..] <- sum_p a_p[m] a_p[n] rho[..m+p..n+p..],

    one slice update per p on a new, zero-initialised array; rho is never
    written.  g = 0 returns rho itself.
    """
    if not g:
        return rho
    d = rho.shape[axes[0]]
    lgfact = log_factorials(d)
    log_loss = math.log(-math.expm1(-2.0 * g))  # ln(1 - exp(-2g))
    p, m = np.ogrid[:d, :d]
    # a[p, m] = a_p[m]; only entries with m + p < d are ever read
    a = np.exp(0.5 * (lgfact[np.minimum(m + p, d - 1)] - lgfact[p] - lgfact[m]
                      + p * log_loss) - g * m)
    src = np.moveaxis(rho, axes, (-2, -1))  # the damped mode's (m, n) axes last
    out = np.zeros_like(src)
    for q in range(d):
        k = d - q
        out[..., :k, :k] += a[q, :k, None] * a[q, :k] * src[..., q:, q:]
    return np.moveaxis(out, (-2, -1), axes)


def _split_real_form(sigma: np.ndarray, n: int) -> np.ndarray:
    """A real array whose partial transpose is V^dag X V, for X = A + iB the
    partial transpose of the split state rho of sigma' at n levels per mode,
    so ``log_negativity`` of it is log_negativity(rho).

    The swap S of the modes gives S X S = conj(X), so S commutes with A and
    anticommutes with B, V = (1 - iS)/sqrt(2) is unitary, and V^dag X V =
    A + BS is real symmetric: in rho's layout, Re rho[i, j, k, l] +
    Im rho[l, j, k, i].  The real and imaginary parts are gathered apart, so
    no complex rho is built, and the real part is partial transposed before
    the imaginary part is gathered.  The result is a view of that contiguous
    partial transpose, so ``log_negativity`` copies nothing before eigvalsh
    does: one n^4 array is alive when it does.
    """
    pt = partial_transpose(_split_density(sigma.real, n))
    pt += _split_density(sigma.imag, n).transpose(2, 1, 3, 0)
    return pt.swapaxes(0, 2)


def negativity_decay_curve(
    amplitudes: np.ndarray,
    gamma_tau_values,
    params: ChannelParams = ChannelParams(),
    dim_cap: int = DEFAULT_DIM_CAP,
) -> list[tuple[float, float]]:
    """Log negativity at each gamma*tau on the grid of the damped splitter
    output of the single-mode ``amplitudes`` c (vacuum in the second port).

    The abscissa is gamma1 * tau (the paper-style axis; with equal couplings
    it is the common gamma*tau).  ``amplitudes`` must pass
    ``fock.check_amplitudes`` and are normalised first, so the curve of any
    multiple of c is that of c.  Both input rules of the module
    docstring run before any work, so infeasible inputs fail fast: the cap,
    ``_check_loss_cap``, and the gamma*tau rule,
    ``ChannelParams._damping_times``, whose tau each damped point uses.
    """
    c, norm = check_amplitudes(amplitudes)
    c = c / math.sqrt(norm)
    _check_loss_cap(c, dim_cap, "loss curve")
    times = params._damping_times(gamma_tau_values)
    sigma = np.outer(c, c.conj())
    slow, fast = sorted((params.gamma1, params.gamma2))
    curve = []
    for g, tau in times:
        if g == 0.0:
            curve.append((g, pure_state_log_negativity(split_amplitudes(c))))
            continue
        damped = _damp_mode(sigma, slow * tau, (0, 1))
        n = _kept_split_levels(damped.diagonal().real, _EN_TAIL)
        if fast == slow:
            curve.append((g, log_negativity(_split_real_form(damped, n))))
            continue
        rho = _split_density(damped, n)
        faster = (0, 2) if params.gamma1 > params.gamma2 else (1, 3)
        rho = _damp_mode(rho, (fast - slow) * tau, faster)
        n1, n2 = _kept_mode_levels(np.einsum("abab->ab", rho).real, _EN_TAIL)
        curve.append((g, log_negativity(rho[:n1, :n2, :n1, :n2])))
    return curve

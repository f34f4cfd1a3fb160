import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrsplit import entanglement
from kerrsplit.beamsplitter import output_at_time, split_amplitudes
from kerrsplit.decoherence import ChannelParams, negativity_decay_curve
from kerrsplit.entanglement import (
    entanglement_entropy,
    entropy_curve,
    log_negativity,
    partial_transpose,
    pure_state_log_negativity,
    schmidt_spectrum,
    von_neumann_entropy,
)
from kerrsplit.fock import (
    InfeasibleScenarioError,
    InitialStateSpec,
    build_initial_state,
    choose_cutoff,
)

from test_cli import _nan_spectrum
from test_decoherence import pure_to_density

FOCK5 = np.eye(9, dtype=complex)[5]  # |5> over levels 0..8


def bell_like():
    phi = np.zeros((2, 2), dtype=complex)
    phi[0, 1] = phi[1, 0] = 1.0 / math.sqrt(2.0)
    return phi


def random_phi(rng, d):
    phi = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return phi / np.linalg.norm(phi)


def binomial_entropy(n):
    """Direct evaluation of -sum C(n,p)/2^n log2(C(n,p)/2^n)."""
    lam = [math.comb(n, p) / 2.0**n for p in range(n + 1)]
    return -sum(x * math.log2(x) for x in lam)


def test_rank_one_spectrum():
    phi = output_at_time(InitialStateSpec(nu=5.0), 0.0)
    lam = schmidt_spectrum(phi)
    assert abs(lam[0] - 1.0) < 1e-12
    assert np.all(lam[1:] < 1e-12)


def test_fock5_split_spectrum_is_binomial():
    lam = schmidt_spectrum(split_amplitudes(FOCK5))
    want = sorted((math.comb(5, p) / 32.0 for p in range(6)), reverse=True)
    assert np.allclose(lam[:6], want, atol=1e-13)
    assert abs(lam.sum() - 1.0) < 1e-10


def test_entropy_of_uniform_spectrum():
    for q in (2, 3, 8):
        assert abs(von_neumann_entropy(np.full(q, 1.0 / q)) - math.log2(q)) < 1e-12


def test_entropy_zero_for_pure_spectrum():
    assert von_neumann_entropy(np.array([1.0, 0.0, 0.0])) == 0.0


def test_binomial_entropy_value():
    # six-term oracle evaluates to ~2.198 ebits
    want = binomial_entropy(5)
    assert abs(want - 2.198192411043098) < 1e-12
    got = entanglement_entropy(split_amplitudes(FOCK5))
    assert abs(got - want) < 1e-10


def test_entropy_same_from_either_mode_reduction():
    # independent oracle: diagonalize both reduced density matrices
    rng = np.random.default_rng(3)
    for _ in range(4):
        phi = random_phi(rng, 9)
        rho_c = phi @ phi.conj().T
        rho_d = phi.T @ phi.conj()
        ent_c = von_neumann_entropy(np.linalg.eigvalsh(rho_c))
        ent_d = von_neumann_entropy(np.linalg.eigvalsh(rho_d))
        ent_svd = entanglement_entropy(phi)
        assert abs(ent_c - ent_d) < 1e-10
        assert abs(ent_svd - ent_c) < 1e-10


def test_entropy_bounded_by_log_rank():
    rng = np.random.default_rng(4)
    phi = random_phi(rng, 7)
    assert 0.0 <= entanglement_entropy(phi) <= math.log2(7)


def test_pure_to_density_basics():
    rng = np.random.default_rng(5)
    phi = random_phi(rng, 5)
    rho = pure_to_density(phi)
    mat = rho.reshape(25, 25)
    assert abs(np.trace(mat) - 1.0) < 1e-12
    assert abs(np.trace(mat @ mat) - 1.0) < 1e-10
    eig = np.linalg.eigvalsh(mat)
    assert abs(eig[-1] - 1.0) < 1e-12
    assert np.all(eig[:-1] < 1e-12)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(6)
    rho = pure_to_density(random_phi(rng, 4))
    assert np.array_equal(partial_transpose(partial_transpose(rho)), rho)


def test_partial_transpose_of_product_state_stays_positive():
    a = np.array([0.6, 0.8], dtype=complex)
    b = np.array([1.0, 0.0], dtype=complex)
    rho = pure_to_density(np.outer(a, b))
    eig = np.linalg.eigvalsh(partial_transpose(rho).reshape(4, 4))
    assert eig.min() > -1e-12


def test_bell_partial_transpose_minimum_eigenvalue():
    rho = pure_to_density(bell_like())
    eig = np.linalg.eigvalsh(partial_transpose(rho).reshape(4, 4))
    assert abs(eig.min() + 0.5) < 1e-12


def test_log_negativity_separable_and_bell():
    a = np.array([0.6, 0.8], dtype=complex)
    sep = pure_to_density(np.outer(a, a))
    assert log_negativity(sep) < 1e-12
    assert abs(log_negativity(pure_to_density(bell_like())) - 1.0) < 1e-12


def test_pure_state_negativity_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(4):
        phi = random_phi(rng, 6)
        direct = log_negativity(pure_to_density(phi))
        closed = pure_state_log_negativity(phi)
        assert abs(direct - closed) < 1e-10


def test_negativity_at_least_entropy_for_pure_states():
    rng = np.random.default_rng(8)
    for _ in range(4):
        phi = random_phi(rng, 6)
        assert pure_state_log_negativity(phi) >= entanglement_entropy(phi) - 1e-10


def test_negativity_invariant_under_local_phase_masks():
    rng = np.random.default_rng(9)
    phi = random_phi(rng, 6)
    rho = pure_to_density(phi)
    base = log_negativity(rho)
    for _ in range(3):
        mask_c = np.exp(1j * rng.uniform(0, 2 * math.pi, size=6))
        mask_d = np.exp(1j * rng.uniform(0, 2 * math.pi, size=6))
        rotated = pure_to_density(mask_c[:, None] * phi * mask_d[None, :])
        assert abs(log_negativity(rotated) - base) < 1e-10


def test_log_negativity_mode_choice_agrees():
    rng = np.random.default_rng(10)
    rho = pure_to_density(random_phi(rng, 5))
    transpose_d = np.swapaxes(rho, 1, 3).reshape(25, 25)
    trace_norm_d = np.abs(np.linalg.eigvalsh(transpose_d)).sum()
    assert abs(log_negativity(rho) - math.log2(trace_norm_d)) < 1e-10


@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_entropy_is_never_negative_at_revivals(m, tau):
    entropy = entanglement_entropy(output_at_time(InitialStateSpec(nu=5.0, m=m), tau))
    assert entropy >= 0.0
    assert math.copysign(1.0, entropy) == 1.0  # no -0.0 either
    if m == 0:
        assert entropy == 0.0  # rank one up to roundoff


def test_entropy_of_rounded_rank_one_spectrum_is_zero():
    # a leading weight just above 1 would give -6.4e-16 unclipped
    assert von_neumann_entropy(np.array([1.0 + 4.4e-16, 1e-20])) == 0.0


def test_non_finite_spectra_are_refused(monkeypatch):
    """A NaN or infinite spectrum, a stack with one NaN row, a NaN rho and a
    NaN eigensolve each raise the named error rather than return NaN."""
    stack = np.array([[0.5, 0.5], [np.nan, 0.5], [1.0, 0.0]])
    assert von_neumann_entropy(stack[[0, 2]]).tolist() == [1.0, 0.0]
    rho = pure_to_density(bell_like())
    rho[0, 0, 0, 0] = np.nan
    cases = [lambda: von_neumann_entropy(np.array([0.5, np.nan, 0.5])),
             lambda: von_neumann_entropy(np.array([np.inf, 0.0])),
             lambda: von_neumann_entropy(stack),
             lambda: log_negativity(rho)]
    for case in cases:
        with pytest.raises(InfeasibleScenarioError, match="non-finite result$"):
            case()
    monkeypatch.setattr(np.linalg, "eigvalsh", _nan_spectrum)
    with pytest.raises(InfeasibleScenarioError, match="non-finite result$"):
        log_negativity(pure_to_density(bell_like()))
    monkeypatch.setattr(np.linalg, "svd", _nan_spectrum)
    with pytest.raises(InfeasibleScenarioError, match="non-finite result$"):
        pure_state_log_negativity(bell_like())


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
def test_entropy_curve_refuses_a_nan_svd(monkeypatch, workers):
    """With two workers the two taus run as two pool tasks, so the refusal
    crosses the pool."""
    monkeypatch.setattr(entanglement, "_worker_count", lambda: workers)
    monkeypatch.setattr(np.linalg, "svd", _nan_spectrum)
    c = build_initial_state(InitialStateSpec(nu=5.0))
    with pytest.raises(InfeasibleScenarioError, match="non-finite result$"):
        entropy_curve(c, [0.25, 0.5])


# (routine to break, channel rates, gamma*tau): the closed form at gamma*tau
# = 0, the real eigensolve at equal rates, the complex one at unequal rates
NAN_LOSS_POINTS = {"closed-form": ("svd", (0.1, 0.1), 0.0),
                   "equal-rates": ("eigvalsh", (0.1, 0.1), 0.5),
                   "unequal-rates": ("eigvalsh", (0.1, 0.3), 0.5)}


@pytest.mark.parametrize("case", sorted(NAN_LOSS_POINTS))
def test_negativity_decay_curve_refuses_a_nan_spectrum(monkeypatch, case):
    routine, rates, gamma_tau = NAN_LOSS_POINTS[case]
    monkeypatch.setattr(np.linalg, routine, _nan_spectrum)
    c = build_initial_state(InitialStateSpec(nu=1.0, m=1))
    with pytest.raises(InfeasibleScenarioError, match="non-finite result$"):
        negativity_decay_curve(c, [gamma_tau], ChannelParams(*rates))


# Exact symmetries of E(tau) for the split Kerr state: n(n-1) is even, so tau
# has period 1; the state at 1 - tau is the conjugate of the state at tau up
# to the rotation exp(2i*theta*N), which the splitter turns into a local one,
# so E is symmetric about tau = 1/2 and independent of theta.
_E_TOL = 1e-12
_inputs = dict(nu=st.floats(0.0, 15.0), m=st.integers(0, 5), theta=st.floats(0.0, 1.0),
               tau=st.floats(0.0, 1.0))


def _entropy_at(nu, m, theta, tau):
    return entanglement_entropy(output_at_time(InitialStateSpec(nu=nu, theta=theta, m=m), tau))


@settings(max_examples=60, deadline=None)
@given(**_inputs)
def test_entropy_has_period_one(nu, m, theta, tau):
    assert abs(_entropy_at(nu, m, theta, tau + 1.0) - _entropy_at(nu, m, theta, tau)) <= _E_TOL


@settings(max_examples=60, deadline=None)
@given(**_inputs)
def test_entropy_is_symmetric_about_half_revival(nu, m, theta, tau):
    assert abs(_entropy_at(nu, m, theta, 1.0 - tau) - _entropy_at(nu, m, theta, tau)) <= _E_TOL


@settings(max_examples=60, deadline=None)
@given(**_inputs)
def test_entropy_does_not_depend_on_theta(nu, m, theta, tau):
    assert abs(_entropy_at(nu, m, theta, tau) - _entropy_at(nu, m, 0.0, tau)) <= _E_TOL


@settings(max_examples=60, deadline=None)
@given(**_inputs)
def test_entropy_lies_between_zero_and_log2_d(nu, m, theta, tau):
    d = choose_cutoff(nu, m) + 1
    assert 0.0 <= _entropy_at(nu, m, theta, tau) <= math.log2(d)


def test_entropy_curve_of_no_taus_is_empty():
    c = build_initial_state(InitialStateSpec(nu=5.0, m=2))
    assert entropy_curve(c, []).shape == (0,)


@pytest.mark.parametrize("curve", [
    lambda c: entropy_curve(c, [0.0, 0.25]),
    lambda c: negativity_decay_curve(c, [0.0, 0.5]),
], ids=["entropy", "negativity"])
@pytest.mark.parametrize("amplitudes", [
    np.array([1.0, np.nan]),
    np.zeros(4),
    np.ones((2, 3)) / math.sqrt(6.0),
    np.zeros(0),
    np.full(2, 1e300),
], ids=["nan", "zeros", "2d", "empty", "norm-overflows"])
def test_entropy_and_loss_curves_refuse_the_same_amplitudes(curve, amplitudes):
    """Both curves name the amplitudes, before any trim, warning or numpy
    error, when they are not a finite 1-D array with a finite, nonzero norm."""
    with pytest.raises(ValueError, match="amplitudes"):
        curve(amplitudes)


@pytest.mark.parametrize("curve, times, error, name", [
    (entropy_curve, 0.5, ValueError, "taus"),
    (entropy_curve, [[0.1, 0.2]], ValueError, "taus"),
    (negativity_decay_curve, 0.5, TypeError, "gamma_tau_values"),
    (negativity_decay_curve, [[0.1, 0.2]], TypeError, "gamma_tau"),
], ids=["entropy-scalar", "entropy-2d", "negativity-scalar", "negativity-2d"])
def test_entropy_and_loss_curves_name_a_malformed_time_argument(curve, times, error, name):
    """A time argument that is not a 1-D sequence is named, not an unnamed
    TypeError from len() or iteration, nor a silently 2-D result."""
    with pytest.raises(error, match=name):
        curve(np.ones(2) / math.sqrt(2.0), times)


@settings(max_examples=100, deadline=None)
@given(nu=st.floats(0.25, 20.0), m=st.integers(0, 4), tau=st.floats(0.0, 1.0))
def test_claim_2_one_more_photon_gives_more_entropy(nu, m, tau):
    """The paper's claim 2 pointwise: one more added photon gives more
    entanglement at every time.  A scan of 401 tau at 41 nu in [0.25, 20],
    m up to 5, found the smallest gain 6.8e-3 ebits (nu = 20, m 0 to 1)."""
    def entropy(m):
        return entropy_curve(build_initial_state(InitialStateSpec(nu=nu, m=m)), [tau])[0]

    assert entropy(m + 1) > entropy(m)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import comb, gammaln

from kerrsplit.beamsplitter import output_at_time
from kerrsplit.decoherence import (
    ChannelParams,
    damp,
    negativity_decay_curve,
)
from kerrsplit.entanglement import (
    log_negativity,
    pure_state_log_negativity,
    pure_to_density,
)
from kerrsplit.fock import InfeasibleScenarioError, InitialStateSpec, _kept_mode_levels

GAMMA = ChannelParams()  # 0.1 / 0.1


def kraus_damp(rho, tau, params=GAMMA):
    """Independent oracle: amplitude-damping Kraus operators per mode,
    K_p[m, m+p] = sqrt(C(m+p, p)) * eta^(m/2) * (1-eta)^(p/2), eta = e^(-2g),
    on rho of shape (d1, d2, d1, d2)."""
    d1, d2 = rho.shape[:2]

    def mode_kraus(g, d):
        eta = math.exp(-2.0 * g)
        ops = []
        for p in range(d):
            k = np.zeros((d, d))
            for m in range(d - p):
                k[m, m + p] = math.sqrt(comb(m + p, p)) * eta ** (m / 2.0) * (1.0 - eta) ** (p / 2.0)
            ops.append(k)
        return ops

    mat = rho.reshape(d1 * d2, d1 * d2)
    out = np.zeros_like(mat)
    for k1 in mode_kraus(params.gamma1 * tau, d1):
        for k2 in mode_kraus(params.gamma2 * tau, d2):
            k = np.kron(k1, k2)
            out += k @ mat @ k.conj().T
    return out.reshape(rho.shape)


def damp_direct(rho, tau, params=GAMMA):
    """Second oracle: the closed-form double p-sum of the module docstring,
    evaluated literally per (p1, p2) block on rho of shape (d1, d2, d1, d2);
    O(d1^3 d2^3), for small systems."""
    rho = np.asarray(rho, dtype=complex)
    d1, d2 = rho.shape[:2]
    lgfact = gammaln(np.arange(max(d1, d2)) + 1.0)

    def r_factors(g, p, d):
        m = np.arange(d - p)
        if g == 0.0:
            return np.ones((d - p, d - p))  # only reached with p = 0
        logc = 0.5 * (lgfact[m + p] - lgfact[p] - lgfact[m])
        loss = p * math.log(-math.expm1(-2.0 * g)) if p > 0 else 0.0
        return np.exp(logc[:, None] + logc[None, :] + loss - g * (m[:, None] + m[None, :]))

    g1, g2 = params.gamma1 * tau, params.gamma2 * tau
    p1_max = d1 if g1 > 0 else 1
    p2_max = d2 if g2 > 0 else 1
    out = np.zeros_like(rho)
    for p1 in range(p1_max):
        r1 = r_factors(g1, p1, d1)
        for p2 in range(p2_max):
            r2 = r_factors(g2, p2, d2)
            block = rho[p1:, p2:, p1:, p2:]
            w = r1[:, None, :, None] * r2[None, :, None, :]
            out[: d1 - p1, : d2 - p2, : d1 - p1, : d2 - p2] += w * block
    return out


def random_pure_rho(rng, d, d2=None):
    shape = (d, d if d2 is None else d2)
    phi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return pure_to_density(phi / np.linalg.norm(phi))


def test_zero_time_is_identity():
    rng = np.random.default_rng(1)
    rho = random_pure_rho(rng, 4)
    out = damp(rho, 0.0)
    assert np.array_equal(out, rho)
    assert not np.shares_memory(out, rho)


def test_single_photon_survival():
    phi = np.zeros((2, 2), dtype=complex)
    phi[1, 0] = 1.0
    rho = pure_to_density(phi)
    for gamma_tau in (0.05, 0.3, 1.0):
        out = damp(rho, gamma_tau / GAMMA.gamma1)
        assert abs(out[1, 0, 1, 0].real - math.exp(-2.0 * gamma_tau)) < 1e-10
        assert abs(out[0, 0, 0, 0].real - (1.0 - math.exp(-2.0 * gamma_tau))) < 1e-10


def test_long_time_limit_is_vacuum():
    rng = np.random.default_rng(2)
    rho = random_pure_rho(rng, 4)
    out = damp(rho, 400.0)  # gamma*tau = 40
    want = np.zeros_like(out)
    want[0, 0, 0, 0] = 1.0
    assert np.max(np.abs(out - want)) < 1e-10


def test_trace_hermiticity_positivity():
    rng = np.random.default_rng(3)
    rho = random_pure_rho(rng, 5)
    for tau in (0.5, 2.0, 7.0):
        out = damp(rho, tau)
        mat = out.reshape(25, 25)
        assert abs(np.trace(mat).real - 1.0) < 1e-9
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(mat).min() > -1e-8


def test_semigroup_composition():
    rng = np.random.default_rng(4)
    rho = random_pure_rho(rng, 4)
    once = damp(rho, 1.9)
    twice = damp(damp(rho, 1.2), 0.7)
    assert np.max(np.abs(once - twice)) < 1e-8


def test_matches_kraus_oracle_on_small_systems():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):  # n_cut <= 3
        rho = random_pure_rho(rng, d)
        for tau in (0.4, 1.3):
            assert np.max(np.abs(damp(rho, tau) - kraus_damp(rho, tau))) < 1e-10


def test_matches_direct_double_sum():
    rng = np.random.default_rng(6)
    params = ChannelParams(gamma1=0.1, gamma2=0.25)
    for shape in ((5, 5), (3, 5), (5, 2)):
        rho = random_pure_rho(rng, *shape)
        assert np.max(np.abs(damp(rho, 1.1) - damp_direct(rho, 1.1))) < 1e-12
        assert np.max(np.abs(damp(rho, 1.1, params) - damp_direct(rho, 1.1, params))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    d1=st.integers(2, 5),
    d2=st.integers(2, 5),
    gamma1=st.floats(0.0, 1.0),
    gamma2=st.floats(0.0, 1.0),
    tau=st.floats(0.0, 3.0),
    split=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_is_cptp_and_a_semigroup(d1, d2, gamma1, gamma2, tau, split, seed):
    """Mixed input states, independent rates and dimensions per mode: damp
    matches the Kraus and double-sum oracles, gives a state, and damping for
    tau_a then tau_b is damping for tau_a + tau_b."""
    params = ChannelParams(gamma1=gamma1, gamma2=gamma2)
    rng = np.random.default_rng(seed)
    n = d1 * d2
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = g @ g.conj().T
    rho = (mat / np.trace(mat).real).reshape(d1, d2, d1, d2)

    out = damp(rho, tau, params)
    assert np.max(np.abs(out - kraus_damp(rho, tau, params))) < 1e-10
    assert np.max(np.abs(out - damp_direct(rho, tau, params))) < 1e-10
    out_mat = out.reshape(n, n)
    assert abs(np.trace(out_mat) - 1.0) < 1e-10
    assert np.max(np.abs(out_mat - out_mat.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(out_mat).min() >= -1e-10

    tau_a = split * tau
    tau_b = tau - tau_a
    twice = damp(damp(rho, tau_a, params), tau_b, params)
    assert np.max(np.abs(twice - damp(rho, tau_a + tau_b, params))) < 1e-10


RATES = st.one_of(st.just(0.0), st.floats(0.01, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    d1=st.integers(1, 7),
    d2=st.integers(1, 7),
    gamma1=RATES,
    gamma2=RATES,
    tau=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_damp_never_writes_its_input_and_ignores_its_layout(d1, d2, gamma1, gamma2, tau, seed):
    """damp works on its own copy: the input keeps every bit, and a C-ordered,
    a Fortran-ordered, a strided and a read-only input give the same bits."""
    params = ChannelParams(gamma1=gamma1, gamma2=gamma2)
    rng = np.random.default_rng(seed)
    shape = (d1, d2, d1, d2)
    rho = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    before = rho.tobytes()
    want = damp(rho, tau, params)
    assert rho.tobytes() == before
    assert not np.shares_memory(want, rho)

    fortran = np.asfortranarray(rho)
    big = rng.normal(size=(2 * d1, d2 + 1, d1, 3 * d2)) + 0j
    strided = big[::2, 1:, :, ::3]  # a view inside a larger array
    strided[...] = rho
    big_before = big.tobytes()
    read_only = rho.copy()
    read_only.setflags(write=False)
    for layout in (fortran, strided, read_only):
        assert damp(layout, tau, params).tobytes() == want.tobytes()
    assert big.tobytes() == big_before


@pytest.mark.parametrize("params", [GAMMA, ChannelParams(gamma1=0.1, gamma2=0.3)])
def test_decay_curve_points_do_not_depend_on_each_other(params):
    """Each point damps the same undamped state: a curve equals itself on a
    second call and its one-point curves, and phi is left as it was."""
    phi = output_at_time(InitialStateSpec(nu=2.0, m=1), 0.5)
    before = phi.tobytes()
    grid = [0.0, 0.2, 0.5, 1.0]
    curve = negativity_decay_curve(phi, grid, params)
    assert negativity_decay_curve(phi, grid, params) == curve
    assert [negativity_decay_curve(phi, [g], params)[0] for g in grid] == curve
    assert phi.tobytes() == before


def test_unequal_rates():
    params = ChannelParams(gamma1=0.1, gamma2=0.25)
    phi = np.zeros((2, 2), dtype=complex)
    phi[1, 1] = 1.0  # one photon in each mode
    rho = pure_to_density(phi)
    out = damp(rho, 3.0, params)
    assert abs(out[1, 1, 1, 1].real - math.exp(-2.0 * 0.3) * math.exp(-2.0 * 0.75)) < 1e-12
    assert np.max(np.abs(out - kraus_damp(rho, 3.0, params))) < 1e-10


def test_dimension_cap_enforced():
    rho = np.zeros((9, 9, 9, 9), dtype=complex)
    rho[0, 0, 0, 0] = 1.0
    with pytest.raises(InfeasibleScenarioError):
        damp(rho, 1.0, dim_cap=80)
    with pytest.raises(InfeasibleScenarioError):
        negativity_decay_curve(np.eye(9, dtype=complex) / 3.0, [0.0], dim_cap=80)


def test_damp_input_validation():
    rho = np.zeros((2, 2, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        damp(rho, -1.0)
    with pytest.raises(ValueError):
        damp(np.zeros((2, 2), dtype=complex), 1.0)
    with pytest.raises(ValueError):
        ChannelParams(gamma1=-0.1)
    for rate in (math.nan, math.inf):
        for name in ("gamma1", "gamma2"):
            with pytest.raises(ValueError, match=name):
                ChannelParams(**{name: rate})
    with pytest.raises(TypeError, match="gamma2"):
        ChannelParams(gamma2="0.1")
    for tau in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tau"):
            damp(rho, tau)
    phi = np.eye(2, dtype=complex) / math.sqrt(2.0)
    for gamma_tau in (-0.5, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma_tau"):
            negativity_decay_curve(phi, [0.0, gamma_tau])


@pytest.mark.parametrize(
    "phi, gamma_taus, error, name",
    [
        (np.full((3, 3), np.nan), [0.0, 0.5], ValueError, "phi"),
        (np.ones(4) / 2.0, [0.0, 0.5], ValueError, "phi"),
        (np.zeros((3, 3)), [0.0, 0.5], ValueError, "phi"),
        (np.full((2, 2), 1e200), [0.0, 0.5], ValueError, "phi"),
        (np.eye(2) / math.sqrt(2.0), ["0.5"], TypeError, "gamma_tau"),
    ],
    ids=["nan-phi", "1d-phi", "zero-phi", "mass-overflows-phi", "string-gamma-tau"],
)
def test_bad_curve_input_raises_a_named_error(phi, gamma_taus, error, name):
    with pytest.raises(error, match=name):
        negativity_decay_curve(phi, gamma_taus)


def test_decay_curve_starts_at_closed_form_and_decreases():
    phi = output_at_time(InitialStateSpec(nu=2.0), 0.5)
    curve = negativity_decay_curve(phi, [0.0, 0.1, 0.3, 0.6, 1.0])
    values = [en for _, en in curve]
    assert abs(values[0] - pure_state_log_negativity(phi)) < 1e-10
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert all(v >= 0.0 for v in values)


def untrimmed_curve(phi, gamma_taus, params=GAMMA):
    """E_N on the full d x d support, with an eigensolve at every point."""
    rho0 = pure_to_density(phi)
    return [log_negativity(damp(rho0, g / params.gamma1, params)) for g in gamma_taus]


# (nu, m, gamma_tau values) at the splitter time tau = 1/2: the states of the
# benchmark's decoherence workload and of acceptance criterion 10 (the latter
# only at the first and the last damped point of its grid, to save time)
TRIM_CASES = [
    *[(2.0, m, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]) for m in (0, 2, 4)],
    *[(nu, 0, [0.3]) for nu in (1.0, 2.0, 3.0)],
    *[(5.0, m, [0.1, 1.0]) for m in (0, 5, 10)],
]


@pytest.mark.parametrize("nu, m, gamma_taus", TRIM_CASES)
def test_trimmed_curve_equals_untrimmed_reference(nu, m, gamma_taus):
    phi = output_at_time(InitialStateSpec(nu=nu, m=m), 0.5)
    got = [en for _, en in negativity_decay_curve(phi, gamma_taus)]
    assert np.max(np.abs(np.subtract(got, untrimmed_curve(phi, gamma_taus)))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    nu=st.floats(0.0, 2.0),
    m=st.integers(0, 3),
    tau=st.floats(0.0, 1.0),
    gamma1=st.floats(0.01, 1.0),
    gamma2=st.floats(0.01, 1.0),
    gamma_tau=st.floats(0.0, 2.0),
)
def test_trimmed_curve_equals_untrimmed_reference_property(nu, m, tau, gamma1, gamma2, gamma_tau):
    params = ChannelParams(gamma1=gamma1, gamma2=gamma2)
    phi = output_at_time(InitialStateSpec(nu=nu, m=m), tau)
    gamma_taus = [0.0, gamma_tau]
    got = [en for _, en in negativity_decay_curve(phi, gamma_taus, params)]
    assert np.max(np.abs(np.subtract(got, untrimmed_curve(phi, gamma_taus, params)))) < 1e-10


@pytest.mark.parametrize("nu, m", [(2.0, 0), (2.0, 2), (2.0, 4), (5.0, 0), (5.0, 5), (5.0, 10)])
def test_undamped_eigensolve_equals_pure_state_closed_form(nu, m):
    """negativity_decay_curve takes gamma*tau = 0 from the closed form; this
    keeps the identity it rests on under test, on the full support."""
    phi = output_at_time(InitialStateSpec(nu=nu, m=m), 0.5)
    assert abs(log_negativity(pure_to_density(phi)) - pure_state_log_negativity(phi)) < 1e-10


def test_decay_curve_vanishes_for_strong_damping():
    phi = output_at_time(InitialStateSpec(nu=5.0), 0.5)
    (_, en), = negativity_decay_curve(phi, [3.0])
    assert en < 1e-3


def test_equal_rates_on_a_non_symmetric_phi_match_the_untrimmed_reference():
    """Equal rates alone do not make the damped state swap invariant: a
    random phi must keep the complex eigensolve."""
    rng = np.random.default_rng(8)
    phi = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    phi /= np.linalg.norm(phi)
    gamma_taus = [0.1, 0.3, 1.0]
    got = [en for _, en in negativity_decay_curve(phi, gamma_taus)]
    assert np.max(np.abs(np.subtract(got, untrimmed_curve(phi, gamma_taus)))) < 1e-10


@pytest.mark.parametrize(
    "phi, params, dtype",
    [
        (output_at_time(InitialStateSpec(nu=2.0, m=1), 0.3), GAMMA, float),
        (output_at_time(InitialStateSpec(nu=2.0, m=1), 0.3), ChannelParams(0.1, 0.2), complex),
        (output_at_time(InitialStateSpec(nu=2.0, m=1), 0.3)[:, :-1], GAMMA, complex),
        (np.random.default_rng(9).normal(size=(4, 4)) / 4.0, GAMMA, complex),
    ],
    ids=["splitter-equal-rates", "splitter-unequal-rates", "not-square", "random-phi"],
)
def test_only_swap_invariant_states_take_the_real_eigensolve(monkeypatch, phi, params, dtype):
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(mat):
        seen.append(mat.dtype)
        return eigvalsh(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    negativity_decay_curve(phi, [0.0, 0.2, 0.7], params)
    assert seen == [np.dtype(dtype)] * 2


@settings(max_examples=40, deadline=None)
@given(
    nu=st.floats(0.0, 2.0),
    m=st.integers(0, 3),
    tau=st.floats(0.0, 1.0),
    gamma=st.floats(0.01, 1.0),
    gamma_tau=st.floats(0.01, 2.0),
)
def test_real_eigensolve_equals_complex_eigensolve_on_the_same_trimmed_state(
    nu, m, tau, gamma, gamma_tau
):
    """At equal rates the curve runs the real eigensolve on the splitter's
    output without its reflection phase; the complex eigensolve of the same
    trimmed state with the phase kept gives the same E_N."""
    params = ChannelParams(gamma1=gamma, gamma2=gamma)
    phi = output_at_time(InitialStateSpec(nu=nu, m=m), tau)
    (_, got), = negativity_decay_curve(phi, [gamma_tau], params)
    n = max(_kept_mode_levels(np.abs(phi) ** 2))
    rho = damp(pure_to_density(phi[:n, :n]), gamma_tau / gamma, params)
    n = max(_kept_mode_levels(np.einsum("abab->ab", rho).real))
    assert abs(got - log_negativity(rho[:n, :n, :n, :n])) < 1e-12

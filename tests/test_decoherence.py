import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import comb, gammaln

from kerrsplit.beamsplitter import (
    _kept_split_levels,
    _split_density,
    output_at_time,
    split_amplitudes,
)
from kerrsplit.decoherence import (
    _EN_TAIL,
    ChannelParams,
    _damp_mode,
    _kept_mode_levels,
    _split_real_form,
    negativity_decay_curve,
)
from kerrsplit.entanglement import (
    entanglement_entropy,
    log_negativity,
    partial_transpose,
    pure_state_log_negativity,
    von_neumann_entropy,
)
from kerrsplit.fock import (
    InfeasibleScenarioError,
    InitialStateSpec,
    build_initial_state,
)
from kerrsplit.kerr import kerr_evolve

GAMMA = ChannelParams()  # 0.1 / 0.1


def damp(rho, tau, params=GAMMA):
    """The loss channel on rho[m1, m2, n1, n2]: the kernel on mode c, then d."""
    return _damp_mode(_damp_mode(rho, params.gamma1 * tau, (0, 2)), params.gamma2 * tau, (1, 3))


def pure_to_density(phi):
    """rho[m1, m2, n1, n2] = phi[m1, m2] * conj(phi[n1, n2]), complex for any phi."""
    v = np.asarray(phi, dtype=complex).ravel()
    return np.outer(v, v.conj()).reshape(np.shape(phi) * 2)


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
    """Second oracle: the closed-form double p-sum

        rho'[m1, m2, n1, n2] = sum_{p1, p2} r1_p1[m1, n1] * r2_p2[m2, n2]
                               * rho[m1+p1, m2+p2, n1+p1, n2+p2],
        r_p[m, n] = sqrt(C(m+p, p) * C(n+p, p)) * (1 - exp(-2g))^p * exp(-g*(m+n)),

    with g = gamma_j * tau for mode j, evaluated literally per (p1, p2) block
    on rho of shape (d1, d2, d1, d2); O(d1^3 d2^3), for small systems."""
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


def kerr_state(nu, m, tau):
    """The single-mode amplitudes c that the decay curve takes: the input
    (nu, m) after Kerr evolution for tau, before the splitter, so that
    split_amplitudes(c) is output_at_time(InitialStateSpec(nu, m=m), tau)."""
    return kerr_evolve(build_initial_state(InitialStateSpec(nu=nu, m=m)), tau)


def split_density(sigma):
    """split(sigma)[p, k, p', k'] = sigma[p+k, p'+k'] * W[p, k] * conj(W[p', k']):
    the splitter on both sides of a single-mode density matrix with vacuum in
    the second port, from split_amplitudes on its conjugated columns, then
    on its rows."""
    columns = split_amplitudes(sigma.conj()).conj()  # [a, p', k'] = sigma[a, p'+k'] conj(W)
    return np.moveaxis(split_amplitudes(np.moveaxis(columns, 0, -1)), (2, 3), (0, 1))


def random_pure_rho(rng, d, d2=None):
    shape = (d, d if d2 is None else d2)
    phi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return pure_to_density(phi / np.linalg.norm(phi))


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
    d1=st.integers(0, 7),
    d2=st.integers(0, 7),
    gamma1=RATES,
    gamma2=RATES,
    tau=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_damp_never_writes_its_input_and_ignores_its_layout(d1, d2, gamma1, gamma2, tau, seed):
    """The kernel, on each mode in turn, never writes its input, which keeps
    every bit, and a C-ordered, a Fortran-ordered, a strided and a read-only
    input give the same bits."""
    params = ChannelParams(gamma1=gamma1, gamma2=gamma2)
    rng = np.random.default_rng(seed)
    shape = (d1, d2, d1, d2)
    rho = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    before = rho.tobytes()
    want = damp(rho, tau, params)
    assert rho.tobytes() == before

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


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 12),
    rank=st.integers(1, 12),
    gamma1=RATES,
    gamma2=RATES,
    tau=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_commutes_with_the_splitter(d, rank, gamma1, gamma2, tau, seed):
    """The identities the decay curve rests on, for a pure (rank 1) or mixed
    single-mode sigma: at equal rates damp(split(sigma)) = split(damp_1(sigma)),
    and at unequal rates, in either order, the smaller rate on sigma before
    the splitter and the excess on the faster mode after it give damp."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    sigma = g @ g.conj().T
    sigma /= np.trace(sigma).real
    split = split_density(sigma)

    def damp_1(rate):
        return _damp_mode(sigma, rate * tau, (0, 1))

    want = damp(split, tau, ChannelParams(gamma1, gamma1))
    assert np.max(np.abs(want - split_density(damp_1(gamma1)))) < 1e-14
    for rates in ((gamma1, gamma2), (gamma2, gamma1)):
        slow, fast = sorted(rates)
        faster = (0, 2) if rates[0] > rates[1] else (1, 3)
        factored = _damp_mode(split_density(damp_1(slow)), (fast - slow) * tau, faster)
        want = damp(split, tau, ChannelParams(*rates))
        assert np.max(np.abs(want - factored)) < 1e-14


@pytest.mark.parametrize("params", [GAMMA, ChannelParams(gamma1=0.1, gamma2=0.3)])
def test_decay_curve_points_do_not_depend_on_each_other(params):
    """Each point damps the same undamped state: a curve equals itself on a
    second call and its one-point curves, and the amplitudes are left as
    they were."""
    state = kerr_state(2.0, 1, 0.5)
    before = state.tobytes()
    grid = [0.0, 0.2, 0.5, 1.0]
    curve = negativity_decay_curve(state, grid, params)
    assert negativity_decay_curve(state, grid, params) == curve
    assert [negativity_decay_curve(state, [g], params)[0] for g in grid] == curve
    assert state.tobytes() == before


def test_unequal_rates():
    params = ChannelParams(gamma1=0.1, gamma2=0.25)
    phi = np.zeros((2, 2), dtype=complex)
    phi[1, 1] = 1.0  # one photon in each mode
    rho = pure_to_density(phi)
    out = damp(rho, 3.0, params)
    assert abs(out[1, 1, 1, 1].real - math.exp(-2.0 * 0.3) * math.exp(-2.0 * 0.75)) < 1e-12
    assert np.max(np.abs(out - kraus_damp(rho, 3.0, params))) < 1e-10


def test_dimension_cap_enforced():
    with pytest.raises(InfeasibleScenarioError):
        negativity_decay_curve(np.ones(9, dtype=complex) / 3.0, [0.0], dim_cap=80)


@settings(max_examples=80, deadline=None)
@given(
    nu=st.floats(0.0, 25.0),
    m=st.integers(0, 7),
    gamma_tau=st.one_of(st.floats(1e-300, 1e-3), st.floats(1e-3, 6.0)),
)
def test_no_damped_point_keeps_more_levels_than_the_undamped_split(nu, m, gamma_tau):
    """The loss cap's n0: loss only thins the photon-number distribution, so
    the kept levels of a damped sigma' never exceed those of |c|^2."""
    c = build_initial_state(InitialStateSpec(nu=nu, m=m))
    n0 = _kept_split_levels(np.abs(c) ** 2, _EN_TAIL)
    damped = _damp_mode(np.outer(c, c.conj()), gamma_tau, (0, 1))
    assert _kept_split_levels(damped.diagonal().real, _EN_TAIL) <= n0


def test_cap_refuses_an_input_longer_than_the_cap_before_building_sigma():
    """The padded vacuum keeps one level per mode (n0^2 = 1), but its d x d
    sigma is over the cap, and is refused before it is built."""
    vacuum = np.zeros(5000, dtype=complex)
    vacuum[0] = 1.0
    tracemalloc.start()
    try:
        with pytest.raises(InfeasibleScenarioError, match="5000 x 5000"):
            negativity_decay_curve(vacuum, [0.0, 0.5])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5000 * 5000 * 16 // 100


def test_damp_input_validation():
    with pytest.raises(ValueError):
        ChannelParams(gamma1=-0.1)
    for rate in (math.nan, math.inf):
        for name in ("gamma1", "gamma2"):
            with pytest.raises(ValueError, match=name):
                ChannelParams(**{name: rate})
    with pytest.raises(TypeError, match="gamma2"):
        ChannelParams(gamma2="0.1")
    amplitudes = np.ones(2, dtype=complex) / math.sqrt(2.0)
    for gamma_tau in (-0.5, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma_tau"):
            negativity_decay_curve(amplitudes, [0.0, gamma_tau])
    # rates whose damping exponents overflow at gamma*tau = 1 (they once gave
    # NaN), also as numpy scalars, whose overflow would warn
    for rates in ((1e-320, 1e-320), (1e-300, 1e10)):
        for kind in (float, np.float64):
            with pytest.raises(ValueError, match="gamma"):
                negativity_decay_curve(amplitudes, [0.0, 1.0], ChannelParams(*map(kind, rates)))


@pytest.mark.parametrize(
    "amplitudes, gamma_taus, error, name",
    [
        (np.full(3, np.nan), [0.0, 0.5], ValueError, "amplitudes"),
        (np.array([1.0, np.inf]), [0.0, 0.5], ValueError, "amplitudes"),
        (np.eye(2) / math.sqrt(2.0), [0.0, 0.5], ValueError, "amplitudes"),
        (np.array(1.0), [0.0, 0.5], ValueError, "amplitudes"),
        (np.zeros(3), [0.0, 0.5], ValueError, "amplitudes"),
        (np.zeros(0), [0.0, 0.5], ValueError, "amplitudes"),
        (np.full(2, 1e200), [0.0, 0.5], ValueError, "amplitudes"),
        (np.ones(2) / math.sqrt(2.0), ["0.5"], TypeError, "gamma_tau"),
    ],
    ids=["nan-amplitudes", "inf-amplitudes", "2d-amplitudes", "0d-amplitudes",
         "zero-amplitudes", "empty-amplitudes", "norm-overflows-amplitudes",
         "string-gamma-tau"],
)
def test_bad_curve_input_raises_a_named_error(amplitudes, gamma_taus, error, name):
    with pytest.raises(error, match=name):
        negativity_decay_curve(amplitudes, gamma_taus)


@pytest.mark.parametrize("params", [GAMMA, ChannelParams(gamma1=0.1, gamma2=0.3)])
def test_decay_curve_of_a_multiple_of_c_is_the_curve_of_c(params):
    """The curve normalises its input: a scale of c, which passes the norm
    check, moves no E_N, on either rate route."""
    state = kerr_state(2.0, 0, 0.5)
    grid = [0.0, 0.2, 0.5, 1.0]
    want = negativity_decay_curve(state, grid, params)
    for scale in (1e-3, 0.5, 2.0):
        got = negativity_decay_curve(scale * state, grid, params)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12


def test_decay_curve_starts_at_closed_form_and_decreases():
    state = kerr_state(2.0, 0, 0.5)
    curve = negativity_decay_curve(state, [0.0, 0.1, 0.3, 0.6, 1.0])
    values = [en for _, en in curve]
    assert abs(values[0] - pure_state_log_negativity(split_amplitudes(state))) < 1e-10
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert all(v >= 0.0 for v in values)


def test_claim_3_fails_at_nu_1_for_m_1_against_m_0():
    """The paper's claim 3, that photon-added inputs keep more E_N under
    loss, does not hold pointwise at small nu: at tau = 1/2 and gamma*tau = 1
    one added photon leaves less E_N than none at nu = 1, though two leave
    more, while at nu = 2 the order holds.  A change that moves these values
    changes the physics."""
    en = {(nu, m): negativity_decay_curve(kerr_state(nu, m, 0.5), [1.0])[0][1]
          for nu, m in ((1.0, 0), (1.0, 1), (1.0, 2), (2.0, 0), (2.0, 1))}
    assert en == pytest.approx({(1.0, 0): 0.0278, (1.0, 1): 0.0213, (1.0, 2): 0.0323,
                                (2.0, 0): 0.0100, (2.0, 1): 0.0214}, abs=5e-5)
    assert en[1.0, 1] < en[1.0, 0] < en[1.0, 2]
    assert en[2.0, 1] > en[2.0, 0]


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(0.5, 3.0), gamma_tau=st.floats(0.0, 1.5))
def test_claim_3_holds_where_it_was_measured_to_hold(nu, gamma_tau):
    """Claim 3 on the region where a scan found it (tau = 1/2, 26 nu in
    [0.5, 3] by 31 gamma*tau in [0, 1.5]): E_N rises with m from 1 to 3 at
    every nu there, and from 0 to 1 as well from nu = 2.  The smallest rise
    scanned was 1.4e-3."""
    ms = range(4) if nu >= 2.0 else range(1, 4)
    en = [negativity_decay_curve(kerr_state(nu, m, 0.5), [gamma_tau])[0][1] for m in ms]
    assert all(low < high for low, high in zip(en, en[1:]))


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
    state = kerr_state(nu, m, 0.5)
    got = [en for _, en in negativity_decay_curve(state, gamma_taus)]
    want = untrimmed_curve(split_amplitudes(state), gamma_taus)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-10


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
    state = kerr_state(nu, m, tau)
    gamma_taus = [0.0, gamma_tau]
    got = [en for _, en in negativity_decay_curve(state, gamma_taus, params)]
    want = untrimmed_curve(split_amplitudes(state), gamma_taus, params)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-10


@pytest.mark.parametrize("nu, m", [(2.0, 0), (2.0, 2), (2.0, 4), (5.0, 0), (5.0, 5), (5.0, 10)])
def test_undamped_eigensolve_equals_pure_state_closed_form(nu, m):
    """negativity_decay_curve takes gamma*tau = 0 from the closed form; this
    keeps the identity it rests on under test, on the full support."""
    phi = output_at_time(InitialStateSpec(nu=nu, m=m), 0.5)
    assert abs(log_negativity(pure_to_density(phi)) - pure_state_log_negativity(phi)) < 1e-10


def test_decay_curve_vanishes_for_strong_damping():
    (_, en), = negativity_decay_curve(kerr_state(5.0, 0, 0.5), [3.0])
    assert en < 1e-3


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_split_real_eigensolve_equals_complex_eigensolve(d):
    """Random pure and mixed single-mode states, some of low enough rank that
    the partial transpose of their split state has negative eigenvalues, at
    every kept size n: the real form's partial transpose is symmetric with
    the spectrum of the split state's, reflection phase and all, and the
    shared gather is the split state without the splitter's i^k."""
    rng = np.random.default_rng(d)
    for rank in (1, 2, d):
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        sigma = g @ g.conj().T
        sigma /= np.trace(sigma).real
        for n in range(1, d + 1):
            rho = split_density(sigma)[:n, :n, :n, :n]
            i_k = 1j ** np.arange(n)  # the splitter's phase on mode d's level k
            no_phase = rho * i_k.conj()[:, None, None] * i_k
            assert np.max(np.abs(_split_density(sigma, n) - no_phase)) < 1e-15
            form = _split_real_form(sigma, n)
            assert np.shares_memory(partial_transpose(form), form)  # no copy before eigvalsh
            real = partial_transpose(form).reshape(n * n, n * n)
            assert real.dtype == float
            assert np.max(np.abs(real - real.T)) < 1e-14
            want = np.linalg.eigvalsh(partial_transpose(rho).reshape(n * n, n * n))
            assert np.max(np.abs(np.linalg.eigvalsh(real) - want)) < 1e-13
            assert abs(log_negativity(form) - log_negativity(rho)) < 1e-13
    sigma[0, 0] = np.nan
    with pytest.raises(InfeasibleScenarioError, match="non-finite result$"):
        log_negativity(_split_real_form(sigma, d))


def test_equal_rates_on_a_non_symmetric_phi_need_the_complex_eigensolve():
    """Equal rates alone do not make the damped state swap invariant: for a
    random phi, which no splitter makes, damp and the complex eigensolve of
    log_negativity match the Kraus oracle, and the damped state is not swap
    invariant, so the real form does not hold for it."""
    rng = np.random.default_rng(8)
    phi = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho0 = pure_to_density(phi / np.linalg.norm(phi))
    for gamma_tau in (0.1, 0.3, 1.0):
        rho = damp(rho0, gamma_tau / GAMMA.gamma1)
        got = log_negativity(rho)
        assert abs(got - log_negativity(kraus_damp(rho0, gamma_tau / GAMMA.gamma1))) < 1e-10
        assert np.max(np.abs(rho - rho.transpose(1, 0, 3, 2))) > 1e-3


def decay_curve_of(params):
    return lambda: negativity_decay_curve(kerr_state(2.0, 1, 0.3), [0.0, 0.2, 0.7], params)


def damped_log_negativity_of(phi):
    """damp and log_negativity of a phi that is not a splitter output, which
    the decay curve does not take."""
    rho0 = pure_to_density(phi)
    return lambda: [log_negativity(damp(rho0, g / GAMMA.gamma1)) for g in (0.2, 0.7)]


@pytest.mark.parametrize(
    "run, dtype",
    [
        (decay_curve_of(GAMMA), float),
        (decay_curve_of(ChannelParams(0.1, 0.2)), complex),
        (decay_curve_of(ChannelParams(0.2, 0.1)), complex),
        (damped_log_negativity_of(output_at_time(InitialStateSpec(nu=2.0, m=1), 0.3)[:, :-1]),
         complex),
        (damped_log_negativity_of(np.random.default_rng(9).normal(size=(4, 4)) / 4.0), complex),
    ],
    ids=["splitter-equal-rates", "splitter-unequal-rates", "splitter-faster-mode-c",
         "not-square", "random-phi"],
)
def test_only_swap_invariant_states_take_the_real_eigensolve(monkeypatch, run, dtype):
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(mat):
        seen.append(mat.dtype)
        return eigvalsh(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    run()
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
    """At equal rates the curve damps the single-mode state, splits it
    without the splitter's reflection phase and runs the real eigensolve;
    the complex eigensolve of the damped two-mode state with the phase kept,
    trimmed the same way, gives the same E_N."""
    params = ChannelParams(gamma1=gamma, gamma2=gamma)
    state = kerr_state(nu, m, tau)
    (_, got), = negativity_decay_curve(state, [gamma_tau], params)
    rho = damp(pure_to_density(split_amplitudes(state)), gamma_tau / gamma, params)
    n = max(_kept_mode_levels(np.einsum("abab->ab", rho).real, _EN_TAIL))
    assert abs(got - log_negativity(rho[:n, :n, :n, :n])) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    nu=st.floats(0.0, 3.0),
    m=st.integers(0, 3),
    tau=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2.0 * math.pi),
    gamma2=st.sampled_from([0.1, 0.3]),
)
def test_log_negativity_does_not_depend_on_theta(nu, m, tau, theta, gamma2):
    """theta turns each Fock amplitude c_n by exp(i n theta), which the
    splitter carries to a product of local phases on its two outputs, and
    loss is phase covariant: E_N at theta equals E_N at 0 up to roundoff,
    at equal and at unequal rates."""
    params = ChannelParams(gamma1=0.1, gamma2=gamma2)
    gamma_taus = [0.0, 0.2, 1.0]

    def curve(angle):
        c = kerr_evolve(build_initial_state(InitialStateSpec(nu=nu, m=m, theta=angle)), tau)
        return [en for _, en in negativity_decay_curve(c, gamma_taus, params)]

    assert np.max(np.abs(np.subtract(curve(theta), curve(0.0)))) < 1e-13


@settings(max_examples=25, deadline=None)
@given(
    nu=st.floats(0.0, 3.0),
    m=st.integers(0, 3),
    tau=st.floats(0.0, 1.0),
    gamma2=st.sampled_from([0.1, 0.3]),
)
def test_log_negativity_is_symmetric_about_half_revival(nu, m, tau, gamma2):
    """n(n-1) is even, so the state at 1 - tau is the conjugate of the state
    at tau up to the rotation exp(2i*theta*N), a local phase after the
    splitter; conjugation and the phase-covariant loss keep the spectrum of
    the partial transpose, so E_N(1 - tau) = E_N(tau), at equal and at
    unequal rates."""
    params = ChannelParams(gamma1=0.1, gamma2=gamma2)
    gamma_taus = [0.0, 0.2, 0.7]

    def curve(t):
        return [en for _, en in negativity_decay_curve(kerr_state(nu, m, t), gamma_taus, params)]

    assert np.max(np.abs(np.subtract(curve(1.0 - tau), curve(tau)))) < 1e-13


@settings(max_examples=60, deadline=None)
@given(
    nu=st.floats(0.0, 12.0),
    m=st.integers(0, 5),
    tau=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_kernel_at_half_transmissivity_is_one_splitter_output(nu, m, tau, theta):
    """Either output of the splitter, with vacuum in its second port, holds
    the input after loss at transmissivity exp(-2g) = 1/2, so the kernel on
    sigma = cc^dag has the entropy of the pure path's split state.  The
    tolerance covers roundoff in weights near the 1e-15 entropy floor, which
    one path may keep and the other drop (worst seen: 4.9e-15)."""
    spec = InitialStateSpec(nu=nu, m=m, theta=theta)
    c = kerr_evolve(build_initial_state(spec), tau)
    reduced = _damp_mode(np.outer(c, c.conj()), math.log(2.0) / 2.0, (0, 1))
    want = entanglement_entropy(output_at_time(spec, tau))
    assert abs(von_neumann_entropy(np.linalg.eigvalsh(reduced)) - want) < 1e-13

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from kerrsplit.beamsplitter import _kept_split_levels, output_at_time, split_amplitudes
from kerrsplit.decoherence import _EN_TAIL, _damp_mode, _kept_mode_levels
from kerrsplit.entanglement import _TAIL, entanglement_entropy
from kerrsplit.fock import (
    InitialStateSpec,
    _coherent_amplitudes,
    build_initial_state,
    choose_cutoff,
)


def basis(n, n_cut):
    return np.eye(n_cut + 1, dtype=complex)[n]


def split_without_reflection_phase(c):
    """Splitter variant that drops the i^(n-p) local phase (test-only route
    for the local-phase-insensitivity check)."""
    dim = len(c)
    lgfact = gammaln(np.arange(dim) + 1.0)
    phi = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        p = np.arange(n + 1)
        w = np.exp(0.5 * (lgfact[n] - lgfact[p] - lgfact[n - p] - n * math.log(2.0)))
        phi[p, n - p] = c[n] * w
    return phi


def test_vacuum_in_vacuum_out():
    phi = split_amplitudes(basis(0, 4))
    assert phi[0, 0] == 1.0
    assert np.count_nonzero(phi) == 1


def test_coherent_input_gives_exact_product_state():
    n_cut = choose_cutoff(5.0, 0)
    st = build_initial_state(InitialStateSpec(nu=5.0), n_cut)
    phi = split_amplitudes(st)
    alpha = InitialStateSpec(nu=5.0).alpha
    c_mode = _coherent_amplitudes(alpha / math.sqrt(2.0), n_cut)
    d_mode = _coherent_amplitudes(1j * alpha / math.sqrt(2.0), n_cut)
    product = np.outer(c_mode, d_mode)
    # the truncated coherent input is renormalized, so compare up to one scale
    scale = np.linalg.norm(phi) / np.linalg.norm(product)
    # the splitter output lives on anti-diagonals p+k <= n_cut, so the product
    # comparison holds up to the truncated corner mass (~tail_tol level)
    assert np.max(np.abs(phi - scale * product)) < 1e-8
    assert entanglement_entropy(phi) < 1e-10


def test_single_photon_split():
    phi = split_amplitudes(basis(1, 3))
    assert abs(abs(phi[1, 0]) - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(abs(phi[0, 1]) - 1.0 / math.sqrt(2.0)) < 1e-15
    # reflected arm carries the pi/2 phase
    assert abs(phi[0, 1] / phi[1, 0] - 1j) < 1e-15


def test_fock5_binomial_row():
    phi = split_amplitudes(basis(5, 8))
    for p in range(6):
        want = math.comb(5, p) / 32.0
        assert abs(abs(phi[p, 5 - p]) ** 2 - want) < 1e-14
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-12


def test_unitarity_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(5):
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        phi = split_amplitudes(amps / np.linalg.norm(amps))
        assert abs(np.linalg.norm(phi) - 1.0) < 1e-12


def test_photon_number_conservation():
    phi = split_amplitudes(basis(4, 6))
    for p in range(7):
        for k in range(7):
            if p + k != 4:
                assert phi[p, k] == 0.0


def test_exchange_symmetry_of_magnitudes():
    st = build_initial_state(InitialStateSpec(nu=3.0), choose_cutoff(3.0, 0))
    phi = split_amplitudes(st)
    assert np.max(np.abs(np.abs(phi) - np.abs(phi).T)) < 1e-14


def test_reflection_phase_cannot_change_entanglement():
    spec = InitialStateSpec(nu=5.0)
    n_cut = choose_cutoff(5.0, 0)
    from kerrsplit.kerr import kerr_evolve

    state = kerr_evolve(build_initial_state(spec, n_cut), 0.37)
    with_phase = split_amplitudes(state)
    without_phase = split_without_reflection_phase(state)
    assert abs(entanglement_entropy(with_phase) - entanglement_entropy(without_phase)) < 1e-12


def test_output_at_time_full_revival_matches_t0():
    spec = InitialStateSpec(nu=5.0)
    a = output_at_time(spec, 0.0)
    b = output_at_time(spec, 1.0)
    assert np.array_equal(a, b)


def test_output_at_time_zero_field_pacs_is_fixed_binomial_row():
    # Kerr phase is global on |5>, so any tau gives the same magnitudes
    for tau in (0.0, 0.3, 0.77):
        phi = output_at_time(InitialStateSpec(nu=0.0, m=5), tau)
        for p in range(6):
            assert abs(abs(phi[p, 5 - p]) ** 2 - math.comb(5, p) / 32.0) < 1e-14


def test_output_at_time_rank_one_at_t0():
    phi = output_at_time(InitialStateSpec(nu=5.0), 0.0)
    s = np.linalg.svd(phi, compute_uv=False)
    assert s[0] > 1.0 - 1e-12
    assert s[1] < 1e-8  # truncated corner mass
    assert entanglement_entropy(phi) < 1e-10


def test_output_respects_requested_cutoff():
    phi = output_at_time(InitialStateSpec(nu=1.0), 0.5, n_cut=25)
    assert phi.shape == (26, 26)


def test_splitter_is_an_isometry_on_the_truncated_space():
    # row n is the output of |n>|0>; distinct inputs stay orthonormal
    d = 16
    outputs = split_amplitudes(np.eye(d)).reshape(d, d * d)
    assert np.max(np.abs(outputs.conj() @ outputs.T - np.eye(d))) < 1e-14


def test_stacked_rows_split_exactly_like_single_states():
    rng = np.random.default_rng(12)
    amps = rng.normal(size=(7, 10)) + 1j * rng.normal(size=(7, 10))
    stack = split_amplitudes(amps)
    assert stack.shape == (7, 10, 10)
    for row, phi in zip(amps, stack):
        assert np.array_equal(phi, split_amplitudes(row))


# ---------------------------------------------------------------- per-mode trim

@settings(max_examples=60, deadline=None)
@given(nu=st.floats(0.0, 30.0), m=st.integers(0, 6), tau=st.floats(-2.0, 2.0))
def test_mode_marginals_are_equal_and_do_not_depend_on_tau(nu, m, tau):
    # Kerr evolution is diagonal in photon number and the splitter is
    # symmetric under exchanging its output modes, so one trim per curve
    # serves both modes at every tau
    spec = InitialStateSpec(nu=nu, m=m)
    mass0 = np.abs(output_at_time(spec, 0.0)) ** 2
    mass = np.abs(output_at_time(spec, tau)) ** 2
    assert np.allclose(mass.sum(axis=1), mass0.sum(axis=1), rtol=0, atol=1e-15)
    assert np.allclose(mass.sum(axis=0), mass0.sum(axis=0), rtol=0, atol=1e-15)
    assert np.allclose(mass.sum(axis=1), mass.sum(axis=0), rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 70), data=st.data())
def test_trimmed_split_is_the_top_left_block_of_the_full_split(d, data):
    kept = data.draw(st.integers(1, d), label="kept")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rows = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    full = split_amplitudes(rows)
    # the top input level is occupied, yet every entry with p + k >= d is exactly 0
    assert not full[:, np.add.outer(np.arange(d), np.arange(d)) >= d].any()
    block = full[:, :kept, :kept]
    assert np.array_equal(split_amplitudes(rows, kept), block)
    # the block reads only input levels below 2 * kept - 1
    assert np.array_equal(split_amplitudes(rows[:, :2 * kept - 1], kept), block)


@pytest.mark.parametrize("kept, error", [(0, ValueError), (5, ValueError),
                                         (2.0, TypeError), (True, TypeError)])
def test_kept_must_be_a_level_count_from_one_to_d(kept, error):
    with pytest.raises(error, match="kept"):
        split_amplitudes(np.ones(4), kept)


@functools.cache
def split_populations():
    """The photon-number vectors the trims take, with (nu, m, g) labels: |c|^2
    of each state of the grid, and at integer nu the diagonal of its damped
    density matrix, which the loss curves trim, at a few g = gamma*tau."""
    vectors = []
    for nu in np.arange(81) * 0.5:
        for m in range(7):
            c = build_initial_state(InitialStateSpec(nu, m=m))
            vectors.append(((nu, m, 0.0), np.abs(c) ** 2))
            if nu % 1 == 0:
                sigma = np.outer(c, c.conj())
                for g in (0.05, 0.4, 2.0):
                    vectors.append(((nu, m, g), _damp_mode(sigma, g, (0, 1)).diagonal().real))
    return vectors


@pytest.mark.parametrize("tail", [_TAIL, _EN_TAIL])
def test_split_trim_equals_the_trim_of_the_full_split(tail):
    """The trim from a photon-number vector P keeps as many levels as the
    trim of the full split of sqrt(P): the larger of its two modes' kept
    levels, from the (d, d) |phi|^2."""
    for label, populations in split_populations():
        full = np.abs(split_amplitudes(np.sqrt(populations))) ** 2
        assert _kept_split_levels(populations, tail) == max(_kept_mode_levels(full, tail)), label


@pytest.mark.parametrize("nu, kept", [(1000.0, 695), (3000.0, 1830)])
def test_split_trim_of_a_large_state(nu, kept):
    """The kept size at ``_TAIL`` at nu = 1000 and 3000, as the trim of the
    (d, d) split mass gave it."""
    assert _kept_split_levels(np.abs(build_initial_state(InitialStateSpec(nu))) ** 2, _TAIL) == kept


def test_split_trim_allocates_no_two_mode_array():
    """At nu = 3000 (d = 3399) the trim stays under 1 MB; a (d, d) table of
    the split mass alone would take 92 MB."""
    populations = np.abs(build_initial_state(InitialStateSpec(3000.0))) ** 2
    tracemalloc.start()
    try:
        _kept_split_levels(populations, _TAIL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

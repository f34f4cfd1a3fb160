import math

import numpy as np
import pytest

from kerrsplit.fock import (
    CutoffPolicy,
    CutoffTooSmallError,
    InitialStateSpec,
    build_initial_state,
    choose_cutoff,
    inner_product,
)
from kerrsplit.kerr import (
    CoherentSuperposition,
    fractional_revival_superposition,
    kerr_evolve,
    kerr_phases,
    oracle_fidelity,
    reconstruct_fock,
)

ALPHA5 = math.sqrt(5.0) * np.exp(1j * math.pi / 4)


def coherent5():
    return build_initial_state(InitialStateSpec(nu=5.0), choose_cutoff(5.0, 0))


def test_full_revival_is_exact_identity():
    st = coherent5()
    out = kerr_evolve(st, 1.0)
    assert np.array_equal(out.amplitudes, st.amplitudes)


def test_levels_zero_and_one_never_acquire_phase():
    st = coherent5()
    out = kerr_evolve(st, 0.7321)
    assert out.amplitudes[0] == st.amplitudes[0]
    assert out.amplitudes[1] == st.amplitudes[1]


def test_moduli_preserved():
    st = coherent5()
    out = kerr_evolve(st, 0.2345)
    np.testing.assert_allclose(np.abs(out.amplitudes), np.abs(st.amplitudes),
                               rtol=5e-16, atol=0.0)


@pytest.mark.parametrize("tau", [0.1, 0.37, 0.9])
def test_periodicity(tau):
    st = coherent5()
    a = kerr_evolve(st, tau)
    b = kerr_evolve(st, tau + 1.0)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-10


def test_pacs_revives_at_the_same_instant():
    st = build_initial_state(InitialStateSpec(nu=5.0, m=5))
    assert np.array_equal(kerr_evolve(st, 1.0).amplitudes, st.amplitudes)


def test_q2_centers_are_plus_minus_i_alpha():
    sup = fractional_revival_superposition(ALPHA5, 1, 2)
    got = sorted(sup.centers, key=lambda z: z.imag)
    want = sorted([1j * ALPHA5, -1j * ALPHA5], key=lambda z: z.imag)
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(np.abs(sup.coefficients), 1.0 / math.sqrt(2.0), atol=1e-12)


def test_centers_share_the_circle():
    for p, q in [(1, 3), (1, 4), (2, 5)]:
        sup = fractional_revival_superposition(ALPHA5, p, q)
        assert np.allclose(np.abs(sup.centers), abs(ALPHA5), atol=1e-12)


def test_non_coprime_rejected():
    with pytest.raises(ValueError):
        fractional_revival_superposition(ALPHA5, 2, 4)
    with pytest.raises(ValueError):
        fractional_revival_superposition(ALPHA5, 0, 3)
    with pytest.raises(ValueError):
        fractional_revival_superposition(ALPHA5, 3, 3)
    with pytest.raises(ValueError):
        fractional_revival_superposition(ALPHA5, 1, 1)


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 3), (1, 4)])
def test_oracle_fidelity(p, q):
    assert oracle_fidelity(5.0, p, q) >= 1.0 - 1e-10


@pytest.mark.parametrize("p,q", [(3, 4), (1, 5), (2, 5), (3, 5), (4, 5), (5, 6), (3, 7)])
def test_oracle_fidelity_generalizes(p, q):
    assert oracle_fidelity(5.0, p, q) >= 1.0 - 1e-10


def test_reconstruct_single_component_is_that_coherent_state():
    sup = CoherentSuperposition(np.array([1.0 + 0j]), np.array([ALPHA5]))
    n_cut = choose_cutoff(5.0, 0)
    got = reconstruct_fock(sup, n_cut)
    want = build_initial_state(InitialStateSpec(nu=5.0), n_cut)
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12


def test_equal_weight_cat_kills_alternating_levels():
    # (|i alpha> + |-i alpha>)/norm has support only on even levels
    c = 1.0 / math.sqrt(2.0)
    sup = CoherentSuperposition(np.array([c, c]), np.array([1j * ALPHA5, -1j * ALPHA5]))
    st = reconstruct_fock(sup, choose_cutoff(5.0, 0))
    assert np.max(np.abs(st.amplitudes[1::2])) < 1e-12
    assert abs(st.norm() - 1.0) < 1e-12


def test_reconstruction_norm_is_near_unity_before_rescaling():
    # unitarity of the Kerr map: sum of retained mass ~ 1 - tail
    sup = fractional_revival_superposition(ALPHA5, 1, 3)
    n_cut = choose_cutoff(5.0, 0)
    coeff, centers = sup.coefficients, sup.centers
    from kerrsplit.fock import _coherent_amplitudes

    amps = sum(c * _coherent_amplitudes(g, n_cut) for c, g in zip(coeff, centers))
    assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-10


def test_reconstruct_cutoff_too_small():
    sup = fractional_revival_superposition(ALPHA5, 1, 3)
    with pytest.raises(CutoffTooSmallError):
        reconstruct_fock(sup, 8)


def test_direct_equals_oracle_statewise():
    n_cut = choose_cutoff(5.0, 0)
    base = build_initial_state(InitialStateSpec(nu=5.0), n_cut)
    direct = kerr_evolve(base, 0.25)
    rebuilt = reconstruct_fock(fractional_revival_superposition(ALPHA5, 1, 4), n_cut)
    fid = abs(inner_product(rebuilt, direct))
    assert fid >= 1.0 - 1e-12


def test_superposition_validation():
    with pytest.raises(ValueError):
        CoherentSuperposition(np.array([1.0]), np.array([1.0, 2.0]))


def test_phase_rows_match_single_times():
    taus = np.linspace(-0.7, 2.3, 9)
    rows = kerr_phases(30, taus)
    assert rows.shape == (9, 30)
    for tau, row in zip(taus, rows):
        assert np.array_equal(row, kerr_phases(30, tau))
    assert np.array_equal(kerr_phases(30, [1.0, 2.0]), np.ones((2, 30)))

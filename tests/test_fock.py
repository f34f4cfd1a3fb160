import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

from kerrsplit.fock import (
    CutoffPolicy,
    CutoffTooSmallError,
    FockVector,
    InitialStateSpec,
    _coherent_amplitudes,
    _kept_levels,
    build_initial_state,
    choose_cutoff,
    fock_state,
    inner_product,
    log_factorials,
)


def brute_force_poisson_cutoff(nu, tol):
    """Independent oracle: smallest N with sum_{n>N} e^-nu nu^n/n! < tol,
    by direct term-by-term summation."""
    term = math.exp(-nu)
    total = term
    n = 0
    while True:
        if 1.0 - total < tol:
            return n
        n += 1
        term *= nu / n
        total += term


def brute_force_pacs_cutoff(nu, m, tol):
    """Independent oracle for m added photons: smallest N with the occupation
    mass above level m+N below tol, summing the weights term by term with the
    ratio nu(n+m+1)/(n+1)^2 and normalizing by the closed form
    sum_n nu^n (n+m)!/(n!)^2 = e^nu m! L_m(-nu)."""
    laguerre = sum(math.comb(m, k) * nu**k / math.factorial(k) for k in range(m + 1))
    term = math.exp(-nu) / laguerre
    total = term
    n = 0
    while True:
        if 1.0 - total < tol:
            return m + n
        term *= nu * (n + m + 1) / (n + 1) ** 2
        total += term
        n += 1


def plain_kept_levels(weights, tail):
    """Oracle for ``_kept_levels``: drop levels from the top while the mass
    dropped stays below ``tail`` of the total."""
    total = np.sum(weights)
    beyond = 0.0
    for k in range(len(weights) - 1, 0, -1):  # keeping k levels drops weights[k:]
        beyond += weights[k]
        if beyond / total >= tail:
            return k + 1
    return 1


@settings(max_examples=200, deadline=None)
@given(weights=strategies.lists(strategies.floats(0.0, 1e3), min_size=1, max_size=40),
       tail=strategies.floats(1e-20, 0.99))
def test_kept_levels_matches_plain_loop(weights, tail):
    assume(sum(weights) > 0.0)
    w = np.array(weights)
    assert _kept_levels(w, tail) == plain_kept_levels(w, tail)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("nu", [0.3, 5.0, 20.0])
def test_choose_cutoff_matches_pacs_tail_sum(nu, m):
    policy = CutoffPolicy(tail_tol=1e-12, safety_margin=0)
    assert choose_cutoff(nu, m, policy) == brute_force_pacs_cutoff(nu, m, 1e-12)


def test_choose_cutoff_vacuum_and_fock():
    policy = CutoffPolicy()
    assert choose_cutoff(0.0, 0, policy) == policy.safety_margin
    assert choose_cutoff(0.0, 5, policy) == 5 + policy.safety_margin


@pytest.mark.parametrize("nu", [0.3, 5.0, 10.0, 20.0])
def test_choose_cutoff_matches_poisson_tail_sum(nu):
    policy = CutoffPolicy(tail_tol=1e-12, safety_margin=0)
    assert choose_cutoff(nu, 0, policy) == brute_force_poisson_cutoff(nu, 1e-12)


def test_choose_cutoff_includes_margin():
    base = choose_cutoff(5.0, 0, CutoffPolicy(safety_margin=0))
    assert choose_cutoff(5.0, 0, CutoffPolicy(safety_margin=7)) == base + 7


def test_cutoff_policy_validation():
    with pytest.raises(ValueError):
        CutoffPolicy(tail_tol=0.0)
    with pytest.raises(ValueError):
        CutoffPolicy(tail_tol=1.5)
    with pytest.raises(ValueError):
        CutoffPolicy(safety_margin=-1)


def test_initial_state_spec():
    spec = InitialStateSpec(nu=5.0)
    assert abs(spec.alpha - math.sqrt(5.0) * np.exp(1j * math.pi / 4)) < 1e-15
    with pytest.raises(ValueError):
        InitialStateSpec(nu=-1.0)
    with pytest.raises(ValueError):
        InitialStateSpec(nu=1.0, m=-2)


def test_vacuum_coherent_state():
    st = build_initial_state(InitialStateSpec(nu=0.0), 4)
    assert st.amplitudes[0] == 1.0
    assert np.all(st.amplitudes[1:] == 0.0)


def test_coherent_state_poisson_weight():
    # |amplitude_5|^2 = e^-5 5^5/5! for nu = 5
    st = build_initial_state(InitialStateSpec(nu=5.0), choose_cutoff(5.0, 0))
    expected = math.exp(-5.0) * 5.0**5 / math.factorial(5)
    assert abs(abs(st.amplitudes[5]) ** 2 - expected) < 1e-13


@pytest.mark.parametrize("nu", [0.7, 5.0, 20.0])
def test_coherent_state_norm_and_mean(nu):
    policy = CutoffPolicy()
    st = build_initial_state(InitialStateSpec(nu=nu), choose_cutoff(nu, 0, policy), policy)
    assert abs(st.norm() - 1.0) < 1e-12
    assert abs(st.mean_photon_number() - nu) < 10 * policy.tail_tol


def test_coherent_state_cutoff_too_small():
    with pytest.raises(CutoffTooSmallError):
        build_initial_state(InitialStateSpec(nu=5.0), 6)


def test_pacs_matches_coherent_at_m0():
    # the m = 0 member of the family against the coherent-state formula
    spec = InitialStateSpec(nu=5.0, m=0)
    n_cut = choose_cutoff(5.0, 0)
    a = _coherent_amplitudes(spec.alpha, n_cut)
    b = build_initial_state(spec, n_cut)
    assert np.max(np.abs(a / np.linalg.norm(a) - b.amplitudes)) < 1e-14


def test_pacs_reduces_to_fock_state_at_zero_field():
    st = build_initial_state(InitialStateSpec(nu=0.0, m=5), 10)
    assert st.amplitudes[5] == 1.0
    assert np.count_nonzero(st.amplitudes) == 1
    # and continuously: tiny nu stays overwhelmingly on level m
    st = build_initial_state(InitialStateSpec(nu=1e-6, m=5), choose_cutoff(1e-6, 5))
    assert abs(st.amplitudes[5]) ** 2 > 1.0 - 1e-4


def test_pacs_no_support_below_m():
    st = build_initial_state(InitialStateSpec(nu=5.0, m=5), choose_cutoff(5.0, 5))
    assert np.all(st.amplitudes[:5] == 0.0)
    assert abs(st.norm() - 1.0) < 1e-12


def test_pacs_cutoff_errors():
    with pytest.raises(CutoffTooSmallError):
        build_initial_state(InitialStateSpec(nu=5.0, m=5), 4)
    with pytest.raises(CutoffTooSmallError):
        build_initial_state(InitialStateSpec(nu=5.0, m=5), 12)


def test_pacs_mean_photon_exceeds_coherent():
    # adding photons raises the mean occupation above nu + m
    st = build_initial_state(InitialStateSpec(nu=5.0, m=5), choose_cutoff(5.0, 5))
    assert st.mean_photon_number() > 10.0


def test_inner_product_basics():
    n_cut = choose_cutoff(5.0, 0)
    st = build_initial_state(InitialStateSpec(nu=5.0), n_cut)
    assert abs(inner_product(st, st) - 1.0) < 1e-12
    assert inner_product(fock_state(0, 4), fock_state(1, 4)) == 0.0


def test_inner_product_pads_shorter_vector():
    a = fock_state(2, 8)
    b = fock_state(2, 3)
    assert abs(inner_product(a, b) - 1.0) < 1e-15


def test_coherent_overlap_closed_form():
    # |<a|b>| = exp(-|a-b|^2 / 2), up to truncation error
    alpha = math.sqrt(5.0) * np.exp(1j * math.pi / 4)
    beta = math.sqrt(3.0) * np.exp(1j * 0.9)
    n_cut = choose_cutoff(5.0, 0) + 10
    a = FockVector(_coherent_amplitudes(alpha, n_cut))
    b = FockVector(_coherent_amplitudes(beta, n_cut))
    got = abs(inner_product(a, b))
    assert abs(got - math.exp(-abs(alpha - beta) ** 2 / 2.0)) < 1e-10


def test_truncation_is_prefix_before_renormalization():
    alpha = math.sqrt(5.0) * np.exp(1j * math.pi / 4)
    small = _coherent_amplitudes(alpha, 20)
    large = _coherent_amplitudes(alpha, 40)
    assert np.array_equal(small, large[:21])
    # norm deficit shrinks monotonically with the cutoff
    deficits = [1.0 - np.sum(np.abs(_coherent_amplitudes(alpha, n)) ** 2) for n in range(5, 45, 5)]
    assert all(a >= b for a, b in zip(deficits, deficits[1:]))


def test_build_initial_state_dispatch():
    st = build_initial_state(InitialStateSpec(nu=5.0))
    assert abs(st.norm() - 1.0) < 1e-12
    st = build_initial_state(InitialStateSpec(nu=5.0, m=3))
    assert np.all(st.amplitudes[:3] == 0.0)


def test_fock_vector_is_read_only():
    st = fock_state(1, 3)
    with pytest.raises(ValueError):
        st.amplitudes[0] = 1.0


def test_log_factorials_match_exact_factorials():
    table = log_factorials(171)
    assert len(table) == 171 and table[0] == table[1] == 0.0
    exact = np.array([math.log(math.factorial(n)) for n in range(171)])
    assert np.allclose(table, exact, rtol=1e-15, atol=0.0)
    assert len(log_factorials(0)) == 0

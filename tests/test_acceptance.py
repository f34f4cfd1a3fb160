"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they complete (criterion 10, the slowest, damps single-mode density
matrices and splits each into a two-mode one of up to 2500 dimensions,
trimmed to the levels the state occupies)."""

import math
import time

import numpy as np

from kerrsplit.beamsplitter import output_at_time
from kerrsplit.decoherence import ChannelParams, negativity_decay_curve
from kerrsplit.entanglement import entanglement_entropy, pure_state_log_negativity
from kerrsplit.fock import InitialStateSpec
from kerrsplit.husimi import count_peaks, husimi_q, n_max_estimate
from kerrsplit.kerr import kerr_evolve, oracle_fidelity
from kerrsplit.sweep import GridSpec, ScenarioConfig, run_entropy_curve
from kerrsplit.fock import build_initial_state

from test_decoherence import damp, kraus_damp, pure_to_density, random_pure_rho


def report(num, label, ok, detail, t0):
    line = (f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {label}  "
            f"[{detail}; {time.perf_counter() - t0:.2f}s]")
    print(line)
    assert ok, line


def entropy_at(nu, m, tau):
    return entanglement_entropy(output_at_time(InitialStateSpec(nu=nu, m=m), tau))


def test_01_zero_entanglement_endpoints():
    t0 = time.perf_counter()
    e0 = entropy_at(5.0, 0, 0.0)
    e1 = entropy_at(5.0, 0, 1.0)
    elapsed = time.perf_counter() - t0
    ok = e0 <= 1e-10 and e1 <= 1e-8 and elapsed < 1.0
    report(1, "zero entanglement at tau=0 and tau=1 (nu=5)", ok,
           f"E(0)={e0:.2e}, E(1)={e1:.2e}", t0)


def test_02_collapse_plateau_maxima():
    t0 = time.perf_counter()
    want = {5.0: 2.37, 10.0: 2.90, 20.0: 3.42}
    got = {}
    for nu, target in want.items():
        cfg = ScenarioConfig(initial=InitialStateSpec(nu=nu),
                             time_grid=GridSpec(0.0, 1.0, 1000))
        got[nu] = max(run_entropy_curve(cfg).columns["entropy_ebits"])
    elapsed = time.perf_counter() - t0
    ok = all(abs(got[nu] - want[nu]) <= 0.05 for nu in want) and elapsed < 30.0
    report(2, "collapse-plateau E_max for nu=5,10,20", ok,
           ", ".join(f"nu={nu:g}: {got[nu]:.3f} (want {want[nu]})" for nu in want), t0)


def test_03_maximally_entangled_fractional_revivals():
    t0 = time.perf_counter()
    e_half = entropy_at(20.0, 0, 0.5)
    e_third = entropy_at(20.0, 0, 1.0 / 3.0)
    elapsed = time.perf_counter() - t0
    ok = (abs(e_half - 1.0) <= 0.02
          and abs(e_third - math.log2(3.0)) <= 0.03
          and elapsed < 5.0)
    report(3, "log2(q) entanglement at tau=1/2, 1/3 (nu=20)", ok,
           f"E(1/2)={e_half:.4f}, E(1/3)={e_third:.4f} vs log2(3)={math.log2(3):.4f}", t0)


def test_04_n_max_formula():
    t0 = time.perf_counter()
    value = n_max_estimate(math.sqrt(5.0))
    ok = abs(value - 4.62) <= 0.01
    report(4, "distinguishability estimate at |alpha|^2=5", ok, f"N_max={value:.4f}", t0)


def test_05_fock_limit_entropy():
    t0 = time.perf_counter()
    oracle = -sum(math.comb(5, p) / 32.0 * math.log2(math.comb(5, p) / 32.0)
                  for p in range(6))
    values = [entropy_at(1e-6, 5, tau) for tau in (0.13, 0.5, 0.87)]
    elapsed = time.perf_counter() - t0
    ok = (all(abs(v - 2.198) <= 0.005 and abs(v - oracle) <= 0.005 for v in values)
          and elapsed < 1.0)
    report(5, "m=5 Fock-limit entropy against binomial oracle", ok,
           f"E={values[0]:.5f}, oracle={oracle:.5f}", t0)


def test_06_pacs_dominance():
    t0 = time.perf_counter()
    taus = np.linspace(0.0, 1.0, 500)
    curves = {}
    for m in (0, 5, 10):
        spec = InitialStateSpec(nu=5.0, m=m)
        curves[m] = np.array([entanglement_entropy(output_at_time(spec, t)) for t in taus])
    elapsed = time.perf_counter() - t0
    gap_10_5 = float(np.min(curves[10] - curves[5]))
    gap_5_0 = float(np.min(curves[5] - curves[0]))
    ok = gap_10_5 >= -1e-6 and gap_5_0 >= -1e-6 and elapsed < 60.0
    report(6, "pointwise E ordering m=10 >= m=5 >= m=0 (nu=5, 500 points)", ok,
           f"min gaps {gap_10_5:.3e}, {gap_5_0:.3e}", t0)


def test_07_husimi_peak_counts():
    t0 = time.perf_counter()
    cases = [(5.0, 0, 1.0 / 4.0, 4), (5.0, 0, 1.0 / 5.0, 5), (5.0, 5, 1.0 / 7.0, 7)]
    got = []
    for nu, m, tau, want in cases:
        state = kerr_evolve(build_initial_state(InitialStateSpec(nu=nu, m=m)), tau)
        got.append(count_peaks(husimi_q(state), rel_threshold=0.1))
    elapsed = time.perf_counter() - t0
    ok = got == [c[3] for c in cases] and elapsed < 30.0
    report(7, "Husimi peak counts at tau=1/4, 1/5 (m=0) and 1/7 (m=5)", ok,
           f"counts={got}", t0)


def test_08_oracle_equivalence():
    t0 = time.perf_counter()
    fids = {(p, q): oracle_fidelity(5.0, p, q) for p, q in ((1, 2), (1, 3), (2, 3), (1, 4))}
    elapsed = time.perf_counter() - t0
    ok = all(f >= 1.0 - 1e-10 for f in fids.values()) and elapsed < 2.0
    report(8, "fractional-revival oracle fidelity (nu=5)", ok,
           f"worst={min(fids.values()):.15f}", t0)


def test_09_channel_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    checks = []

    rho = random_pure_rho(rng, 4)
    for tau in (0.7, 3.0):
        out = damp(rho, tau)
        checks.append(abs(np.trace(out.reshape(16, 16)).real - 1.0) <= 1e-9)

    once = damp(rho, 2.1)
    twice = damp(damp(rho, 1.3), 0.8)
    checks.append(float(np.max(np.abs(once - twice))) <= 1e-8)

    phi = np.zeros((2, 2), dtype=complex)
    phi[1, 0] = 1.0
    single = damp(pure_to_density(phi), 3.0)  # gamma*tau = 0.3
    checks.append(abs(single[1, 0, 1, 0].real - math.exp(-0.6)) <= 1e-10)

    worst = 0.0
    for d in (2, 3, 4):
        r = random_pure_rho(rng, d)
        for tau in (0.5, 1.5):
            worst = max(worst, float(np.max(np.abs(damp(r, tau) - kraus_damp(r, tau)))))
    checks.append(worst <= 1e-10)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 10.0
    report(9, "loss channel: trace, semigroup, survival, Kraus oracle", ok,
           f"kraus gap={worst:.2e}", t0)


def test_10_decoherence_ordering():
    t0 = time.perf_counter()
    gamma_taus = [round(0.1 * k, 1) for k in range(11)]
    curves = {}
    starts = {}
    for m in (0, 5, 10):
        spec = InitialStateSpec(nu=5.0, m=m)
        starts[m] = pure_state_log_negativity(output_at_time(spec, 0.5))
        state = kerr_evolve(build_initial_state(spec), 0.5)
        curves[m] = np.array([en for _, en in
                              negativity_decay_curve(state, gamma_taus, ChannelParams())])
    elapsed = time.perf_counter() - t0
    checks = [abs(curves[m][0] - starts[m]) <= 1e-6 for m in curves]
    checks += [bool(np.all(np.diff(curves[m]) <= 1e-9)) for m in curves]
    checks.append(bool(np.all(curves[10] >= curves[5] - 1e-9)))
    checks.append(bool(np.all(curves[5] >= curves[0] - 1e-9)))
    ok = all(checks) and elapsed < 600.0
    report(10, "E_N decay curves: start, monotonicity, m ordering (nu=5, tau=1/2)", ok,
           f"E_N(0) = {starts[0]:.4f}/{starts[5]:.4f}/{starts[10]:.4f} for m=0/5/10", t0)

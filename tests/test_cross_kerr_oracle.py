"""Cross-Kerr oracle for the entropy curve, with no Kerr evolution per tau.

The splitter conserves total photon number N = n_c + n_d, and
N(N-1) = n_c(n_c-1) + n_d(n_d-1) + 2 n_c n_d.  So the Kerr phase taken before
the splitter equals, after it, a self-Kerr phase on each output mode (a local
unitary, which leaves E unchanged) times the cross-Kerr phase
exp(-2 pi i tau n_c n_d).  Hence E(tau) = S(phi0 o exp(-2 pi i tau p k)),
where phi0 is the untrimmed splitter output at tau = 0 and o is the entrywise
product.  This checks the batched, trimmed curve against one split and one
phase mask per tau, at the full Fock cutoff.
"""

import numpy as np
import pytest

from kerrsplit.beamsplitter import output_at_time
from kerrsplit.entanglement import entanglement_entropy
from kerrsplit.fock import InitialStateSpec
from kerrsplit.sweep import GridSpec, ScenarioConfig, run_entropy_curve

STEPS = 1000
TAUS = GridSpec(0.0, 1.0, STEPS)  # tau_j = j / Q
Q = STEPS - 1
CHUNK = 100  # tau values per stack of phase-masked matrices


def cross_kerr_curve(spec):
    """E(tau_j) for j = 0..Q, the cross-Kerr phase exp(-2 pi i j p k / Q)
    taken from a table of the Q-th roots of unity by exact integer index."""
    phi0 = output_at_time(spec, 0.0)
    d = len(phi0)
    pk = np.outer(np.arange(d), np.arange(d))
    roots = np.exp(-2j * np.pi * np.arange(Q) / Q)
    out = []
    for start in range(0, STEPS, CHUNK):
        j = np.arange(start, min(start + CHUNK, STEPS))
        out.append(entanglement_entropy(phi0 * roots[j[:, None, None] * pk % Q]))
    return np.concatenate(out)


@pytest.mark.parametrize("nu, m", [(5.0, 0), (20.0, 0), (5.0, 5)])
def test_entropy_curve_equals_cross_kerr_oracle(nu, m):
    spec = InitialStateSpec(nu=nu, m=m)
    curve = run_entropy_curve(ScenarioConfig(initial=spec, time_grid=TAUS))
    expected = cross_kerr_curve(spec)
    assert np.max(np.abs(np.array(curve.columns["entropy_ebits"]) - expected)) <= 1e-12

"""Truncation-free oracle for the entropy at the fractional revivals tau = p/q.

At tau = p/q the Kerr-evolved coherent state is the finite superposition
sum_j c_j |alpha_j> (``fractional_revival_superposition``), and the splitter
sends it to sum_j c_j |a_j>_c |b_j>_d with a_j = alpha_j / sqrt(2) and
b_j = i alpha_j / sqrt(2).  Written as A C B^T, with the coherent states as
the columns of A and B and C = diag(c), the reduced state of mode c is
A C B^T conj(B) C^dag A^dag.  Its nonzero spectrum, the squared Schmidt
coefficients, is that of the q x q Hermitian matrix
G_a^(1/2) C G_b^T C^dag G_a^(1/2), where G_a = A^dag A and G_b = B^dag B are
Gram matrices of closed-form coherent overlaps: no Fock space at all, and at
most q Schmidt coefficients, so E <= log2(q) exactly.
"""

import math

import numpy as np
import pytest

from kerrsplit.beamsplitter import output_at_time
from kerrsplit.entanglement import entanglement_entropy
from kerrsplit.fock import InitialStateSpec
from kerrsplit.kerr import fractional_revival_superposition
from kerrsplit.sweep import GridSpec, ScenarioConfig, run_entropy_curve

from test_coherent_loss_oracle import coherent_gram, span_coordinates

NUS = [5.0, 20.0]
FRACTIONS = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5)]
STEPS = 61  # tau_j = j / 60 holds every fraction above


def oracle_schmidt_spectrum(alpha, p, q):
    kerr = fractional_revival_superposition(alpha, p, q)
    a = kerr.centers / math.sqrt(2.0)
    b = 1j * a
    root_a = span_coordinates(a)  # G_a^(1/2)
    c = kerr.coefficients
    mat = root_a @ (c[:, None] * coherent_gram(b).T * c.conj()[None, :]) @ root_a
    lam = np.linalg.eigvalsh(mat)
    return lam / lam.sum()


def oracle_entropy(alpha, p, q):
    lam = oracle_schmidt_spectrum(alpha, p, q)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())


@pytest.mark.parametrize("p, q", FRACTIONS)
@pytest.mark.parametrize("nu", NUS)
def test_entropy_at_fractional_revival_equals_coherent_state_oracle(nu, p, q):
    spec = InitialStateSpec(nu=nu)
    got = entanglement_entropy(output_at_time(spec, p / q))
    assert abs(got - oracle_entropy(spec.alpha, p, q)) <= 1e-12


@pytest.mark.parametrize("nu", NUS)
def test_entropy_curve_at_fractional_revivals_equals_coherent_state_oracle(nu):
    spec = InitialStateSpec(nu=nu)
    curve = run_entropy_curve(ScenarioConfig(initial=spec, time_grid=GridSpec(0.0, 1.0, STEPS)))
    entropies = curve.columns["entropy_ebits"]
    for p, q in FRACTIONS:
        # the grid's tau is p/q to within an ulp, which moves E by far less than 1e-12
        assert abs(entropies[(STEPS - 1) * p // q] - oracle_entropy(spec.alpha, p, q)) <= 1e-12


def test_acceptance_03_criterion_holds_for_the_exact_entropy():
    """Acceptance 03 asks E(1/2) and E(1/3) at nu = 20 to be within 0.02 and
    0.03 of log2(q).  The exact values lie below log2(q), as they must with q
    Schmidt coefficients, and far inside those margins: the gap is 0 to
    roundoff at q = 2 and 2.7e-13 at q = 3."""
    alpha = InitialStateSpec(nu=20.0).alpha
    for q, margin in ((2, 0.02), (3, 0.03)):
        gap = math.log2(q) - oracle_entropy(alpha, 1, q)
        assert -1e-12 <= gap <= margin, (q, gap)

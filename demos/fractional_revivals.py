"""The fractional-revival oracle.

At tau = p/q (coprime) the Kerr-evolved coherent state equals a superposition
of q coherent states sitting on the circle |alpha|.  The superposition
coefficients come from inverting a q x q phase-matching system, which gives a
completely independent route to the same state; the two constructions should
agree to machine precision.
"""

import math

import numpy as np

from kerrsplit.fock import InitialStateSpec, build_initial_state
from kerrsplit.kerr import (
    fractional_revival_superposition,
    kerr_evolve,
    oracle_fidelity,
    reconstruct_fock,
)

NU = 5.0


def main():
    alpha = InitialStateSpec(nu=NU).alpha
    print(f"initial coherent state: nu = {NU:g}, alpha = {alpha:.4f}\n")

    print("oracle fidelity |<superposition|direct>| per revival fraction:")
    for q in range(2, 7):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            fid = oracle_fidelity(NU, p, q)
            print(f"  tau = {p}/{q}:  1 - fidelity = {1.0 - fid:.2e}")
    print()

    sup = fractional_revival_superposition(alpha, 1, 2)
    print("tau = 1/2 superposition (the two-component cat):")
    for c, g in zip(sup.coefficients, sup.centers):
        print(f"  coefficient {c:+.4f}  ->  center {g:+.4f}")

    direct = kerr_evolve(build_initial_state(InitialStateSpec(nu=NU)), 0.5)
    rebuilt = reconstruct_fock(sup, direct.n_cut)
    print(f"max |amplitude difference| = "
          f"{np.max(np.abs(direct.amplitudes - rebuilt.amplitudes)):.2e}")


if __name__ == "__main__":
    main()

"""Photon loss eats the entanglement, more slowly for photon-added inputs.

Both output modes couple to zero-temperature environments with rate
gamma = 0.1.  The log negativity of the damped two-mode state decays with
gamma*tau and vanishes for strong damping, but curves for photon-added
inputs start higher and stay above the coherent-state curve throughout.
This demo runs a desk-scale version (nu = 2, m up to 4); the acceptance
suite runs the full nu = 5, m up to 10 case.
"""

from pathlib import Path

from kerrsplit.decoherence import negativity_decay_curve
from kerrsplit.fock import InitialStateSpec, build_initial_state
from kerrsplit.kerr import kerr_evolve

OUT = Path(__file__).resolve().parent / "output"
GAMMA_TAUS = [0.1 * k for k in range(11)]


def main():
    OUT.mkdir(exist_ok=True)
    rows = {}
    for m in (0, 2, 4):
        state = kerr_evolve(build_initial_state(InitialStateSpec(nu=2.0, m=m)), 0.5)
        rows[m] = negativity_decay_curve(state, GAMMA_TAUS)

    print("log negativity vs gamma*tau at tau = T_rev/2, nu = 2:\n")
    print("gamma*tau   " + "   ".join(f"m={m}" for m in rows))
    for k, gt in enumerate(GAMMA_TAUS):
        print(f"  {gt:5.2f}    " + "  ".join(f"{rows[m][k][1]:.4f}" for m in rows))

    path = OUT / "negativity_decay_nu2.csv"
    with open(path, "w") as fh:
        fh.write("gamma_tau," + ",".join(f"E_N_m{m}" for m in rows) + "\n")
        for k, gt in enumerate(GAMMA_TAUS):
            fh.write(f"{gt:.2f}," + ",".join(f"{rows[m][k][1]:.10g}" for m in rows) + "\n")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()

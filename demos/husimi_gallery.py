"""Phase-space view of the fractional revivals.

The Husimi Q function of the Kerr-evolved state shows the q sub-packets on a
circle.  Packets stay distinguishable only while q is below the estimate
N_max = pi*|alpha|/sqrt(ln 10) (4.62 for nu = 5), and photon addition pushes
the packets onto a larger circle so higher orders resolve: the highest
distinguishable order grows from 5 (m = 0) to 7 (m = 5) and 8 (m = 10).
Grids for one case are exported as CSV plus a dense matrix file.
"""

import math
from pathlib import Path

from kerrsplit.fock import InitialStateSpec, build_initial_state
from kerrsplit.husimi import (
    count_peaks,
    husimi_q,
    n_max_estimate,
    write_grid,
)
from kerrsplit.kerr import kerr_evolve

OUT = Path(__file__).resolve().parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    print(f"N_max estimate at nu=5: {n_max_estimate(math.sqrt(5.0)):.2f}\n")

    for m, qs in ((0, (4, 5, 6)), (5, (6, 7, 8)), (10, (7, 8, 9))):
        amplitudes = build_initial_state(InitialStateSpec(nu=5.0, m=m))
        counts = []
        for q in qs:
            grid = husimi_q(kerr_evolve(amplitudes, 1.0 / q))
            counts.append(f"tau=1/{q}: {count_peaks(grid)} peaks")
        print(f"m = {m:2d}:  " + "   ".join(counts))

    grid = husimi_q(kerr_evolve(build_initial_state(InitialStateSpec(nu=5.0)), 0.2))
    write_grid(grid, OUT / "husimi_nu5_tau0.2.csv", OUT / "husimi_nu5_tau0.2.qmat")
    print(f"\nwrote {OUT / 'husimi_nu5_tau0.2.csv'}")
    print(f"wrote {OUT / 'husimi_nu5_tau0.2.qmat'}")


if __name__ == "__main__":
    main()

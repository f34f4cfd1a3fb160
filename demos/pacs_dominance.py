"""Photon-added coherent states generate more entanglement, at every time.

Adding m photons to the coherent input makes it nonclassical already at
tau = 0 (the splitter output is entangled immediately), and the whole
entropy curve moves up monotonically with m.  As nu -> 0 the m-photon-added
state becomes the Fock state |m>, whose split entropy is the binomial value
(about 2.198 ebits for m = 5) independent of time.
"""

import math

import numpy as np

from kerrsplit.beamsplitter import output_at_time
from kerrsplit.entanglement import entanglement_entropy, entropy_curve
from kerrsplit.fock import InitialStateSpec, build_initial_state

NU = 5.0
TAUS = np.linspace(0.0, 1.0, 301)


def main():
    curves = {}
    for m in (0, 5, 10):
        curves[m] = entropy_curve(build_initial_state(InitialStateSpec(nu=NU, m=m)), TAUS)
        print(f"m = {m:2d}:  E(0) = {curves[m][0]:.4f}   E_max = {curves[m].max():.4f} ebits")

    print("\npointwise dominance over the shared grid:")
    print(f"  min E(m=5)  - E(m=0)  = {np.min(curves[5] - curves[0]):.4f}")
    print(f"  min E(m=10) - E(m=5)  = {np.min(curves[10] - curves[5]):.4f}")

    binomial = -sum(math.comb(5, p) / 32.0 * math.log2(math.comb(5, p) / 32.0)
                    for p in range(6))
    fock_limit = entanglement_entropy(output_at_time(InitialStateSpec(nu=1e-6, m=5), 0.4))
    print(f"\nnu -> 0 limit for m = 5: E = {fock_limit:.4f} ebits "
          f"(binomial value {binomial:.4f})")


if __name__ == "__main__":
    main()

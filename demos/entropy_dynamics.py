"""Entanglement entropy vs time for an initial coherent state.

A coherent state |alpha| with mean photon number nu rides through the Kerr
medium and is split on the 50/50 beam splitter with vacuum.  At tau = 0 and
tau = 1 (full revival) the output is a product state; in between, the
entropy climbs to a collapse plateau whose height grows with nu, and dips at
every fractional revival tau = p/q.  This script reproduces the plateau
values (2.37 / 2.90 / 3.42 ebits for nu = 5 / 10 / 20) and tabulates the
detected minima against log2(q).
"""

from pathlib import Path

from kerrsplit.fock import InitialStateSpec
from kerrsplit.sweep import GridSpec, ScenarioConfig, run_entropy_curve, write_table

OUT = Path(__file__).resolve().parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    for nu in (5.0, 10.0, 20.0):
        cfg = ScenarioConfig(
            name=f"coherent_nu{nu:g}",
            initial=InitialStateSpec(nu=nu),
            time_grid=GridSpec(0.0, 1.0, 1000),
        )
        table = run_entropy_curve(cfg)
        summary = table.summary
        path = OUT / f"{cfg.name}_{table.artifact}.csv"
        write_table(path, table)
        print(f"nu = {nu:g}:  E_max = {summary['e_max']:.3f} ebits, "
              f"{summary['n_minima']} fractional-revival minima -> {path.name}")
        for entry in summary["minima"]:
            print(f"    tau ~ {entry['revival_p']}/{entry['revival_q']}   "
                  f"E = {entry['entropy_ebits']:.3f}   log2(q) = {entry['log2_q']:.3f}   "
                  f"deviation = {entry['deviation_from_log2_q']:+.3f}")
        print()


if __name__ == "__main__":
    main()

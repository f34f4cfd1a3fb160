"""Seeded job lists for the three benchmark workloads.

A job is one ``kerrsplit`` CLI invocation: a subcommand plus a scenario JSON
config.  Seed 0 is the canonical list; every other seed perturbs the mean
photon numbers by a few percent and shifts the time grids.  Each perturbation
interval stays inside the plateau on which the Fock cutoff (and so the state
dimension d) does not change, so every seed does the same amount of work per
pass and only the numbers differ.

``smoke=True`` gives the same jobs on tiny grids, for the harness self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("entropy", "decoherence", "husimi")

WHY = {
    "entropy": "entropy curves and a (tau, nu) surface: the pure-state layers "
               "(cutoff, state, Kerr, splitter, Schmidt SVD), 5000 tau points per pass",
    "decoherence": "E_N under photon loss: the mixed-state layers (damp, partial transpose, "
                   "eigvalsh) at d=20-31, 21 E_N points per pass",
    "husimi": "Husimi Q maps at 201x201 with peak counts and grid writers, "
              "202005 pixels per pass, no entanglement work",
}

# Perturbation intervals for nu (relative).  Measured against the cutoff rule
# of kerrsplit.fock.choose_cutoff: inside them d is the same as at seed 0.
_NU5 = (-0.03, 0.0)        # nu=5, m=0:   d=33 on [-6%, +0.02%]
_NU20 = (-0.005, 0.02)     # nu=20, m=0:  d=65 on [-0.6%, +2.1%]
_NU5_M5 = (-0.03, 0.02)    # nu=5, m=5:   d=42 on [-5.1%, +2.1%]
_NU2_M024 = (-0.03, 0.02)  # nu=2, m=0,2,4: d=24/28/31 on [-4.4%, +2.6%]
_NU123 = (-0.02, 0.02)     # nu=1,2,3:    d=20/24/28 on [-2.4%, +2.6%]


@dataclass(frozen=True)
class Job:
    """One CLI call: ``kerrsplit <command> --config <file> --out-dir <dir>``."""

    command: str
    config: dict
    points: int  # grid points (tau, E_N or pixel) this job computes

    @property
    def name(self) -> str:
        return self.config["name"]


class _Perturber:
    """Seed 0 returns canonical values; other seeds draw inside the intervals."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed) if seed else None

    def nu(self, nu: float, interval: tuple[float, float]) -> float:
        if self.rng is None:
            return nu
        return nu * (1.0 + self.rng.uniform(*interval))

    def shift(self, width: float) -> float:
        return self.rng.uniform(-width, width) if self.rng else 0.0

    def grid_shift(self, steps: int) -> float:
        """Shift of a [0, 1] grid by less than one step."""
        return self.rng.uniform(0.0, 1.0 / max(steps - 1, 1)) if self.rng else 0.0


def _time_grid(steps: int, shift: float) -> dict:
    return {"start": shift, "stop": 1.0 + shift, "steps": steps}


def _entropy_jobs(pert: _Perturber, smoke: bool) -> list[Job]:
    steps = 20 if smoke else 1000
    surf_steps, surf_nus = (5, 3) if smoke else (100, 20)
    jobs = []
    for name, nu, m, interval in (
        ("curve_nu5", 5.0, 0, _NU5),
        ("curve_nu20", 20.0, 0, _NU20),
        ("curve_nu5_m5", 5.0, 5, _NU5_M5),
    ):
        config = {
            "name": name,
            "initial": {"nu": pert.nu(nu, interval), "m": m},
            "time_grid": _time_grid(steps, pert.grid_shift(steps)),
        }
        jobs.append(Job("entropy", config, steps))
    # The nu grid of the surface stays fixed: no common factor keeps all
    # twenty cutoffs, so only its time grid moves.
    config = {
        "name": "surface",
        "time_grid": _time_grid(surf_steps, pert.grid_shift(surf_steps)),
        "nu_grid": {"start": 1.0, "stop": float(surf_nus), "steps": surf_nus},
    }
    jobs.append(Job("surface", config, surf_steps * surf_nus))
    return jobs


def _decoherence_jobs(pert: _Perturber, smoke: bool) -> list[Job]:
    gamma_steps, m_values = (3, [0, 2]) if smoke else (6, [0, 2, 4])
    nu_stop = 2.0 if smoke else 3.0
    nu_steps = 2 if smoke else 3
    tau = 0.5 + pert.shift(0.01)
    decay = {
        "name": "decay_nu2",
        "initial": {"nu": pert.nu(1.0 if smoke else 2.0, _NU2_M024)},
        "channel": {
            "tau": tau,
            "m_values": m_values,
            "gamma_tau_grid": {"start": 0.0, "stop": 1.0, "steps": gamma_steps},
        },
    }
    scale = pert.nu(1.0, _NU123)
    vs_nu = {
        "name": "decay_vs_nu",
        "nu_grid": {"start": scale, "stop": nu_stop * scale, "steps": nu_steps},
        "channel": {"gamma_tau_grid": None, "gamma_tau": 0.3, "tau": tau},
    }
    return [
        Job("decohere", decay, gamma_steps * len(m_values)),
        Job("decohere", vs_nu, nu_steps),
    ]


def _husimi_jobs(pert: _Perturber, smoke: bool) -> list[Job]:
    resolution = 31 if smoke else 201
    shift = pert.shift(0.002)
    jobs = []
    for name, nu, m, interval, taus in (
        ("gallery_nu5", 5.0, 0, _NU5, [1 / 2, 1 / 3, 1 / 4, 1 / 5]),
        ("cat7_nu5_m5", 5.0, 5, _NU5_M5, [1 / 7]),
    ):
        config = {
            "name": name,
            "initial": {"nu": pert.nu(nu, interval), "m": m},
            "husimi": {"taus": [t + shift for t in taus], "resolution": resolution},
        }
        jobs.append(Job("husimi", config, len(taus) * resolution * resolution))
    return jobs


_JOB_LISTS = {
    "entropy": _entropy_jobs,
    "decoherence": _decoherence_jobs,
    "husimi": _husimi_jobs,
}


def make_jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The fixed job list of one workload for one seed."""
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return _JOB_LISTS[workload](_Perturber(seed), smoke)

"""Truncated-Fock-space simulator for Kerr-evolved coherent and
photon-added coherent states split on a 50/50 beam splitter: entanglement
dynamics with fractional-revival structure, Husimi phase-space analysis, and
decoherence under photon loss."""

__version__ = "0.1.0"

from .beamsplitter import output_at_time, split_amplitudes
from .decoherence import ChannelParams, negativity_decay_curve
from .entanglement import (
    entanglement_entropy,
    entropy_curve,
    log_negativity,
    partial_transpose,
    pure_state_log_negativity,
    schmidt_spectrum,
    von_neumann_entropy,
)
from .fock import (
    CutoffPolicy,
    CutoffTooSmallError,
    InitialStateSpec,
    build_initial_state,
    choose_cutoff,
)
from .husimi import (
    PhaseSpaceGrid,
    count_peaks,
    husimi_q,
    n_max_estimate,
)
from .kerr import (
    CoherentSuperposition,
    fractional_revival_superposition,
    kerr_evolve,
    oracle_fidelity,
    reconstruct_fock,
)
from .sweep import (
    ConfigError,
    GridSpec,
    InfeasibleScenarioError,
    ScenarioConfig,
    Table,
    run_decoherence_scan,
    run_entropy_curve,
    run_entropy_surface,
    run_husimi,
)

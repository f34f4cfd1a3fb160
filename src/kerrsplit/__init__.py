"""Truncated-Fock-space simulator for Kerr-evolved coherent and
photon-added coherent states split on a 50/50 beam splitter: entanglement
dynamics with fractional-revival structure, Husimi phase-space analysis, and
decoherence under photon loss."""

__version__ = "0.1.0"

from .beamsplitter import output_at_time, split_amplitudes, split_with_vacuum
from .decoherence import ChannelParams, damp, negativity_decay_curve
from .entanglement import (
    entanglement_entropy,
    log_negativity,
    partial_transpose,
    pure_state_log_negativity,
    pure_to_density,
    schmidt_spectrum,
    von_neumann_entropy,
)
from .fock import (
    CutoffPolicy,
    CutoffTooSmallError,
    FockVector,
    InitialStateSpec,
    build_initial_state,
    choose_cutoff,
    fock_state,
    inner_product,
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
    kerr_phases,
    oracle_fidelity,
    reconstruct_fock,
)
from .sweep import (
    ConfigError,
    CurveRecord,
    GridSpec,
    InfeasibleScenarioError,
    ScenarioConfig,
    run_decoherence_scan,
    run_entropy_curve,
    run_entropy_surface,
    run_husimi,
)

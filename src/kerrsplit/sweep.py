"""Configuration-driven sweeps: entropy curves and surfaces, Husimi grids,
and decoherence scans, with CSV/JSON emission.

Scenarios are plain JSON documents.  Every pipeline stage is deterministic
(there is no randomness anywhere), so identical configs produce byte-identical
CSV files.

Pure-state curves run as batches: the cutoff and the initial state are built
once per curve (once per nu column of a surface), and the Kerr phases, the
splitter and the Schmidt SVDs run on blocks of tau values at a time.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__

from .beamsplitter import output_at_time, split_amplitudes
from .decoherence import ChannelParams, negativity_decay_curve
from .entanglement import entanglement_entropy
from .fock import (
    DEFAULT_DIM_CAP,
    CutoffPolicy,
    InfeasibleScenarioError,
    InitialStateSpec,
    build_initial_state,
    check_dim_cap,
    check_int,
    check_real,
    choose_cutoff,
)
from .husimi import (
    count_peaks,
    husimi_q,
    n_max_estimate,
    prominent_summits,
    write_grid_csv,
    write_grid_matrix,
)
from .kerr import kerr_evolve, kerr_phases

__all__ = [
    "ConfigError",
    "CurveRecord",
    "GridSpec",
    "InfeasibleScenarioError",
    "ScenarioConfig",
    "run_decoherence_scan",
    "run_entropy_curve",
    "run_entropy_surface",
    "run_husimi",
    "write_records_csv",
]

# prune entropy local minima shallower than this (ebits)
MINIMUM_PROMINENCE = 0.05

# Most points a grid, or the surface's tau x nu product, may hold.
MAX_GRID_POINTS = 10**6

# Two-mode amplitudes per batched block of tau values, in bytes.  Larger
# blocks run no faster and raise the peak memory of a curve.
_BLOCK_BYTES = 1 << 18


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the offending field."""


@contextmanager
def config_errors(field_name: str):
    """Re-raise a TypeError or ValueError from building ``field_name`` as a
    ConfigError naming it."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field_name}: {exc}") from exc


def _check_type(name: str, value, cls, optional: bool = False):
    if not (isinstance(value, cls) or (optional and value is None)):
        raise TypeError(f"{name} must be of type {cls.__name__}, got {value!r}")


def _check_non_negative_ends(name: str, grid) -> None:
    if grid is not None and min(grid.start, grid.stop) < 0:
        raise ValueError(f"{name} must not go below 0, got {grid}")


def _check_finite(values, what: str) -> None:
    """Refuse a NaN or infinite result, a numerical failure, as infeasible."""
    if not np.isfinite(values).all():
        raise InfeasibleScenarioError(f"{what}: the computation gave a non-finite result")


def _as_tuple(name: str, value) -> tuple:
    """A JSON list (or a tuple) as a tuple; anything else is a TypeError."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{name} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1-D grid: ``steps`` points from start to stop inclusive."""

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        check_real("start", self.start)
        check_real("stop", self.stop)
        if check_int("steps", self.steps, 1) > MAX_GRID_POINTS:
            raise ValueError(f"steps must be <= {MAX_GRID_POINTS}, got {self.steps}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class HusimiSection:
    taus: tuple = ()
    resolution: int = 201
    half_width: float | None = None
    rel_threshold: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "taus", _as_tuple("taus", self.taus))
        for tau in self.taus:
            check_real("taus", tau)
        check_int("resolution", self.resolution, 2)
        if self.half_width is not None and check_real("half_width", self.half_width) <= 0:
            raise ValueError(f"half_width must be > 0, got {self.half_width!r}")
        if not 0.0 < check_real("rel_threshold", self.rel_threshold) < 1.0:
            raise ValueError(f"rel_threshold must lie in (0, 1), got {self.rel_threshold!r}")


@dataclass(frozen=True)
class ChannelSection:
    """Loss-channel part of a scenario: rates, the gamma*tau axis, the revival
    fraction feeding the splitter, and which photon-addition numbers to scan
    (``gamma_tau_grid`` may also be a dict of GridSpec fields)."""

    gamma1: float = 0.1
    gamma2: float = 0.1
    gamma_tau_grid: GridSpec | None = GridSpec(0.0, 1.0, 51)
    gamma_tau: float = 0.3
    tau: float = 0.5
    m_values: tuple = ()

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "gamma_tau"):
            if check_real(name, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        check_real("tau", self.tau)
        if isinstance(self.gamma_tau_grid, dict):
            with config_errors("gamma_tau_grid"):
                object.__setattr__(self, "gamma_tau_grid", GridSpec(**self.gamma_tau_grid))
        _check_type("gamma_tau_grid", self.gamma_tau_grid, GridSpec, optional=True)
        _check_non_negative_ends("gamma_tau_grid", self.gamma_tau_grid)
        object.__setattr__(self, "m_values", _as_tuple("m_values", self.m_values))
        for m in self.m_values:
            check_int("m_values", m, 0)


# Config fields that hold a section, built from a JSON object by its class.
_SECTIONS = {
    "initial": InitialStateSpec,
    "time_grid": GridSpec,
    "nu_grid": GridSpec,
    "husimi": HusimiSection,
    "channel": ChannelSection,
    "cutoff": CutoffPolicy,
}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    initial: InitialStateSpec = InitialStateSpec(nu=5.0)
    time_grid: GridSpec = GridSpec(0.0, 1.0, 1000)
    nu_grid: GridSpec | None = None
    husimi: HusimiSection = HusimiSection()
    channel: ChannelSection | None = None
    cutoff: CutoffPolicy = CutoffPolicy()
    q_max: int = 12
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        _check_type("name", self.name, str)
        if not self.name:
            raise ValueError("name must be a non-empty string")
        if any(sep and sep in self.name for sep in ("/", os.sep, os.altsep, "\0")):
            raise ValueError(f"name must not contain a path separator or NUL, got {self.name!r}")
        for name, cls in _SECTIONS.items():
            _check_type(name, getattr(self, name), cls,
                        optional=name in ("nu_grid", "channel"))
        _check_non_negative_ends("nu_grid", self.nu_grid)
        points = self.time_grid.steps * (self.nu_grid.steps if self.nu_grid else 0)
        if points > MAX_GRID_POINTS:
            raise ValueError(f"time_grid.steps * nu_grid.steps must be <= {MAX_GRID_POINTS}, "
                             f"got {points}")
        check_int("q_max", self.q_max, 1)
        check_int("dim_cap", self.dim_cap, 1)


@dataclass(frozen=True)
class CurveRecord:
    """One grid point of an emitted curve, with per-row metadata."""

    abscissa_label: str
    abscissa: float
    ordinate_label: str
    ordinate: float
    metadata: dict = field(default_factory=dict)


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig; unknown or malformed fields raise
    ConfigError naming the field."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object at top level")
    known = {f.name for f in fields(ScenarioConfig)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown config field")
    kwargs = dict(raw)
    for key, cls in _SECTIONS.items():
        if isinstance(kwargs.get(key), dict):
            with config_errors(key):
                kwargs[key] = cls(**kwargs[key])
    with config_errors("config"):
        return ScenarioConfig(**kwargs)


def config_from_json(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to parse
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# batched pure-state pipeline

def _entropy_column(spec: InitialStateSpec, taus: np.ndarray, n_cut: int,
                    policy: CutoffPolicy) -> np.ndarray:
    """Entanglement entropy at every tau for one initial state, equal to
    entanglement_entropy(output_at_time(spec, tau, n_cut, policy)) point by
    point, with the state built once and the rest run in bounded blocks."""
    amplitudes = build_initial_state(spec, n_cut=n_cut, policy=policy).amplitudes
    d = n_cut + 1
    block = max(1, _BLOCK_BYTES // (16 * d * d))
    out = np.empty(len(taus))
    for start in range(0, len(taus), block):
        rows = amplitudes * kerr_phases(d, taus[start:start + block])
        out[start:start + block] = entanglement_entropy(split_amplitudes(rows))
    _check_finite(out, f"entropy of (nu={spec.nu:g}, m={spec.m})")
    return out


# ---------------------------------------------------------------------------
# local-minimum detection and rational annotation

def _prominent_minima(values: np.ndarray, floor: float = MINIMUM_PROMINENCE) -> list[int]:
    """Indices of interior local minima with topographic prominence >= floor:
    the prominent summits of -values whose plateau touches neither end.  A
    deep dip split across two grid points keeps its full prominence, and the
    deepest basin's prominence is the range of the values.
    """
    if np.ptp(values) < floor:
        return []

    def touches_end(i: int) -> bool:
        return bool((values[: i + 1] == values[i]).all() or (values[i:] == values[i]).all())

    return [i for i in prominent_summits(-values, floor) if not touches_end(i)]


def nearest_rational(tau: float, q_max: int) -> tuple[int, int]:
    """Best rational approximation p/q to tau with q <= q_max (continued
    fractions via Fraction.limit_denominator)."""
    frac = Fraction(tau).limit_denominator(q_max)
    return frac.numerator, frac.denominator


# ---------------------------------------------------------------------------
# scenario runners

def _dim_lower_bound(nu: float, m: int, policy: CutoffPolicy) -> int:
    """A lower bound on choose_cutoff(nu, m, policy) + 1 that allocates nothing:
    below the Poisson median, which is at least nu - ln 2, the tail holds half
    the mass or more, and photon addition only moves weight upward."""
    past_median = max(0, math.ceil(nu - math.log(2.0))) if policy.tail_tol < 0.5 else 0
    return m + policy.safety_margin + 1 + past_median


def _cutoff(config: ScenarioConfig, nu: float, m: int, mixed: bool = False) -> int:
    """Fock cutoff of one (nu, m) state, refused when its largest matrix (d x d,
    or d^2 x d^2 when ``mixed``) would exceed ``config.dim_cap``; a lower bound
    on d is checked before the cutoff's weight arrays are built."""
    what = f"state (nu={nu:g}, m={m})"
    low = _dim_lower_bound(nu, m, config.cutoff)
    check_dim_cap(low * low if mixed else low, config.dim_cap, what)
    n_cut = choose_cutoff(nu, m, config.cutoff)
    d = n_cut + 1
    check_dim_cap(d * d if mixed else d, config.dim_cap, what)
    return n_cut


def run_entropy_curve(config: ScenarioConfig) -> list[CurveRecord]:
    """Entanglement entropy over the time grid, with prominent local minima
    annotated by the nearest rational revival fraction p/q."""
    init = config.initial
    n_cut = _cutoff(config, init.nu, init.m)
    taus = config.time_grid.values()
    entropies = _entropy_column(init, taus, n_cut, config.cutoff)
    minima = set(_prominent_minima(entropies))

    records = []
    for i, (tau, ent) in enumerate(zip(taus, entropies)):
        meta = {"nu": init.nu, "m": init.m, "theta": init.theta, "n_cut": n_cut,
                "local_min": 1 if i in minima else 0}
        if i in minima:
            p, q = nearest_rational(float(tau), config.q_max)
            meta["revival_p"], meta["revival_q"] = p, q
        records.append(CurveRecord("tau", float(tau), "entropy_ebits", float(ent), meta))
    return records


def entropy_curve_summary(config: ScenarioConfig, records: list[CurveRecord]) -> dict:
    """Curve-level summary: E_max and the annotated minima, each compared
    against the log2(q) value a maximally entangled q-dimensional state
    would give."""
    minima = []
    for rec in records:
        if not rec.metadata.get("local_min"):
            continue
        q = rec.metadata["revival_q"]
        minima.append(
            {
                "tau": rec.abscissa,
                "revival_p": rec.metadata["revival_p"],
                "revival_q": q,
                "entropy_ebits": rec.ordinate,
                "log2_q": math.log2(q),
                "deviation_from_log2_q": rec.ordinate - math.log2(q),
            }
        )
    return {
        "name": config.name,
        "nu": config.initial.nu,
        "m": config.initial.m,
        "theta": config.initial.theta,
        "e_max": max(rec.ordinate for rec in records),
        "n_minima": len(minima),
        "minima": minima,
    }


def run_entropy_surface(config: ScenarioConfig) -> list[CurveRecord]:
    """Entropy over the (tau, nu) product grid, tau-major row order."""
    if config.nu_grid is None:
        raise ConfigError("nu_grid: required for an entropy surface")
    init = config.initial
    taus = config.time_grid.values()
    nus = [float(nu) for nu in config.nu_grid.values()]
    n_cuts = [_cutoff(config, nu, init.m) for nu in nus]
    columns = [
        _entropy_column(replace(init, nu=nu), taus, n_cut, config.cutoff)
        for nu, n_cut in zip(nus, n_cuts)
    ]

    records = []
    for i, tau in enumerate(taus):
        for nu, n_cut, column in zip(nus, n_cuts, columns):
            meta = {"nu": nu, "m": init.m, "theta": init.theta, "n_cut": n_cut}
            records.append(CurveRecord("tau", float(tau), "entropy_ebits",
                                       float(column[i]), meta))
    return records


def run_decoherence_scan(config: ScenarioConfig) -> list[CurveRecord]:
    """Log-negativity curves under photon loss.

    With a gamma_tau grid: one E_N(gamma*tau) curve per configured m.  With a
    nu grid and a fixed gamma_tau: E_N(nu) per configured m.  Dimension-cap
    violations fail before any heavy work, naming the offending (nu, m).
    """
    if config.channel is None:
        raise ConfigError("channel: section required for a decoherence scan")
    chan = config.channel
    if chan.gamma1 <= 0:
        raise ConfigError("channel.gamma1: must be > 0 for a decoherence scan")
    init = config.initial
    m_values = chan.m_values if chan.m_values else (init.m,)
    if chan.gamma_tau_grid is not None:
        nus, gamma_taus = [init.nu], chan.gamma_tau_grid.values().tolist()
    elif config.nu_grid is not None:
        nus, gamma_taus = [float(nu) for nu in config.nu_grid.values()], [chan.gamma_tau]
    else:
        raise ConfigError("channel: need gamma_tau_grid, or nu_grid plus a fixed gamma_tau")
    longest = max(gamma_taus) / chan.gamma1  # the damping time of the largest gamma_tau
    if not (math.isfinite(longest) and math.isfinite(chan.gamma2 * longest)):
        raise ConfigError("channel: gamma_tau/gamma1 or gamma2*gamma_tau/gamma1 is not finite")
    states = [(nu, m, _cutoff(config, nu, m, mixed=True)) for m in m_values for nu in nus]
    params = ChannelParams(gamma1=chan.gamma1, gamma2=chan.gamma2)

    records = []
    for nu, m, n_cut in states:
        phi = output_at_time(replace(init, nu=nu, m=m), chan.tau, n_cut=n_cut,
                             policy=config.cutoff)
        meta = {"nu": nu, "m": m, "theta": init.theta, "n_cut": n_cut,
                "revival_tau": chan.tau}
        curve = negativity_decay_curve(phi, gamma_taus, params, config.dim_cap)
        _check_finite([en for _, en in curve], f"log negativity of (nu={nu:g}, m={m})")
        if chan.gamma_tau_grid is not None:
            records.extend(CurveRecord("gamma_tau", g, "log_negativity", float(en), dict(meta))
                           for g, en in curve)
        else:
            ((_, en),) = curve
            meta["gamma_tau"] = chan.gamma_tau
            records.append(CurveRecord("nu", nu, "log_negativity", float(en), meta))
    return records


def run_husimi(config: ScenarioConfig, out_dir) -> dict:
    """Write one Q grid (CSV plus dense-matrix file) per requested tau and
    return the summary with peak counts and the distinguishability estimate."""
    section = config.husimi
    if not section.taus:
        raise ConfigError("husimi.taus: at least one tau value is required")
    check_dim_cap(section.resolution, config.dim_cap, "Husimi grid")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    init = config.initial
    n_cut = _cutoff(config, init.nu, init.m)
    base = build_initial_state(init, n_cut=n_cut, policy=config.cutoff)

    entries = []
    for tau in section.taus:
        state = kerr_evolve(base, float(tau))
        grid = husimi_q(state, half_width=section.half_width,
                        resolution=section.resolution)
        _check_finite(grid.values, f"Husimi Q at tau={float(tau):g}")
        stem = f"{config.name}_husimi_tau_{float(tau):.6g}"
        csv_path = out_dir / f"{stem}.csv"
        mat_path = out_dir / f"{stem}.qmat"
        write_grid_csv(grid, csv_path)
        write_grid_matrix(grid, mat_path)
        entries.append(
            {
                "tau": float(tau),
                "peak_count": count_peaks(grid, section.rel_threshold),
                "files": [csv_path.name, mat_path.name],
                "q_max_value": float(grid.values.max()),
                "normalization": grid.normalization(),
            }
        )
    return {
        "name": config.name,
        "nu": init.nu,
        "m": init.m,
        "theta": init.theta,
        "n_cut": n_cut,
        "resolution": section.resolution,
        "rel_threshold": section.rel_threshold,
        "n_max_estimate": n_max_estimate(math.sqrt(init.nu)),
        "grids": entries,
    }


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def scenario_metadata(config: ScenarioConfig, n_cut: int | None = None) -> dict:
    meta = {
        "name": config.name,
        "nu": config.initial.nu,
        "m": config.initial.m,
        "theta": config.initial.theta,
    }
    if n_cut is not None:
        meta["n_cut"] = n_cut
    meta["tail_tol"] = config.cutoff.tail_tol
    meta["safety_margin"] = config.cutoff.safety_margin
    meta["tool"] = f"kerrsplit {__version__}"
    return meta


def write_records_csv(path, records: list[CurveRecord], extra_columns=(),
                      metadata: dict | None = None) -> None:
    """Header row plus '#'-prefixed metadata block; extra columns are pulled
    from each record's metadata (blank when missing)."""
    if not records:
        raise ValueError("no records to write")
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}: {_fmt(value)}")
    header = [records[0].abscissa_label, records[0].ordinate_label, *extra_columns]
    lines.append(",".join(header))
    for rec in records:
        row = [_fmt(rec.abscissa), _fmt(rec.ordinate)]
        row.extend(_fmt(rec.metadata.get(col)) for col in extra_columns)
        lines.append(",".join(row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def with_overrides(config: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Apply CLI-style overrides (nu, m, theta, tau_steps, name); a rejected
    value raises ConfigError naming its field."""
    init_changes = {key: overrides[key] for key in ("nu", "m", "theta")
                    if overrides.get(key) is not None}
    with config_errors("initial"):
        initial = replace(config.initial, **init_changes)
    with config_errors("time_grid"):
        time_grid = (config.time_grid if overrides.get("tau_steps") is None
                     else replace(config.time_grid, steps=overrides["tau_steps"]))
    name = config.name if overrides.get("name") is None else overrides["name"]
    with config_errors("config"):
        return replace(config, initial=initial, time_grid=time_grid, name=name)

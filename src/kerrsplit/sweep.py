"""Configuration-driven sweeps: entropy curves and surfaces, Husimi grids,
and decoherence scans, with CSV/JSON emission.

Every runner returns a ``Table``: the artifact name, the ``#`` header,
named equal-length columns, the JSON summary and any further files, and
``write_table`` alone writes one.  The Husimi table has no columns; its
files compute and write one Q grid at a time.  A run's artifacts are
renamed into place only once all of them are written.

Scenarios are plain JSON documents.  Every pipeline stage is deterministic
(there is no randomness anywhere), so identical configs produce byte-identical
CSV files.

Each config section checks only its own fields.  A rule between two
fields is checked by the runner that reads both, before it builds a state:
``run_entropy_surface`` the tau x nu product, ``run_decoherence_scan`` the
rates against its gamma*tau axis, ``run_husimi`` the grid against
``dim_cap`` (``husimi._check_grid_cap``).  Every runner builds each input
state once, with ``build_initial_state(spec, policy=config.cutoff,
dim_cap=config.dim_cap)``, which owns the size rule d <= ``dim_cap``, and
hands its amplitudes down; n_cut is their length less one.  A runner builds
all its states before any heavy work.  An entropy curve, and each nu column of a surface, is one
call of ``entanglement.entropy_curve``, as a loss curve is one call of
``decoherence.negativity_decay_curve``; its numbers do not depend on the
CPU count, so the CSVs are the same bytes on any number of CPUs.
``kerr_evolve`` refuses a tau whose phases overflow, and each function
that computes an entropy, a log negativity or a Q map refuses a result that
is not finite, so no runner checks a result.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .decoherence import ChannelParams, _check_loss_cap, negativity_decay_curve
from .entanglement import entropy_curve
from .fock import (
    DEFAULT_DIM_CAP,
    CutoffPolicy,
    InfeasibleScenarioError,
    InitialStateSpec,
    build_initial_state,
    check_int,
    check_real,
)
from .husimi import (
    _check_grid_cap,
    count_peaks,
    husimi_q,
    n_max_estimate,
    prominent_summits,
    write_grid,
)
from .kerr import kerr_evolve

__all__ = [
    "ConfigError",
    "GridSpec",
    "InfeasibleScenarioError",
    "ScenarioConfig",
    "Table",
    "run_decoherence_scan",
    "run_entropy_curve",
    "run_entropy_surface",
    "run_husimi",
    "write_table",
]

# prune entropy local minima shallower than this (ebits)
MINIMUM_PROMINENCE = 0.05

# Most points a grid, or the surface's tau x nu product, may hold.
MAX_GRID_POINTS = 10**6


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


def _tau_label(tau) -> str:
    """The text of tau in Husimi file names."""
    return f"{float(tau):.6g}"


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
        labels = [_tau_label(tau) for tau in self.taus]
        if len(set(labels)) < len(labels):
            raise ValueError(f"taus must differ in their file labels (6 significant "
                             f"digits), got {labels}")
        check_int("resolution", self.resolution, 2)
        if self.half_width is not None and check_real("half_width", self.half_width) <= 0:
            raise ValueError(f"half_width must be > 0, got {self.half_width!r}")
        if not 0.0 < check_real("rel_threshold", self.rel_threshold) < 1.0:
            raise ValueError(f"rel_threshold must lie in (0, 1), got {self.rel_threshold!r}")


@dataclass(frozen=True)
class ChannelSection(ChannelParams):
    """Loss-channel part of a scenario: the rates gamma1 and gamma2, with
    their check, from ``ChannelParams``, then the gamma*tau axis, the revival
    fraction feeding the splitter, and which photon-addition numbers to scan
    (``gamma_tau_grid`` may also be a dict of GridSpec fields), each field
    checked on its own."""

    gamma_tau_grid: GridSpec | None = GridSpec(0.0, 1.0, 51)
    gamma_tau: float = 0.3
    tau: float = 0.5
    m_values: tuple = ()

    def __post_init__(self):
        super().__post_init__()
        check_real("tau", self.tau)
        if isinstance(self.gamma_tau_grid, dict):
            with config_errors("gamma_tau_grid"):
                object.__setattr__(self, "gamma_tau_grid", GridSpec(**self.gamma_tau_grid))
        _check_type("gamma_tau_grid", self.gamma_tau_grid, GridSpec, optional=True)
        _check_non_negative_ends("gamma_tau_grid", self.gamma_tau_grid)
        if check_real("gamma_tau", self.gamma_tau) < 0:
            raise ValueError(f"gamma_tau must be >= 0, got {self.gamma_tau!r}")
        object.__setattr__(self, "m_values", _as_tuple("m_values", self.m_values))
        for m in self.m_values:
            check_int("m_values", m, 0)
        if len(set(self.m_values)) < len(self.m_values):
            raise ValueError(f"m_values must not repeat, got {list(self.m_values)}")


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
    channel: ChannelSection = ChannelSection()
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
            _check_type(name, getattr(self, name), cls, optional=name == "nu_grid")
        _check_non_negative_ends("nu_grid", self.nu_grid)
        check_int("q_max", self.q_max, 1)
        check_int("dim_cap", self.dim_cap, 1)


@dataclass(frozen=True)
class Table:
    """One runner's result, as ``write_table`` writes it: the artifact name
    (``<name>_<artifact>.csv`` and ``.json``), the ``#`` header, named
    equal-length columns (``None`` writes a blank cell; none writes no
    CSV), the JSON summary, and ``files()``, which gives further (file
    names, ``write(*paths)``) pairs, written first.  A runner may fill its
    summary as those files are made, so the summary is complete only once
    ``write_table`` has run; each write makes them anew, so a table can be
    written again, or after a write that failed."""

    artifact: str
    header: dict
    columns: dict
    summary: dict
    files: Callable = tuple


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
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a huge int, deep nesting
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return config_from_dict(raw)


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

def _label(spec: InitialStateSpec) -> str:
    """The text that names one input state in errors."""
    return f"(nu={spec.nu:g}, m={spec.m})"


def run_entropy_curve(config: ScenarioConfig) -> Table:
    """Entanglement entropy over the time grid, with prominent local minima
    annotated by the nearest rational revival fraction p/q.  The summary
    holds E_max and the minima, each compared against the log2(q) value a
    maximally entangled q-dimensional state would give."""
    init = config.initial
    amplitudes = build_initial_state(init, policy=config.cutoff, dim_cap=config.dim_cap)
    grid = config.time_grid.values()
    column = entropy_curve(amplitudes, grid)
    taus, entropies = grid.tolist(), column.tolist()
    local_min, revival_p, revival_q = [0] * len(taus), [None] * len(taus), [None] * len(taus)
    minima = []
    for i in _prominent_minima(column):
        p, q = nearest_rational(taus[i], config.q_max)
        local_min[i], revival_p[i], revival_q[i] = 1, p, q
        minima.append({"tau": taus[i], "revival_p": p, "revival_q": q,
                       "entropy_ebits": entropies[i], "log2_q": math.log2(q),
                       "deviation_from_log2_q": entropies[i] - math.log2(q)})
    columns = {"tau": taus, "entropy_ebits": entropies, "local_min": local_min,
               "revival_p": revival_p, "revival_q": revival_q}
    summary = {"name": config.name, "nu": init.nu, "m": init.m, "theta": init.theta,
               "e_max": max(entropies), "n_minima": len(minima), "minima": minima}
    return Table("entropy-curve", _scenario_header(config, len(amplitudes) - 1), columns,
                 summary)


def run_entropy_surface(config: ScenarioConfig) -> Table:
    """Entropy over the (tau, nu) product grid, tau-major row order."""
    if config.nu_grid is None:
        raise ConfigError("nu_grid: required for an entropy surface")
    points = config.time_grid.steps * config.nu_grid.steps
    if points > MAX_GRID_POINTS:
        raise ConfigError(f"time_grid.steps * nu_grid.steps must be <= {MAX_GRID_POINTS}, "
                          f"got {points}")
    init = config.initial
    taus = config.time_grid.values()
    nus = config.nu_grid.values().tolist()
    states = [build_initial_state(replace(init, nu=nu), policy=config.cutoff,
                                  dim_cap=config.dim_cap) for nu in nus]
    n_cuts = [len(amplitudes) - 1 for amplitudes in states]
    grid = np.column_stack([entropy_curve(amplitudes, taus) for amplitudes in states])
    entropies = grid.ravel().tolist()
    columns = {"tau": np.repeat(taus, len(nus)).tolist(), "entropy_ebits": entropies,
               "nu": nus * len(taus), "n_cut": n_cuts * len(taus)}
    summary = {"name": config.name, "m": init.m, "theta": init.theta,
               "e_max": max(entropies), "tau_points": len(taus), "nu_points": len(nus)}
    return Table("entropy-surface", _scenario_header(config), columns, summary)


def run_decoherence_scan(config: ScenarioConfig) -> Table:
    """Log-negativity curves under photon loss.

    With a gamma_tau grid: one E_N(gamma*tau) curve per configured m.  With a
    nu grid and a fixed gamma_tau: E_N(nu) per configured m.  The rates are
    checked against those gamma*tau values before any state is built.  All
    states are built, and each is held to the loss path's cap
    (``decoherence._check_loss_cap``), before any curve runs, so a
    violation fails before any heavy work, naming the offending (nu, m).
    The header and summary state gamma1, gamma2, the revival tau and, with
    a nu grid, the fixed gamma*tau.
    """
    chan = config.channel
    init = config.initial
    m_values = chan.m_values if chan.m_values else (init.m,)
    by_gamma_tau = chan.gamma_tau_grid is not None
    if by_gamma_tau:
        nus, gamma_taus = [init.nu], chan.gamma_tau_grid.values().tolist()
    elif config.nu_grid is not None:
        nus, gamma_taus = config.nu_grid.values().tolist(), [chan.gamma_tau]
    else:
        raise ConfigError("channel: need gamma_tau_grid, or nu_grid plus a fixed gamma_tau")
    with config_errors("channel"):
        chan._damping_times(gamma_taus)
    specs = [replace(init, nu=nu, m=m) for m in m_values for nu in nus]
    states = [build_initial_state(spec, policy=config.cutoff, dim_cap=config.dim_cap)
              for spec in specs]
    for spec, amplitudes in zip(specs, states):
        _check_loss_cap(amplitudes, config.dim_cap, f"state {_label(spec)}")

    rows = []
    for spec, amplitudes in zip(specs, states):
        state = kerr_evolve(amplitudes, chan.tau)
        curve = negativity_decay_curve(state, gamma_taus, chan, config.dim_cap)
        n_cut = len(amplitudes) - 1
        rows.extend((g if by_gamma_tau else spec.nu, float(en), spec.m, n_cut)
                    for g, en in curve)
    abscissa, values, ms, n_cuts = map(list, zip(*rows))
    size = len(values) // len(m_values)  # the points of one m, in row order
    by_m = {m: values[k * size:(k + 1) * size] for k, m in enumerate(m_values)}
    columns = {"gamma_tau" if by_gamma_tau else "nu": abscissa, "log_negativity": values,
               "m": ms, "n_cut": n_cuts, "revival_tau": [chan.tau] * len(values)}
    channel = {"gamma1": chan.gamma1, "gamma2": chan.gamma2, "revival_tau": chan.tau}
    if not by_gamma_tau:  # the fixed gamma*tau of an E_N(nu) scan
        channel["gamma_tau"] = chan.gamma_tau
    summary = {"name": config.name, "nu": init.nu, **channel,
               "curves": [{"m": m, "initial": curve[0], "final": curve[-1]}
                          for m, curve in sorted(by_m.items())]}
    artifact = "negativity-vs-gammatau" if by_gamma_tau else "negativity-vs-nu"
    return Table(artifact, {**_scenario_header(config), **channel}, columns, summary)


def run_husimi(config: ScenarioConfig) -> Table:
    """One Q grid per requested tau, each a CSV plus a dense-matrix file,
    and a summary with their peak counts and the distinguishability
    estimate.  The inputs are checked and the state is built here; the
    grids are computed one at a time as ``write_table`` writes ``files()``,
    which records each grid's summary entry once it is written."""
    section = config.husimi
    if not section.taus:
        raise ConfigError("husimi.taus: at least one tau value is required")
    _check_grid_cap(section.resolution, config.dim_cap)  # before any state is built

    init = config.initial
    amplitudes = build_initial_state(init, policy=config.cutoff, dim_cap=config.dim_cap)

    entries = []

    def grid_files():
        entries.clear()  # each write computes and records its own grids
        for tau in section.taus:
            state = kerr_evolve(amplitudes, float(tau))
            grid = husimi_q(state, half_width=section.half_width,
                            resolution=section.resolution, dim_cap=config.dim_cap)
            normalization = grid.normalization()
            stem = f"{config.name}_husimi_tau_{_tau_label(tau)}"
            files = [f"{stem}.csv", f"{stem}.qmat"]
            yield files, partial(write_grid, grid)
            entries.append(
                {
                    "tau": float(tau),
                    "peak_count": count_peaks(grid, section.rel_threshold),
                    "files": files,
                    "q_max_value": float(grid.values.max()),
                    "normalization": normalization,
                }
            )

    summary = {
        "name": config.name,
        "nu": init.nu,
        "m": init.m,
        "theta": init.theta,
        "n_cut": len(amplitudes) - 1,
        "resolution": section.resolution,
        "rel_threshold": section.rel_threshold,
        "n_max_estimate": n_max_estimate(math.sqrt(init.nu)),
        "grids": entries,
    }
    return Table("husimi", {}, {}, summary, grid_files)


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


def _scenario_header(config: ScenarioConfig, n_cut: int | None = None) -> dict:
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


@contextmanager
def _staged(out_dir: Path):
    """All or none of a run's artifacts: yields a directory in ``out_dir``
    (made if missing) to write them to under their names.  They move into
    out_dir if the block ends without an error (a name taken by a directory
    is one), and the staging directory goes either way.  On an error, the
    directories this call made go too, deepest first, unless something
    else was written into them."""
    made = []  # the missing directories of out_dir, deepest first
    missing = out_dir
    while missing != missing.parent and not missing.exists():
        made.append(missing)
        missing = missing.parent
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=out_dir) as staging:
            yield Path(staging)
            names = os.listdir(staging)
            taken = [out_dir / name for name in names if (out_dir / name).is_dir()]
            if taken:  # os.replace cannot put a file there
                raise IsADirectoryError(f"artifact {str(taken[0])!r} is a directory")
            for name in names:
                os.replace(os.path.join(staging, name), out_dir / name)
    except BaseException:
        for directory in made:
            try:
                os.rmdir(directory)
            except OSError:  # not made here, or no longer empty
                pass
        raise


def write_table(out_dir, name: str, table: Table) -> list[Path]:
    """Write the table's ``files()``, then, when it has columns, its
    '#'-prefixed header block, a column-name row and one row per point to
    ``<name>_<artifact>.csv``, then its summary, complete once the files
    are written, to ``<name>_<artifact>.json``, all in ``out_dir`` and all
    or none.  Return the paths of the CSV, if any, and the JSON."""
    out_dir = Path(out_dir)
    stem = f"{name}_{table.artifact}"
    csv_path, json_path = out_dir / f"{stem}.csv", out_dir / f"{stem}.json"
    with _staged(out_dir) as stage:
        for names, write in table.files():
            write(*(stage / file_name for file_name in names))
        if table.columns:
            lengths = {len(column) for column in table.columns.values()}
            if len(lengths) != 1:
                raise ValueError(f"columns must have one equal length, got {sorted(lengths)}")
            lines = [f"# {key}: {_fmt(value)}" for key, value in table.header.items()]
            lines.append(",".join(table.columns))
            lines.extend(map(",".join, zip(*(map(_fmt, column)
                                             for column in table.columns.values()))))
            with open(stage / csv_path.name, "w", newline="") as fh:
                fh.write("\n".join(lines) + "\n")
        write_json(stage / json_path.name, table.summary)
    return [csv_path, json_path] if table.columns else [json_path]


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def with_overrides(config: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Apply CLI-style overrides (nu, m, theta, tau_steps, taus, resolution,
    name); None leaves a field as it is, and a rejected value raises
    ConfigError naming its section."""
    def changes(*keys):
        return {key: overrides[key] for key in keys if overrides.get(key) is not None}

    with config_errors("initial"):
        initial = replace(config.initial, **changes("nu", "m", "theta"))
    with config_errors("time_grid"):
        time_grid = (config.time_grid if overrides.get("tau_steps") is None
                     else replace(config.time_grid, steps=overrides["tau_steps"]))
    with config_errors("husimi"):
        husimi = replace(config.husimi, **changes("taus", "resolution"))
    name = config.name if overrides.get("name") is None else overrides["name"]
    with config_errors("config"):
        return replace(config, initial=initial, time_grid=time_grid, husimi=husimi,
                       name=name)

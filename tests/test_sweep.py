import json
import math
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrsplit import decoherence, entanglement, fock, sweep
from kerrsplit.entanglement import (
    _BLOCK_BYTES,
    _ENTROPY_FLOOR,
    _TAIL,
    entanglement_entropy,
    entropy_curve,
    pure_state_log_negativity,
    schmidt_spectrum,
    von_neumann_entropy,
)
from kerrsplit.beamsplitter import output_at_time, split_amplitudes
from kerrsplit.decoherence import ChannelParams, negativity_decay_curve
from kerrsplit.fock import InitialStateSpec, _dim_lower_bound, build_initial_state, choose_cutoff
from kerrsplit.kerr import kerr_evolve
from kerrsplit.sweep import (
    ChannelSection,
    ConfigError,
    GridSpec,
    InfeasibleScenarioError,
    ScenarioConfig,
    _prominent_minima,
    config_from_dict,
    config_from_json,
    nearest_rational,
    run_decoherence_scan,
    run_entropy_curve,
    run_entropy_surface,
    run_husimi,
    with_overrides,
    write_json,
    write_table,
)


def small_config(**kw):
    base = dict(
        name="t",
        initial=InitialStateSpec(nu=2.0),
        time_grid=GridSpec(0.0, 1.0, 41),
    )
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------- config

def test_config_from_dict_roundtrip():
    cfg = config_from_dict(
        {
            "name": "demo",
            "initial": {"nu": 5.0, "theta": 0.4, "m": 2},
            "time_grid": {"start": 0.0, "stop": 1.0, "steps": 11},
            "nu_grid": {"start": 0.1, "stop": 3.0, "steps": 4},
            "husimi": {"taus": [0.25], "resolution": 51},
            "channel": {"gamma1": 0.2, "gamma_tau_grid": {"start": 0, "stop": 1, "steps": 3}},
            "cutoff": {"tail_tol": 1e-10, "safety_margin": 3},
            "q_max": 8,
            "dim_cap": 1000,
        }
    )
    assert cfg.initial.m == 2
    assert cfg.nu_grid.steps == 4
    assert cfg.husimi.taus == (0.25,)
    assert cfg.channel.gamma1 == 0.2
    assert cfg.cutoff.safety_margin == 3
    assert cfg.q_max == 8


@pytest.mark.parametrize(
    "raw,needle",
    [
        ({"bogus": 1}, "bogus"),
        ({"initial": {"nu": -1.0}}, "initial"),
        ({"initial": {"nu": 1.0, "zz": 2}}, "initial"),
        ({"time_grid": {"start": 0, "stop": 1, "steps": 0}}, "time_grid"),
        ({"time_grid": {"start": 0, "stop": float("inf"), "steps": 5}}, "time_grid"),
        ({"outputs": ["nope"]}, "outputs"),
        ({"workers": 0}, "workers"),
        ({"name": ""}, "name"),
        ({"cutoff": {"tail_tol": 2.0}}, "cutoff"),
        ({"husimi": {"taus": [float("nan")]}}, "husimi"),
        ({"husimi": {"taus": [0.5, float("inf")]}}, "husimi"),
        ({"husimi": {"taus": ["abc"]}}, "husimi"),
        ({"husimi": {"taus": ["0.5"]}}, "husimi"),
        ({"husimi": {"taus": [True]}}, "husimi"),
        ({"husimi": {"taus": 0.5}}, "husimi"),
        ({"initial": [1.0]}, "initial"),
        ({"channel": [1]}, "channel"),
        ({"channel": {"gamma1": -0.1}}, "gamma1"),
        ({"channel": {"gamma2": -0.1}}, "gamma2"),
        ({"channel": None}, "channel"),
        ({"husimi": None}, "husimi"),
        ({"channel": {"gamma_tau": -0.3}}, "gamma_tau"),
        ({"channel": {"tau": float("nan")}}, "tau"),
        ({"channel": {"gamma_tau_grid": {"start": 0, "stop": 1, "steps": 0}}}, "gamma_tau_grid"),
        ({"channel": {"gamma_tau_grid": [0, 1, 3]}}, "gamma_tau_grid"),
        ({"channel": {"m_values": 5}}, "m_values"),
        ({"channel": {"m_values": [0, -1]}}, "m_values"),
        ({"channel": {"m_values": [1.0]}}, "m_values"),
        ({"husimi": {"half_width": 0.0}}, "half_width"),
        ({"husimi": {"rel_threshold": 1.0}}, "rel_threshold"),
        ({"husimi": {"resolution": 1}}, "resolution"),
        ({"initial": {"nu": 10 ** 400}}, "nu"),
        ({"dim_cap": True}, "dim_cap"),
    ],
)
def test_config_errors_name_the_field(raw, needle):
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert needle in str(err.value)


# rates that cannot reach the default gamma*tau grid, and the word the error names
UNREACHABLE_RATES = [({"gamma1": 0.0}, "gamma1"), ({"gamma1": 1e-300, "gamma2": 1e10}, "gamma")]


@pytest.mark.parametrize("rates, needle", UNREACHABLE_RATES)
def test_decoherence_scan_checks_the_rates_against_its_axis(rates, needle):
    """The parser builds the section; the scan, which reads both the rates and
    the gamma*tau axis, refuses them (the CLI's BAD_INPUTS rows show that it
    does so before it builds any state)."""
    cfg = config_from_dict({"channel": rates})
    with pytest.raises(ConfigError, match=f"channel: .*{needle}"):
        run_decoherence_scan(cfg)


def test_surface_product_is_the_surface_runners_rule():
    cfg = config_from_dict({"nu_grid": {"start": 1, "stop": 2, "steps": 1001}})
    assert cfg.time_grid.steps * cfg.nu_grid.steps > sweep.MAX_GRID_POINTS
    with pytest.raises(ConfigError, match=r"time_grid.steps \* nu_grid.steps"):
        run_entropy_surface(cfg)


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "x", "initial": {"nu": 1.0}}))
    assert config_from_json(path).name == "x"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        config_from_json(bad)
    with pytest.raises(ConfigError):
        config_from_json(tmp_path / "missing.json")


def test_with_overrides():
    cfg = with_overrides(small_config(), nu=7.0, m=1, tau_steps=9, taus=[0.5, 0.25],
                         resolution=11, name="z")
    assert cfg.initial.nu == 7.0
    assert cfg.initial.m == 1
    assert cfg.time_grid.steps == 9
    assert cfg.husimi.taus == (0.5, 0.25)
    assert cfg.husimi.resolution == 11
    assert cfg.name == "z"
    assert with_overrides(cfg, taus=None, resolution=None) == cfg


@pytest.mark.parametrize("override,needle", [
    ({"nu": -1.0}, "initial"),
    ({"m": 1.5}, "initial"),
    ({"theta": float("inf")}, "initial"),
    ({"tau_steps": 0}, "time_grid"),
    ({"name": ""}, "name"),
    ({"resolution": 1}, "husimi"),
    ({"taus": [0.5, 0.5]}, "husimi"),
])
def test_with_overrides_rejects_bad_values(override, needle):
    with pytest.raises(ConfigError) as err:
        with_overrides(small_config(), **override)
    assert needle in str(err.value)


# JSON-like values: everything json.load can return, nested a little.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5,
)


def _section_values(cls):
    """A dict over the dataclass's own fields (values fuzzed), or any JSON value."""
    values = st.one_of(_json_values, st.dictionaries(
        st.sampled_from(["start", "stop", "steps"]), _json_values))
    return st.dictionaries(st.sampled_from([f.name for f in fields(cls)]), values) | _json_values


_SECTIONS = {"initial": InitialStateSpec, "time_grid": GridSpec, "nu_grid": GridSpec,
             "husimi": sweep.HusimiSection, "channel": ChannelSection, "cutoff": fock.CutoffPolicy}
_fuzzed_configs = st.fixed_dictionaries({}, optional={
    f.name: _section_values(_SECTIONS[f.name]) if f.name in _SECTIONS else _json_values
    for f in fields(ScenarioConfig)
})


@settings(max_examples=400, deadline=None)
@given(raw=_fuzzed_configs)
def test_config_fuzz_gives_a_config_or_a_config_error(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)


# ---------------------------------------------------------------- minima

def test_prominent_minima_merges_split_dips():
    v = np.array([0.0, 2.0, 1.0, 1.04, 0.9, 2.0, 1.97, 2.0, 0.5, 2.0])
    assert _prominent_minima(v, 0.05) == [4, 8]


def test_prominent_minima_handles_plateau():
    v = np.array([2.0, 1.0, 1.0, 2.0, 2.0])
    assert _prominent_minima(v, 0.5) == [1]


def test_prominent_minima_ignores_endpoints_and_noise():
    v = np.array([0.0, 1.0, 0.999, 1.0, 2.0])
    assert _prominent_minima(v, 0.05) == []


def basin_minima(values, floor):
    """Interior local minima with prominence >= floor by ascending basin
    merging: the reference for _prominent_minima.

    Basins are grown in ascending value order and merged where they meet; a
    basin's prominence is the barrier height at which it merges into a deeper
    one, and the deepest basin's is the range of values.
    """
    n = len(values)
    order = np.argsort(values, kind="stable")
    basin = np.full(n, -1, dtype=np.int64)  # -1 = unvisited, else basin seed index
    prominence = {}
    for raw in order:
        i = int(raw)
        seeds = {int(basin[j]) for j in (i - 1, i + 1) if 0 <= j < n and basin[j] != -1}
        if not seeds:
            basin[i] = i  # seed = lowest point of its basin (ascending sweep)
            continue
        # of equal-depth basins the first survives, as _prominent_minima reports
        # the first of equal minima joined below the floor
        deepest, *rest = sorted(seeds, key=lambda s: (values[s], s))
        basin[i] = deepest
        for s in rest:
            prominence[s] = float(values[i] - values[s])
            basin[basin == s] = deepest
    for s in set(np.flatnonzero(basin == np.arange(n))) - set(prominence):
        prominence[int(s)] = float(values.max() - values[s])

    def interior_minimum(i):
        # plateau-aware stencil: the nearest non-equal values on both sides rise
        a = i
        while a > 0 and values[a - 1] == values[i]:
            a -= 1
        b = i
        while b < n - 1 and values[b + 1] == values[i]:
            b += 1
        return a > 0 and b < n - 1 and values[a - 1] > values[i] < values[b + 1]

    return sorted(i for i, prom in prominence.items() if prom >= floor and interior_minimum(i))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), floor=st.floats(0.001, 1.0),
       walk=st.booleans(), quantized=st.sampled_from([None, 3, 6]))
def test_prominent_minima_equal_basin_merging(seed, n, floor, walk, quantized):
    values = np.random.default_rng(seed).random(n)
    if walk:  # a random walk: long slopes with shallow dips on them
        values = np.cumsum(values - 0.5)
    if quantized is not None:
        # multiples of 2**-quantized: tied minima and flat bottoms, with exact
        # differences, so that the oracle's barrier - minimum and the rule's
        # minimum + floor decide a prominence equal to the floor alike
        values = np.round(values * 2**quantized) / 2**quantized
    assert _prominent_minima(values, floor) == basin_minima(values, floor)


@pytest.mark.parametrize("nu,m", [(2.0, 0), (5.0, 0), (5.0, 5), (10.0, 2)])
def test_prominent_minima_equal_basin_merging_on_entropy_curves(nu, m):
    entropies = run_entropy_curve(small_config(
        initial=InitialStateSpec(nu=nu, m=m),
        time_grid=GridSpec(0.0, 1.0, 301))).columns["entropy_ebits"]
    values = np.array(entropies)
    assert _prominent_minima(values) == basin_minima(values, sweep.MINIMUM_PROMINENCE)


def test_prominent_minima_ties_plateaus_and_ends():
    # equal minima joined below the floor: one report, the first
    assert _prominent_minima(np.array([2.0, 1.0, 1.02, 1.0, 2.0]), 0.05) == [1]
    # a flat bottom reaching either end is not interior
    assert _prominent_minima(np.array([1.0, 1.0, 2.0, 0.0, 2.0]), 0.5) == [3]
    assert _prominent_minima(np.array([2.0, 0.0, 2.0, 1.0, 1.0]), 0.5) == [1]
    # a range below the floor has no minima, a constant curve neither
    assert _prominent_minima(np.array([1.0, 0.98, 1.0]), 0.05) == []
    assert _prominent_minima(np.ones(5), 0.05) == []


def test_nearest_rational():
    assert nearest_rational(0.5, 12) == (1, 2)
    assert nearest_rational(1.0 / 3.0, 12) == (1, 3)
    assert nearest_rational(0.2502, 12) == (1, 4)
    assert nearest_rational(0.4996, 12) == (1, 2)


# ---------------------------------------------------------------- runners

def test_entropy_curve_records_and_summary():
    cfg = small_config(time_grid=GridSpec(0.0, 1.0, 201))
    table = run_entropy_curve(cfg)
    taus, entropies = table.columns["tau"], table.columns["entropy_ebits"]
    assert len(entropies) == 201
    assert taus[0] == 0.0
    assert abs(entropies[0]) < 1e-10
    assert abs(entropies[-1]) < 1e-8
    assert all(ent >= -1e-12 and math.isfinite(ent) for ent in entropies)
    assert taus == sorted(taus)
    summary = table.summary
    assert summary["e_max"] == max(entropies)
    for entry in summary["minima"]:
        assert entry["revival_q"] >= 2
        assert abs(entry["deviation_from_log2_q"] - (entry["entropy_ebits"] - entry["log2_q"])) < 1e-12


def test_entropy_curve_finds_halfway_revival():
    cfg = small_config(initial=InitialStateSpec(nu=5.0), time_grid=GridSpec(0.0, 1.0, 301))
    columns = run_entropy_curve(cfg).columns
    fracs = {(p, q) for p, q, is_min in zip(columns["revival_p"], columns["revival_q"],
                                            columns["local_min"]) if is_min}
    assert (1, 2) in fracs
    assert (1, 3) in fracs


def test_entropy_surface_tau_major_and_limits():
    cfg = small_config(
        initial=InitialStateSpec(nu=5.0, m=0),
        time_grid=GridSpec(0.0, 1.0, 5),
        nu_grid=GridSpec(1e-9, 4.0, 3),
    )
    columns = run_entropy_surface(cfg).columns
    assert len(columns["entropy_ebits"]) == 15
    # tau-major: nu cycles fastest
    nus = columns["nu"][:3]
    assert nus == sorted(set(nus))
    assert columns["tau"][0] == columns["tau"][2]
    # nu -> 0 slice is separable at every tau for m = 0
    for nu, ent in zip(columns["nu"], columns["entropy_ebits"]):
        if nu < 1e-6:
            assert ent < 1e-6


def test_entropy_surface_fock_limit_for_pacs():
    cfg = small_config(
        initial=InitialStateSpec(nu=5.0, m=5),
        time_grid=GridSpec(0.1, 0.9, 3),
        nu_grid=GridSpec(1e-6, 1e-6, 1),
    )
    want = -sum(math.comb(5, p) / 32.0 * math.log2(math.comb(5, p) / 32.0) for p in range(6))
    for ent in run_entropy_surface(cfg).columns["entropy_ebits"]:
        assert abs(ent - want) < 0.005


def test_entropy_surface_per_nu_maxima_grow_with_field():
    cfg = small_config(
        initial=InitialStateSpec(nu=5.0),
        time_grid=GridSpec(0.0, 1.0, 61),
        nu_grid=GridSpec(1.0, 5.0, 3),
    )
    columns = run_entropy_surface(cfg).columns
    best = {}
    for nu, ent in zip(columns["nu"], columns["entropy_ebits"]):
        best[nu] = max(best.get(nu, 0.0), ent)
    maxima = [best[nu] for nu in sorted(best)]
    assert maxima == sorted(maxima)


def test_entropy_surface_requires_nu_grid():
    with pytest.raises(ConfigError):
        run_entropy_surface(small_config())


def test_decoherence_scan_gamma_tau_mode():
    cfg = small_config(
        initial=InitialStateSpec(nu=1.0),
        channel=ChannelSection(gamma_tau_grid=GridSpec(0.0, 0.4, 3), tau=0.5),
    )
    columns = run_decoherence_scan(cfg).columns
    assert columns["gamma_tau"] == [0.0, 0.2, 0.4]
    values = columns["log_negativity"]
    phi = output_at_time(InitialStateSpec(nu=1.0), 0.5)
    assert abs(values[0] - pure_state_log_negativity(phi)) < 1e-10
    assert values == sorted(values, reverse=True)
    assert columns["m"][0] == 0


def test_decoherence_scan_nu_mode():
    cfg = small_config(
        initial=InitialStateSpec(nu=1.0),
        nu_grid=GridSpec(0.2, 1.0, 2),
        channel=ChannelSection(gamma_tau_grid=None, gamma_tau=0.3, tau=0.5,
                               m_values=(0, 1)),
    )
    table = run_decoherence_scan(cfg)
    assert len(table.columns["log_negativity"]) == 4
    assert set(table.columns["m"]) == {0, 1}
    assert table.artifact == "negativity-vs-nu"
    state = kerr_evolve(build_initial_state(InitialStateSpec(nu=0.2)), 0.5)
    ((_, want),) = negativity_decay_curve(state, [0.3], ChannelParams(0.1, 0.1))
    assert table.columns["log_negativity"][0] == want


def test_decoherence_scan_requires_channel():
    # no channel section runs the default one
    cfg = small_config(initial=InitialStateSpec(nu=0.5))
    assert run_decoherence_scan(cfg) == run_decoherence_scan(
        replace(cfg, channel=ChannelSection()))
    with pytest.raises(ConfigError):
        run_decoherence_scan(small_config(channel=ChannelSection(gamma_tau_grid=None)))


def test_decoherence_scan_names_infeasible_state():
    # cap chosen between the m=0 requirement (n0^2 = 484) and the m=9 one (1089)
    cfg = small_config(
        initial=InitialStateSpec(nu=2.0),
        channel=ChannelSection(gamma_tau_grid=GridSpec(0.0, 0.1, 2), m_values=(0, 9)),
        dim_cap=1000,
    )
    with pytest.raises(InfeasibleScenarioError) as err:
        run_decoherence_scan(cfg)
    assert "m=9" in str(err.value)


@pytest.mark.parametrize("pipeline", ["curve", "surface", "husimi"])
def test_dim_cap_bounds_d_on_pure_paths(tmp_path, pipeline):
    # the pure paths' largest matrix is the d x d splitter output, not d^2
    d = choose_cutoff(2.0, 0) + 1
    run = {"curve": run_entropy_curve, "surface": run_entropy_surface,
           "husimi": lambda cfg: write_table(tmp_path, cfg.name, run_husimi(cfg))}[pipeline]
    cfg = small_config(time_grid=GridSpec(0.0, 1.0, 3), nu_grid=GridSpec(2.0, 2.0, 1),
                       husimi=sweep.HusimiSection(taus=(0.5,), resolution=11))
    run(replace(cfg, dim_cap=d))
    with pytest.raises(InfeasibleScenarioError) as err:
        run(replace(cfg, dim_cap=d - 1))
    assert f"{d} x {d}" in str(err.value)


def test_run_husimi_writes_grids(tmp_path):
    from kerrsplit.sweep import HusimiSection

    cfg = small_config(
        initial=InitialStateSpec(nu=5.0),
        husimi=HusimiSection(taus=(0.5,), resolution=81),
    )
    table = run_husimi(cfg)
    assert table.summary["grids"] == []  # filled in as the grids are written
    (json_path,) = write_table(tmp_path, cfg.name, table)
    assert json_path == tmp_path / f"{cfg.name}_husimi.json"
    summary = table.summary
    assert summary == json.loads(json_path.read_text())
    assert summary["grids"][0]["peak_count"] == 2
    assert abs(summary["n_max_estimate"] - 4.6294) < 1e-3
    for name in summary["grids"][0]["files"]:
        assert (tmp_path / name).exists()


def test_run_husimi_requires_taus():
    with pytest.raises(ConfigError):
        run_husimi(small_config())


def assert_written_as_summarized(out_dir, table):
    summary = json.loads((out_dir / "h_husimi.json").read_text())
    assert summary == table.summary
    assert [entry["tau"] for entry in summary["grids"]] == [0.25, 0.5]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        ["h_husimi.json", *(name for entry in summary["grids"] for name in entry["files"])])


def test_husimi_table_can_be_written_twice(tmp_path):
    """Each write computes and records its own grids: the second directory
    gets every file its JSON names, and the summary lists each tau once."""
    table = run_husimi(small_config(husimi=sweep.HusimiSection(taus=(0.25, 0.5),
                                                               resolution=11)))
    for out_dir in (tmp_path / "a", tmp_path / "b"):
        write_table(out_dir, "h", table)
        assert_written_as_summarized(out_dir, table)
    assert (tmp_path / "a" / "h_husimi.json").read_bytes() == \
        (tmp_path / "b" / "h_husimi.json").read_bytes()


def test_husimi_table_written_again_after_a_refusal(tmp_path, monkeypatch):
    """A write refused at the second grid leaves nothing; writing the same
    table again writes both grids and a summary that names them."""
    real, calls = sweep.husimi_q, []

    def refusing_second(state, **kwargs):
        calls.append(state)
        if len(calls) == 2:
            raise InfeasibleScenarioError("the second map")
        return real(state, **kwargs)

    monkeypatch.setattr(sweep, "husimi_q", refusing_second)
    table = run_husimi(small_config(husimi=sweep.HusimiSection(taus=(0.25, 0.5),
                                                               resolution=11)))
    with pytest.raises(InfeasibleScenarioError, match="the second map"):
        write_table(tmp_path / "out", "h", table)
    assert not (tmp_path / "out").exists()
    write_table(tmp_path / "out", "h", table)
    assert len(calls) == 4
    assert_written_as_summarized(tmp_path / "out", table)


# ---------------------------------------------------------------- batching

def kept_levels(nu, m):
    """Each output mode's kept levels, from the untrimmed oracle's marginals."""
    mass = np.abs(output_at_time(InitialStateSpec(nu=nu, m=m), 0.0)) ** 2
    return max(decoherence._kept_mode_levels(mass, _TAIL))


def block_rows(nu, m):
    n = kept_levels(nu, m)
    return max(1, _BLOCK_BYTES // (16 * n * n))


# The curve runs on each mode's kept levels, which drop under 1e-16 of its
# photon-number mass; against the untrimmed pipeline that moves E(tau) by at
# most 5.7e-14 (measured over 1000 tau for nu = 0..40, m = 0..5), within the
# bound in the entanglement docstring.
TRIM_BOUND = 1e-12


@settings(max_examples=25, deadline=None)
@given(
    nu=st.floats(0.0, 25.0),
    m=st.integers(0, 6),
    start=st.floats(-2.0, 2.0),
    stop=st.floats(-2.0, 2.0),
    length=st.sampled_from(["one", "below", "at", "above", "across"]),
)
def test_batched_curve_equals_pointwise_pipeline(nu, m, start, stop, length):
    block = block_rows(nu, m)
    steps = {"one": 1, "below": max(1, block - 1), "at": block, "above": block + 1,
             "across": 2 * block + 1}[length]
    spec = InitialStateSpec(nu=nu, m=m)
    columns = run_entropy_curve(small_config(initial=spec,
                                             time_grid=GridSpec(start, stop, steps))).columns
    assert len(columns["entropy_ebits"]) == steps
    # output_at_time at every tau, untrimmed and unblocked, in one stack
    want = entanglement_entropy(split_amplitudes(kerr_evolve(build_initial_state(spec),
                                                             np.array(columns["tau"]))))
    for ent, ref in zip(columns["entropy_ebits"], want):
        assert ent == pytest.approx(ref, rel=0, abs=TRIM_BOUND)


@settings(max_examples=200, deadline=None)
@given(nu=st.floats(0.0, 25.0), m=st.integers(0, 6), tau=st.floats(0.0, 1.0))
def test_pure_trim_stays_within_its_error_bound(nu, m, tau):
    """The entanglement docstring's bound on the pure trim at its tail t, a
    tenth of the entropy floor: the kept block's Schmidt weights lie termwise
    below the untrimmed ones and sum to at most 2t less, and the entropy moves
    by at most Fannes' two terms plus eta(floor) for each weight carried
    across the floor, counted from both spectra as von_neumann_entropy
    normalizes them. The weights themselves are compared up to the d * eps
    roundoff of a backward-stable SVD (about a fifth of it was seen)."""
    amplitudes = build_initial_state(InitialStateSpec(nu=nu, m=m))
    row = kerr_evolve(amplitudes, tau)
    lam = schmidt_spectrum(split_amplitudes(row))
    n, d = kept_levels(nu, m), len(lam)
    kept = np.zeros(d)
    kept[:n] = schmidt_spectrum(split_amplitudes(row, n))
    roundoff = d * np.finfo(float).eps
    assert np.all(kept <= lam + roundoff)
    t = _ENTROPY_FLOOR / 10
    assert np.sum(lam - kept) <= 2 * t + roundoff
    crossings = np.count_nonzero((lam / lam.sum() > _ENTROPY_FLOOR)
                                 != (kept / kept.sum() > _ENTROPY_FLOOR))
    bound = (2 * t * math.log2(d / (2 * t)) + 2 * t * (math.log2(d) + 1.5)
             - crossings * _ENTROPY_FLOOR * math.log2(_ENTROPY_FLOOR))  # eta(floor) each
    assert abs(von_neumann_entropy(lam) - von_neumann_entropy(kept)) <= bound


def test_surface_columns_equal_pointwise_pipeline():
    cfg = small_config(initial=InitialStateSpec(nu=1.0, m=2),
                       time_grid=GridSpec(0.0, 1.0, 7), nu_grid=GridSpec(0.5, 3.0, 3))
    columns = run_entropy_surface(cfg).columns
    for tau, ent, nu in zip(columns["tau"], columns["entropy_ebits"], columns["nu"]):
        spec = InitialStateSpec(nu=nu, m=2)
        assert ent == pytest.approx(entanglement_entropy(output_at_time(spec, tau)),
                                    rel=0, abs=TRIM_BOUND)


def test_cutoff_runs_once_per_curve_and_per_nu_column(monkeypatch):
    calls = []
    real = fock.choose_cutoff

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fock, "choose_cutoff", counting)
    run_entropy_curve(small_config(time_grid=GridSpec(0.0, 1.0, 300)))
    assert len(calls) == 1
    calls.clear()
    run_entropy_surface(small_config(time_grid=GridSpec(0.0, 1.0, 50),
                                     nu_grid=GridSpec(1.0, 4.0, 4)))
    assert len(calls) == 4


def test_tail_rule_runs_once_per_state(monkeypatch, tmp_path):
    calls = []
    real = fock._converged_weights

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def passes(run):
        calls.clear()
        run()
        return len(calls)

    monkeypatch.setattr(fock, "_converged_weights", counting)
    assert passes(lambda: run_entropy_curve(small_config(time_grid=GridSpec(0.0, 1.0, 50)))) == 1
    assert passes(lambda: run_entropy_surface(small_config(
        time_grid=GridSpec(0.0, 1.0, 20), nu_grid=GridSpec(1.0, 4.0, 4)))) == 4
    scan = small_config(nu_grid=GridSpec(0.5, 1.0, 2), channel=ChannelSection(
        gamma_tau_grid=None, gamma_tau=0.3, m_values=(0, 1, 2)))
    assert passes(lambda: run_decoherence_scan(scan)) == 6
    assert passes(lambda: write_table(tmp_path, "h", run_husimi(small_config(
        husimi=sweep.HusimiSection(taus=(0.25, 0.5), resolution=11))))) == 1
    assert passes(lambda: build_initial_state(InitialStateSpec(nu=5.0, m=1))) == 1


@settings(max_examples=300, deadline=None)
@given(nu=st.one_of(st.floats(0.0, 5.0), st.floats(0.0, 400.0)), m=st.integers(0, 40),
       tail_tol=st.floats(1e-15, 0.49), safety_margin=st.integers(0, 8))
def test_dim_lower_bound_never_exceeds_the_cutoff(nu, m, tail_tol, safety_margin):
    policy = fock.CutoffPolicy(tail_tol=tail_tol, safety_margin=safety_margin)
    assert _dim_lower_bound(nu, m, policy) <= choose_cutoff(nu, m, policy) + 1


def test_blocks_bound_the_amplitude_stack(monkeypatch):
    shapes = []
    real = entanglement.split_amplitudes

    def recording(rows, kept=None):
        out = real(rows, kept)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(entanglement, "split_amplitudes", recording)
    entropy_curve(build_initial_state(InitialStateSpec(nu=20.0)), np.linspace(0.0, 1.0, 50))
    d, n = choose_cutoff(20.0, 0) + 1, kept_levels(20.0, 0)
    assert n < d
    trims = [shape for shape in shapes if len(shape) == 2]
    blocks = [shape for shape in shapes if len(shape) == 3]
    assert trims == []  # the trim builds no two-mode amplitude
    assert sum(shape[0] for shape in blocks) == 50  # one split per tau
    assert all(shape[1:] == (n, n) for shape in blocks)
    assert max(shape[0] for shape in blocks) * 16 * n * n <= _BLOCK_BYTES


@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("length", ["one", "below", "at", "above", "across"])
def test_pool_gives_the_serial_column_bitwise(monkeypatch, m, length):
    """The thread pool splits the grid differently for each worker count;
    every point's entropy is the same, to the bit, as on one worker."""
    block = block_rows(5.0, m)
    steps = {"one": 1, "below": block - 1, "at": block, "above": block + 1,
             "across": 2 * block + 1}[length]
    amplitudes = build_initial_state(InitialStateSpec(nu=5.0, m=m))
    taus = np.linspace(0.0, 1.0, steps)
    columns, threads = {}, threading.active_count()
    for workers in (1, 2, 3):
        monkeypatch.setattr(entanglement, "_worker_count", lambda: workers)
        columns[workers] = entropy_curve(amplitudes, taus)
        assert threading.active_count() == threads  # no pool thread outlives the call
    assert len(columns[1]) == steps
    for workers in (2, 3):
        assert columns[workers].tobytes() == columns[1].tobytes()


def test_a_failed_block_leaves_the_queued_blocks_unrun(monkeypatch):
    """An error in one pool task ends the curve at once: the blocks still in
    the queue are cancelled, not run before the error is raised."""
    monkeypatch.setattr(entanglement, "_worker_count", lambda: 2)
    real, calls = entanglement.kerr_evolve, []

    def failing_first(amplitudes, taus):
        calls.append(taus[0])
        if taus[0] == 0.0:
            raise InfeasibleScenarioError("the first block")
        time.sleep(0.01)
        return real(amplitudes, taus)

    monkeypatch.setattr(entanglement, "kerr_evolve", failing_first)
    amplitudes = build_initial_state(InitialStateSpec(nu=20.0))
    taus = np.linspace(0.0, 1.0, 100 * block_rows(20.0, 0))
    with pytest.raises(InfeasibleScenarioError, match="the first block"):
        entropy_curve(amplitudes, taus)
    assert len(calls) < 10  # of 100 blocks


# ---------------------------------------------------------------- output

def test_csv_is_deterministic(tmp_path):
    cfg = small_config(time_grid=GridSpec(0.0, 1.0, 21))
    paths = [write_table(tmp_path / tag, cfg.name, run_entropy_curve(cfg))[0]
             for tag in ("a", "b")]
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_layout(tmp_path):
    cfg = small_config(time_grid=GridSpec(0.0, 1.0, 11))
    path, _ = write_table(tmp_path, cfg.name, run_entropy_curve(cfg))
    lines = path.read_text().splitlines()
    meta_lines = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# nu:") for l in meta_lines)
    assert any(l.startswith("# tool:") for l in meta_lines)
    header = lines[len(meta_lines)]
    assert header == "tau,entropy_ebits,local_min,revival_p,revival_q"
    first = lines[len(meta_lines) + 1].split(",")
    assert first[0] == "0"
    assert first[2] in ("0", "1")


def test_write_json_refuses_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "x.json", {"value": float("nan")})

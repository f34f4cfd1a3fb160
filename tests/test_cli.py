import json
import math
import subprocess
import sys

import numpy as np
import pytest

from kerrsplit import cli, entanglement, fock, sweep
from kerrsplit.beamsplitter import output_at_time
from kerrsplit.cli import main
from kerrsplit.entanglement import pure_state_log_negativity
from kerrsplit.fock import InitialStateSpec
from kerrsplit.sweep import (
    config_from_json,
    run_decoherence_scan,
    run_entropy_curve,
    run_entropy_surface,
)


def run_cli(args):
    return main([str(a) for a in args])


def test_oracle_check_passes(capsys):
    assert run_cli(["oracle-check", "--nu", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_oracle_check_failure_exits_2(monkeypatch, capsys):
    # a failed fidelity is a numerical failure, not a config error
    monkeypatch.setattr(cli, "oracle_fidelity", lambda nu, p, q: 0.5)
    assert run_cli(["oracle-check", "--nu", "5"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_entropy_command_writes_artifacts(tmp_path, capsys):
    code = run_cli(["entropy", "--nu", "2", "--tau-steps", "41",
                    "--name", "tiny", "--out-dir", tmp_path])
    assert code == 0
    csv_path = tmp_path / "tiny_entropy-curve.csv"
    json_path = tmp_path / "tiny_entropy-curve.json"
    assert csv_path.exists() and json_path.exists()
    text = csv_path.read_text()
    assert "tau,entropy_ebits,local_min,revival_p,revival_q" in text
    assert "# nu: 2" in text
    summary = json.loads(json_path.read_text())
    assert summary["nu"] == 2
    assert summary["e_max"] > 0


def test_surface_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "surf",
        "initial": {"nu": 1.0},
        "time_grid": {"start": 0.0, "stop": 1.0, "steps": 5},
        "nu_grid": {"start": 0.1, "stop": 1.0, "steps": 3},
    }))
    assert run_cli(["surface", "--config", cfg, "--out-dir", tmp_path]) == 0
    lines = (tmp_path / "surf_entropy-surface.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0] == "tau,entropy_ebits,nu,n_cut"
    assert len(rows) == 1 + 15


def test_surface_requires_nu_grid(tmp_path, capsys):
    assert run_cli(["surface", "--out-dir", tmp_path]) == 1
    assert "nu_grid" in capsys.readouterr().err


def test_husimi_command(tmp_path):
    code = run_cli(["husimi", "--nu", "5", "--tau", "0.5", "--resolution", "81",
                    "--name", "h", "--out-dir", tmp_path])
    assert code == 0
    summary = json.loads((tmp_path / "h_husimi.json").read_text())
    assert summary["grids"][0]["peak_count"] == 2
    assert (tmp_path / summary["grids"][0]["files"][0]).exists()
    assert (tmp_path / summary["grids"][0]["files"][1]).exists()


def test_husimi_requires_taus(tmp_path, capsys):
    assert run_cli(["husimi", "--out-dir", tmp_path]) == 1
    assert "husimi.taus" in capsys.readouterr().err


@pytest.mark.parametrize("gamma1, gamma2", [(0.1, 0.1), (0.3, 0.1), (0.1, 0.3)])
def test_decohere_command(tmp_path, gamma1, gamma2):
    """Equal and unequal rates, either mode faster: the curve starts at the
    closed form of the split state and never rises."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "dec",
        "initial": {"nu": 1.0, "m": 1},
        "channel": {"gamma1": gamma1, "gamma2": gamma2,
                    "gamma_tau_grid": {"start": 0.0, "stop": 1.0, "steps": 5}, "tau": 0.5},
    }))
    assert run_cli(["decohere", "--config", cfg, "--out-dir", tmp_path]) == 0
    csv_path = tmp_path / "dec_negativity-vs-gammatau.csv"
    lines = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "gamma_tau,log_negativity,m,n_cut,revival_tau"
    rows = [dict(zip(lines[0].split(","), map(float, l.split(",")))) for l in lines[1:]]
    values = [row["log_negativity"] for row in rows]
    assert len(values) == 5 and all(map(math.isfinite, values))
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))
    phi = output_at_time(InitialStateSpec(nu=1.0, m=1), 0.5, n_cut=int(rows[0]["n_cut"]))
    assert abs(values[0] - pure_state_log_negativity(phi)) < 1e-10
    summary = json.loads((tmp_path / "dec_negativity-vs-gammatau.json").read_text())
    assert summary["curves"][0]["initial"] >= summary["curves"][0]["final"]


def test_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"initial": {"nu": -3.0}}))
    assert run_cli(["entropy", "--config", cfg, "--out-dir", tmp_path]) == 1
    assert "config error" in capsys.readouterr().err


def test_dimension_cap_exits_2(tmp_path, capsys):
    assert run_cli(["decohere", "--nu", "200", "--out-dir", tmp_path]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "kerrsplit", "entropy", "--nu", "1",
         "--tau-steps", "11", "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "scenario_entropy-curve.csv").exists()


@pytest.mark.parametrize("tau", ["nan", "inf", "abc", float("nan"), float("inf")])
def test_husimi_rejects_non_finite_or_non_numeric_tau(tmp_path, capsys, tau):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "h", "husimi": {"taus": [tau], "resolution": 21}}))
    assert run_cli(["husimi", "--config", cfg, "--out-dir", tmp_path]) == 1
    assert "husimi" in capsys.readouterr().err
    assert not (tmp_path / "h_husimi.json").exists()


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_husimi_rejects_non_finite_tau_flag(tmp_path, capsys, tau):
    assert run_cli(["husimi", "--tau", tau, "--name", "h", "--out-dir", tmp_path]) == 1
    assert "husimi" in capsys.readouterr().err
    assert not (tmp_path / "h_husimi.json").exists()


def test_husimi_window_whose_mass_overflows_is_infeasible(tmp_path, capsys):
    # the grid is finite, but sum(Q) * dx * dp overflows to inf
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "h", "initial": {"nu": 0.0}, "husimi": {
        "taus": [0.5], "resolution": 21, "half_width": 1e200}}))
    out = tmp_path / "out"
    assert run_cli(["husimi", "--config", cfg, "--out-dir", out]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert not any("Traceback" in line for line in lines)
    assert lines[-1].startswith("infeasible scenario: ")
    assert not [path for path in out.rglob("*") if path.is_file()]


# (--nu, exit code): a bad nu is a config error and a huge one is infeasible;
# each once ended in a traceback (1e12 in a MemoryError under a 2 GB address-space limit).
ORACLE_BAD_NU = {"-1": 1, "nan": 1, "inf": 1, "1e7": 2, "1e9": 2, "1e12": 2}


@pytest.mark.parametrize("nu", sorted(ORACLE_BAD_NU))
def test_oracle_check_refuses_bad_nu(capsys, monkeypatch, nu):
    def refuse(*args):
        raise AssertionError("the cutoff's weight arrays were built for a bad nu")

    monkeypatch.setattr(fock, "_converged_weights", refuse)
    code = ORACLE_BAD_NU[nu]
    assert run_cli(["oracle-check", "--nu", nu]) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    prefix = "config error: nu: " if code == 1 else "infeasible scenario: "
    assert not any("Traceback" in line for line in lines)
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert captured.out == ""


def test_decohere_runs_a_grid_only_channel_with_gamma1_zero(tmp_path):
    # the unused default gamma_tau = 0.3 once refused this for gamma1 = 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "g", "initial": {"nu": 1.0}, "channel": {
        "gamma1": 0, "gamma_tau_grid": {"start": 0, "stop": 0, "steps": 2}}}))
    assert run_cli(["decohere", "--config", cfg, "--out-dir", tmp_path]) == 0
    summary = json.loads((tmp_path / "g_negativity-vs-gammatau.json").read_text())
    curve = summary["curves"][0]
    assert curve["initial"] == curve["final"] > 0


# channel sections whose rates cannot reach the default gamma*tau grid
UNREACHABLE_CHANNELS = {"gamma1-zero": {"gamma1": 0.0},
                        "rates-overflow": {"gamma1": 1e-300, "gamma2": 1e10}}
# argv and scenario JSON of each command that reads no channel
NO_CHANNEL_RUNS = {
    "entropy": (["entropy", "--tau-steps", "5"], {"initial": {"nu": 1.0}}),
    "surface": (["surface", "--tau-steps", "3"],
                {"initial": {"nu": 1.0}, "nu_grid": {"start": 1, "stop": 2, "steps": 2}}),
    "husimi": (["husimi", "--tau", "0.5", "--resolution", "11"], {"initial": {"nu": 1.0}}),
}


@pytest.mark.parametrize("channel", sorted(UNREACHABLE_CHANNELS))
@pytest.mark.parametrize("command", sorted(NO_CHANNEL_RUNS))
def test_commands_that_read_no_channel_ignore_its_rates(tmp_path, command, channel):
    """Only decohere checks the rates against its gamma*tau axis: the other
    commands run and write the same bytes with or without the section."""
    argv, raw = NO_CHANNEL_RUNS[command]
    outputs = {}
    for run, scenario in (("plain", raw), ("channel", {
            **raw, "channel": UNREACHABLE_CHANNELS[channel]})):
        cfg = tmp_path / f"{run}.json"
        cfg.write_text(json.dumps({"name": "c", **scenario}))
        out = tmp_path / run
        assert run_cli([*argv, "--config", cfg, "--out-dir", out]) == 0
        outputs[run] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert outputs["plain"] and outputs["channel"] == outputs["plain"]


def test_decohere_cap_bounds_the_kept_levels_not_the_input(tmp_path):
    """At nu = 20, d = 65 (d^2 = 4225) but the undamped split keeps n0 = 53
    levels per mode (n0^2 = 2809), under the default cap of 4096."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "d", "channel": {
        "gamma_tau_grid": {"start": 0, "stop": 0.3, "steps": 2}}}))
    assert run_cli(["decohere", "--nu", "20", "--m", "0", "--config", cfg,
                    "--out-dir", tmp_path]) == 0
    summary = json.loads((tmp_path / "d_negativity-vs-gammatau.json").read_text())
    curve = summary["curves"][0]
    assert curve["initial"] > curve["final"] >= 0


def test_decohere_overflow_names_the_grid_end(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"channel": {
        "gamma1": 1e-320, "gamma_tau_grid": {"start": 0, "stop": 0.5, "steps": 2}}}))
    assert run_cli(["decohere", "--config", cfg, "--out-dir", tmp_path]) == 1
    err = capsys.readouterr().err
    assert "gamma_tau=0.5 " in err and "0.3" not in err


# (scenario JSON, abscissa of the table) of each decohere mode
DECOHERE_MODES = {
    "gamma-tau-grid": ({"channel": {"gamma1": 0.1, "gamma2": 0.3, "tau": 0.4,
                                    "gamma_tau_grid": {"start": 0, "stop": 0.2, "steps": 2}}},
                       "gammatau"),
    "nu-grid": ({"nu_grid": {"start": 0.5, "stop": 1.0, "steps": 2},
                 "channel": {"gamma1": 0.2, "gamma2": 0.1, "tau": 0.3,
                             "gamma_tau_grid": None, "gamma_tau": 0.25}}, "nu"),
}


@pytest.mark.parametrize("mode", sorted(DECOHERE_MODES))
def test_decohere_artifacts_state_the_channel_they_used(tmp_path, monkeypatch, mode):
    raw, abscissa = DECOHERE_MODES[mode]
    used = {}
    real_evolve, real_curve = sweep.kerr_evolve, sweep.negativity_decay_curve

    def evolve(amplitudes, tau):
        used.setdefault("revival_tau", set()).add(tau)
        return real_evolve(amplitudes, tau)

    def curve(state, gamma_taus, params, dim_cap):
        used.setdefault("gamma1", set()).add(params.gamma1)
        used.setdefault("gamma2", set()).add(params.gamma2)
        if abscissa == "nu":
            used.setdefault("gamma_tau", set()).update(gamma_taus)
        return real_curve(state, gamma_taus, params, dim_cap)

    monkeypatch.setattr(sweep, "kerr_evolve", evolve)
    monkeypatch.setattr(sweep, "negativity_decay_curve", curve)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "c", **raw}))
    assert run_cli(["decohere", "--config", cfg, "--out-dir", tmp_path]) == 0
    stem = tmp_path / f"c_negativity-vs-{abscissa}"
    header = dict(line[2:].split(": ", 1) for line in stem.with_suffix(".csv").read_text()
                  .splitlines() if line.startswith("# "))
    summary = json.loads(stem.with_suffix(".json").read_text())
    assert set(used) == ({"gamma1", "gamma2", "revival_tau"}
                         | ({"gamma_tau"} if abscissa == "nu" else set()))
    for key, values in used.items():
        (value,) = values
        assert float(header[key]) == summary[key] == value
    if abscissa == "gammatau":  # the grid is the table's own column
        assert "gamma_tau" not in header and "gamma_tau" not in summary


_DECAY = {"initial": {"nu": 1.0},
          "channel": {"gamma_tau_grid": {"start": 0, "stop": 0.2, "steps": 2}}}


def _channel(**fields):
    return {**_DECAY, "channel": {**_DECAY["channel"], **fields}}


# (argv, scenario JSON or None, exit code): each input once ended in a
# traceback, an exit code of 2 for a usage error, or a run that should not start.
BAD_INPUTS = {
    "nu-not-a-number": (["entropy", "--nu", "abc"], None, 1),
    "workers-flag-removed": (["entropy", "--workers", "2"], None, 1),
    "unknown-flag": (["entropy", "--bogus", "1"], None, 1),
    "theta-nan": (["entropy", "--theta", "nan", "--tau-steps", "5"], None, 1),
    "nu-negative": (["entropy", "--nu", "-1"], None, 1),
    "m-negative": (["entropy", "--m", "-2"], None, 1),
    "tau-steps-zero": (["entropy", "--tau-steps", "0"], None, 1),
    "resolution-one": (["husimi", "--tau", "0.5", "--resolution", "1"], None, 1),
    "resolution-zero": (["husimi", "--tau", "0.5", "--resolution", "0"], None, 1),
    "theta-string": (["entropy"], {"initial": {"nu": 1, "theta": "x"}}, 1),
    "m-bool": (["entropy", "--tau-steps", "5"], {"initial": {"nu": 1, "m": True}}, 1),
    "m-float": (["entropy", "--tau-steps", "5"], {"initial": {"nu": 1, "m": 2.0}}, 1),
    "steps-float": (["entropy"], {"time_grid": {"start": 0, "stop": 1, "steps": 2.5}}, 1),
    "safety-margin-float": (["entropy", "--tau-steps", "5"],
                            {"cutoff": {"safety_margin": 2.5}}, 1),
    "q-max-bool": (["entropy", "--tau-steps", "5"], {"q_max": True}, 1),
    "channel-list": (["decohere"], {"channel": [1]}, 1),
    "m-values-int": (["decohere"], _channel(m_values=5), 1),
    "m-values-negative": (["decohere"], _channel(m_values=[0, -1]), 1),
    "m-values-repeated": (["decohere"], _channel(m_values=[1, 0, 1]), 1),
    "gamma2-negative": (["decohere"], _channel(gamma2=-0.1), 1),
    "gamma-tau-negative": (["decohere"], {
        "initial": {"nu": 1.0}, "nu_grid": {"start": 1, "stop": 1, "steps": 1},
        "channel": {"gamma_tau_grid": None, "gamma_tau": -1.0}}, 1),
    "tau-nan": (["decohere"], _channel(tau=float("nan")), 1),
    "resolution-float": (["husimi"], {"husimi": {"taus": [0.5], "resolution": 2.5}}, 1),
    "rel-threshold-above-1": (["husimi"], {"husimi": {"taus": [0.5], "rel_threshold": 1.5,
                                                      "resolution": 11}}, 1),
    "half-width-zero": (["husimi"], {"husimi": {"taus": [0.5], "half_width": 0,
                                                "resolution": 11}}, 1),
    "nu-1e5": (["entropy", "--nu", "1e5", "--tau-steps", "2"], None, 2),
    "gamma-tau-grid-negative": (["decohere"], _channel(
        gamma_tau_grid={"start": -1, "stop": 0, "steps": 3}), 1),
    "nu-grid-negative-surface": (["surface", "--tau-steps", "3"],
                                 {"nu_grid": {"start": -1, "stop": 1, "steps": 3}}, 1),
    "nu-grid-negative-decohere": (["decohere"], {
        "nu_grid": {"start": -1, "stop": 1, "steps": 3},
        "channel": {"gamma_tau_grid": None, "gamma_tau": 0.3}}, 1),
    "name-with-separator": (["entropy", "--nu", "1", "--tau-steps", "3", "--name", "a/b"],
                            None, 1),
    "name-with-separator-husimi": (["husimi", "--tau", "0.5", "--resolution", "11",
                                    "--name", "a/b"], None, 1),
    "name-with-nul": (["entropy", "--tau-steps", "3"], {"name": "a\0b"}, 1),
    "husimi-grid-over-cap": (["husimi"], {"dim_cap": 100,
                                          "husimi": {"taus": [0.5], "resolution": 101}}, 2),
    "gamma1-subnormal": (["decohere", "--nu", "0.1"], _channel(
        gamma1=1e-320, gamma_tau_grid={"start": 0, "stop": 1, "steps": 2}), 1),
    "gamma2-over-gamma1-overflows": (["decohere", "--nu", "0.1"], _channel(
        gamma1=1e-300, gamma2=1e10, gamma_tau_grid={"start": 0, "stop": 1, "steps": 2}), 1),
    "decohere-gamma1-zero": (["decohere"], {"channel": {"gamma1": 0.0}}, 1),
    "decohere-rates-overflow": (["decohere"], {"channel": {"gamma1": 1e-300, "gamma2": 1e10}},
                                1),
    "nu-1e9": (["entropy", "--nu", "1e9", "--tau-steps", "2"], None, 2),
    "m-1e9": (["entropy", "--m", "1000000000", "--tau-steps", "2"], None, 2),
    "tau-steps-1e9": (["entropy", "--tau-steps", "1000000000"], None, 1),
    "gamma-tau-steps-1e9": (["decohere"], _channel(
        gamma_tau_grid={"start": 0, "stop": 1, "steps": 10**9}), 1),
    "surface-product-over-cap": (["surface"], {
        "time_grid": {"start": 0, "stop": 1, "steps": 1001},
        "nu_grid": {"start": 1, "stop": 2, "steps": 1000}}, 1),
    "husimi-taus-same-label-flag": (["husimi", "--nu", "2", "--tau", "0.25",
                                     "--tau", "0.2500001", "--resolution", "21",
                                     "--name", "h"], None, 1),
    "husimi-taus-repeated": (["husimi"], {"husimi": {"taus": [0.5, 0.5], "resolution": 21}},
                             1),
    "tau-steps-on-husimi": (["husimi", "--tau", "0.5", "--tau-steps", "5"], None, 1),
    "tau-steps-on-decohere": (["decohere", "--tau-steps", "5"], None, 1),
    "decohere-tau-1e308": (["decohere"], _channel(tau=1e308), 2),
    "decohere-theta-1e308": (["decohere"], {**_DECAY, "initial": {"nu": 1, "theta": 1e308}}, 2),
    "entropy-theta-1e308": (["entropy", "--theta", "1e308", "--tau-steps", "5"], None, 2),
    "entropy-tau-1e308": (["entropy"], {"time_grid": {"start": 1e308, "stop": 1e308,
                                                      "steps": 2}}, 2),
    "husimi-tau-1e308": (["husimi"], {"husimi": {"taus": [1e308], "resolution": 21}}, 2),
    "husimi-nu-300": (["husimi", "--nu", "300", "--tau", "0.5", "--resolution", "101"],
                      None, 2),
}
# rows whose Kerr or coherent phase, or whose Husimi map, overflows: the builder
# refuses the coherent phase once it has chosen the cutoff, kerr_evolve the Kerr
# phase of the built state and husimi_q a map that is not finite, so all reach
# the cutoff
OVERFLOWING = {"decohere-tau-1e308", "decohere-theta-1e308", "entropy-theta-1e308",
               "entropy-tau-1e308", "husimi-tau-1e308", "husimi-nu-300"}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_ends_in_one_named_error(tmp_path, capsys, monkeypatch, case):
    def refuse(*args):
        raise AssertionError("the cutoff's weight arrays were built for a bad input")

    # no other bad input may get as far as allocating the cutoff's weights
    if case not in OVERFLOWING:
        monkeypatch.setattr(fock, "_converged_weights", refuse)
    argv, config, code = BAD_INPUTS[case]
    argv = [*argv, "--out-dir", tmp_path / "out"]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", cfg]
    try:
        got = run_cli(argv)
    except SystemExit as exc:
        got = exc.code
    lines = capsys.readouterr().err.splitlines()
    prefix = "config error: " if code == 1 else "infeasible scenario: "
    assert got == code
    assert not any("Traceback" in line for line in lines)
    assert [line for line in lines if line.startswith(prefix)] == lines[-1:]
    if case in OVERFLOWING:  # refused as a non-finite result, not a failed SVD
        assert len(lines) == 1 and lines[0].endswith("gave a non-finite result")
    assert not [path for path in (tmp_path / "out").rglob("*") if path.is_file()]


def test_overflow_in_a_pool_worker_ends_in_the_same_named_error(tmp_path, capsys,
                                                                monkeypatch):
    """Two workers split the two-point grid into two pool tasks; each runs under
    the CLI's numpy error state, so with warnings as errors the overflowing tau
    still ends in the one named error."""
    monkeypatch.setattr(entanglement, "_worker_count", lambda: 2)
    test_bad_input_ends_in_one_named_error(tmp_path, capsys, monkeypatch, "entropy-tau-1e308")


def test_cli_import_loads_no_thread_pool():
    """concurrent.futures is imported only when an entropy curve uses the pool."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kerrsplit.cli"],
                          capture_output=True, text=True, check=True)
    assert "kerrsplit.cli" in proc.stderr
    assert "concurrent" not in proc.stderr


# (argv, artifact named "s") of a command that writes files
WRITING_COMMANDS = {
    "entropy": (["entropy", "--nu", "1", "--tau-steps", "5"], "s_entropy-curve.csv"),
    "husimi": (["husimi", "--tau", "0.5", "--resolution", "11"], "s_husimi_tau_0.5.qmat"),
}
# --out-dir under tmp_path, where "taken" is a file and out/<artifact> a directory:
# each once ended in a FileExistsError, NotADirectoryError or IsADirectoryError traceback
BAD_OUT_DIRS = {"file": "taken", "under-a-file": "taken/out", "artifact-is-a-directory": "out"}


@pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
@pytest.mark.parametrize("case", sorted(BAD_OUT_DIRS))
def test_unwritable_out_dir_is_a_config_error(tmp_path, capsys, command, case):
    argv, artifact = WRITING_COMMANDS[command]
    (tmp_path / "taken").write_text("")
    (tmp_path / "out" / artifact).mkdir(parents=True)
    assert run_cli([*argv, "--name", "s", "--out-dir", tmp_path / BAD_OUT_DIRS[case]]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: out-dir: ")
    assert "Traceback" not in lines[0]


# (argv, scenario JSON or None, --out-dir, artifact taken by a directory in out or
# None, exit code) of a run that fails after it has begun to write: each once left
# some of its files, or the --out-dir it made
_REFUSED_TAU = {"husimi": {"taus": [0.5, 1e308], "resolution": 11}}
PARTIAL_RUNS = {
    "husimi-refused-at-second-tau": (["husimi"], _REFUSED_TAU, "out", None, 2),
    "husimi-refused-into-a-missing-out-dir": (["husimi"], _REFUSED_TAU, "nodir/sub", None, 2),
    "husimi-qmat-is-a-directory": (["husimi", "--tau", "0.5", "--resolution", "11"], None,
                                   "out", "s_husimi_tau_0.5.qmat", 1),
    "decohere-json-is-a-directory": (["decohere"], _DECAY, "out",
                                     "s_negativity-vs-gammatau.json", 1),
}


def snapshot(directory):
    return {path.relative_to(directory): path.read_bytes() if path.is_file() else None
            for path in sorted(directory.rglob("*"))}


@pytest.mark.parametrize("case", sorted(PARTIAL_RUNS))
def test_failed_run_leaves_out_dir_as_it_was(tmp_path, capsys, case):
    argv, config, out_dir, taken, code = PARTIAL_RUNS[case]
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.csv").write_text("kept\n")
    if taken is not None:
        (out / taken).mkdir()
    argv = [*argv, "--name", "s", "--out-dir", tmp_path / out_dir]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", tmp_path / "cfg.json"]
    before = snapshot(tmp_path)
    assert run_cli(argv) == code
    lines = capsys.readouterr().err.splitlines()
    prefix = "config error: out-dir: " if code == 1 else "infeasible scenario: "
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert snapshot(tmp_path) == before


# (scenario JSON, runner) of each command that writes one table
TABLE_COMMANDS = {
    "entropy": ({"initial": {"nu": 5.0}, "time_grid": {"start": 0, "stop": 1, "steps": 61}},
                run_entropy_curve),
    "surface": ({"time_grid": {"start": 0, "stop": 1, "steps": 5},
                 "nu_grid": {"start": 0.5, "stop": 2, "steps": 3}}, run_entropy_surface),
    "decohere": (_channel(m_values=[0, 1]), run_decoherence_scan),
}


@pytest.mark.parametrize("command", sorted(TABLE_COMMANDS))
def test_table_artifacts_parse_back_to_the_runner_result(tmp_path, command):
    raw, run = TABLE_COMMANDS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "t", **raw}))
    assert run_cli([command, "--config", cfg, "--out-dir", tmp_path]) == 0
    table = run(config_from_json(cfg))
    lines = (tmp_path / f"t_{table.artifact}.csv").read_text().splitlines()
    body = [line.split(",") for line in lines if not line.startswith("#")]
    assert body[0] == list(table.columns)
    assert all(len(row) == len(body[0]) for row in body)
    for column, cells in zip(table.columns.values(), zip(*body[1:])):
        assert len(cells) == len(column)
        for value, cell in zip(column, cells):
            if value is None:
                assert cell == ""
            elif isinstance(value, int):
                assert cell == str(value)
            else:
                assert isinstance(value, float) and cell == f"{value:.12g}"
    summary = json.loads((tmp_path / f"t_{table.artifact}.json").read_text())
    assert summary == table.summary


@pytest.mark.parametrize("content", [b"\xff\xfe{", b'{"q_max": ' + b"1" * 5000 + b"}",
                                     b"[" * 200000 + b"]" * 200000],
                         ids=["not-utf8", "5000-digit-int", "deeply-nested"])
def test_unparsable_config_file_exits_1(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert run_cli(["entropy", "--config", cfg, "--out-dir", tmp_path]) == 1
    assert capsys.readouterr().err.startswith("config error: config: invalid JSON")


def _raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


def _nan_spectrum(a, *args, **kwargs):
    return np.full(np.shape(a)[:-1], np.nan)


# (argv, the numpy.linalg routine to break, its stand-in): a routine that does
# not converge, or a non-finite result, is a numerical failure, exit 2
NUMERICAL_FAILURES = {
    "eigvalsh-raises-on-decohere": (["decohere", "--config", "cfg.json"], "eigvalsh",
                                    _raise_linalg_error),
    "svd-raises-on-entropy": (["entropy", "--nu", "1", "--tau-steps", "5"], "svd",
                              _raise_linalg_error),
    "svd-gives-nan-on-decohere": (["decohere", "--config", "cfg.json"], "svd",
                                  _nan_spectrum),
    "svd-gives-nan-on-entropy": (["entropy", "--nu", "1", "--tau-steps", "3"], "svd",
                                 _nan_spectrum),
    "eigvalsh-gives-nan-on-decohere": (["decohere", "--config", "cfg.json"], "eigvalsh",
                                       _nan_spectrum),
}


@pytest.mark.parametrize("case", sorted(NUMERICAL_FAILURES))
def test_numerical_failure_exits_2(tmp_path, capsys, monkeypatch, case):
    argv, routine, stand_in = NUMERICAL_FAILURES[case]
    (tmp_path / "cfg.json").write_text(json.dumps(_DECAY))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(np.linalg, routine, stand_in)
    assert run_cli([*argv, "--out-dir", tmp_path / "out"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("infeasible scenario: ")
    assert not (tmp_path / "out").exists()

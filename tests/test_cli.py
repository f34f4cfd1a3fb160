import json
import subprocess
import sys

import numpy as np
import pytest

from kerrsplit import cli, fock
from kerrsplit.cli import main
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


def test_decohere_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "dec",
        "initial": {"nu": 1.0},
        "channel": {"gamma_tau_grid": {"start": 0.0, "stop": 0.2, "steps": 2},
                    "tau": 0.5},
    }))
    assert run_cli(["decohere", "--config", cfg, "--out-dir", tmp_path]) == 0
    csv_path = tmp_path / "dec_negativity-vs-gammatau.csv"
    rows = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "gamma_tau,log_negativity,m,n_cut,revival_tau"
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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
ORACLE_BAD_NU = {"-1": 1, "nan": 1, "inf": 1, "1e7": 2, "1e12": 2}


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
}
# rows whose Kerr or coherent phase overflows into NaN amplitudes: they are refused
# only once the state is built, so they reach the cutoff, and numpy reports the
# overflow with a RuntimeWarning first
OVERFLOWING = {"decohere-tau-1e308", "decohere-theta-1e308"}
_IGNORE_OVERFLOW = [pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
                    pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")]


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=_IGNORE_OVERFLOW) if case in OVERFLOWING else case
    for case in sorted(BAD_INPUTS)])
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
    assert not [path for path in (tmp_path / "out").rglob("*") if path.is_file()]


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


@pytest.mark.parametrize("content", [b"\xff\xfe{", b'{"q_max": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf8", "5000-digit-int"])
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

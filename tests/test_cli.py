import json
import subprocess
import sys

import pytest

from kerrsplit.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def test_oracle_check_passes(capsys):
    assert run_cli(["oracle-check", "--nu", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


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


def test_workers_is_ignored_with_one_note(tmp_path, capsys):
    args = ["entropy", "--nu", "2", "--tau-steps", "21", "--name", "w"]
    assert run_cli(args + ["--out-dir", tmp_path / "one"]) == 0
    assert capsys.readouterr().err == ""
    assert run_cli(args + ["--workers", "3", "--out-dir", tmp_path / "three"]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "workers=3" in err and "ignored" in err
    for suffix in ("csv", "json"):
        name = f"w_entropy-curve.{suffix}"
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "three" / name).read_bytes()

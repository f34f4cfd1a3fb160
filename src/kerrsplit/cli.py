"""Command-line front end.

Subcommands: ``entropy``, ``surface``, ``husimi``, ``decohere`` and
``oracle-check``.  Each takes an optional ``--config`` JSON scenario plus a
few per-field overrides, and writes CSV/JSON artifacts under ``--out-dir``.
Exit codes: 0 success, 1 invalid configuration or command line,
2 infeasible scenario: over the dimension cap, or a numerical failure (a
linear-algebra routine that does not converge, or a non-finite result).
``oracle-check`` also exits 2 when a fidelity falls short of ``ORACLE_TOL``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .kerr import oracle_fidelity
from .sweep import (
    ChannelSection,
    ConfigError,
    InfeasibleScenarioError,
    ScenarioConfig,
    config_errors,
    config_from_json,
    entropy_curve_summary,
    run_decoherence_scan,
    run_entropy_curve,
    run_entropy_surface,
    run_husimi,
    scenario_metadata,
    with_overrides,
    write_json,
    write_records_csv,
)

ORACLE_PAIRS = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5))
ORACLE_TOL = 1e-10


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="scenario JSON file")
    sub.add_argument("--out-dir", type=Path, default=Path("out"))
    sub.add_argument("--name", help="override scenario name")
    sub.add_argument("--nu", type=float, help="override mean photon number")
    sub.add_argument("--m", type=int, help="override photon excitation number")
    sub.add_argument("--theta", type=float, help="override coherent phase (radians)")
    sub.add_argument("--tau-steps", type=int, help="override time-grid point count")


class _Parser(argparse.ArgumentParser):
    """Command-line errors exit 1 like config errors; argparse's own code, 2,
    means an infeasible scenario here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"config error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kerrsplit",
        description="Kerr-plus-beam-splitter entanglement sweeps (CSV/JSON output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for cmd, blurb in (
        ("entropy", "entanglement entropy vs time, minima annotated"),
        ("surface", "entanglement entropy over the (tau, nu) grid"),
        ("husimi", "phase-space Q grids at chosen times"),
        ("decohere", "log negativity under photon loss"),
    ):
        p = sub.add_parser(cmd, help=blurb)
        _add_common(p)
        if cmd == "husimi":
            p.add_argument("--tau", type=float, action="append",
                           help="time to render (repeatable)")
            p.add_argument("--resolution", type=int, help="grid points per axis")

    p = sub.add_parser("oracle-check",
                       help="fractional-revival oracle fidelity suite")
    p.add_argument("--nu", type=float, default=5.0)
    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    config = config_from_json(args.config) if args.config else ScenarioConfig()
    return with_overrides(config, nu=args.nu, m=args.m, theta=args.theta,
                          tau_steps=args.tau_steps, name=args.name)


def _out_dir(args: argparse.Namespace) -> Path:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return args.out_dir


def _cmd_entropy(args) -> int:
    config = _load_config(args)
    records = run_entropy_curve(config)
    out = _out_dir(args)
    meta = scenario_metadata(config, n_cut=records[0].metadata["n_cut"])
    csv_path = out / f"{config.name}_entropy-curve.csv"
    write_records_csv(csv_path, records,
                      extra_columns=("local_min", "revival_p", "revival_q"),
                      metadata=meta)
    json_path = out / f"{config.name}_entropy-curve.json"
    write_json(json_path, entropy_curve_summary(config, records))
    print(csv_path)
    print(json_path)
    return 0


def _cmd_surface(args) -> int:
    config = _load_config(args)
    records = run_entropy_surface(config)
    out = _out_dir(args)
    csv_path = out / f"{config.name}_entropy-surface.csv"
    write_records_csv(csv_path, records, extra_columns=("nu", "n_cut"),
                      metadata=scenario_metadata(config))
    summary = {
        "name": config.name,
        "m": config.initial.m,
        "theta": config.initial.theta,
        "e_max": max(rec.ordinate for rec in records),
        "tau_points": config.time_grid.steps,
        "nu_points": config.nu_grid.steps,
    }
    json_path = out / f"{config.name}_entropy-surface.json"
    write_json(json_path, summary)
    print(csv_path)
    print(json_path)
    return 0


def _cmd_husimi(args) -> int:
    config = _load_config(args)
    changes = {}
    if args.tau:
        changes["taus"] = tuple(args.tau)
    if args.resolution is not None:
        changes["resolution"] = args.resolution
    with config_errors("husimi"):
        config = replace(config, husimi=replace(config.husimi, **changes))
    out = _out_dir(args)
    summary = run_husimi(config, out)
    json_path = out / f"{config.name}_husimi.json"
    write_json(json_path, summary)
    print(json_path)
    return 0


def _cmd_decohere(args) -> int:
    config = _load_config(args)
    if config.channel is None:
        config = replace(config, channel=ChannelSection())
    records = run_decoherence_scan(config)
    out = _out_dir(args)
    artifact = ("negativity-vs-gammatau"
                if config.channel.gamma_tau_grid is not None
                else "negativity-vs-nu")
    csv_path = out / f"{config.name}_{artifact}.csv"
    write_records_csv(csv_path, records,
                      extra_columns=("m", "n_cut", "revival_tau"),
                      metadata=scenario_metadata(config))
    by_m = {}
    for rec in records:
        by_m.setdefault(rec.metadata["m"], []).append(rec.ordinate)
    summary = {
        "name": config.name,
        "nu": config.initial.nu,
        "revival_tau": config.channel.tau,
        "curves": [
            {"m": m, "initial": values[0], "final": values[-1]}
            for m, values in sorted(by_m.items())
        ],
    }
    json_path = out / f"{config.name}_{artifact}.json"
    write_json(json_path, summary)
    print(csv_path)
    print(json_path)
    return 0


def _cmd_oracle_check(args) -> int:
    worst = 1.0
    failed = False
    for p, q in ORACLE_PAIRS:
        fid = oracle_fidelity(args.nu, p, q)
        ok = fid >= 1.0 - ORACLE_TOL
        failed = failed or not ok
        worst = min(worst, fid)
        print(f"{'PASS' if ok else 'FAIL'}  p/q={p}/{q}  fidelity={fid:.15f}")
    print(f"worst fidelity: {worst:.15f}")
    return 2 if failed else 0


_COMMANDS = {
    "entropy": _cmd_entropy,
    "surface": _cmd_surface,
    "husimi": _cmd_husimi,
    "decohere": _cmd_decohere,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleScenarioError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"infeasible scenario: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

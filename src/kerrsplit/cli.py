"""Command-line front end.

Subcommands: ``entropy``, ``surface``, ``husimi``, ``decohere`` and
``oracle-check``.  The first four take an optional ``--config`` JSON scenario
plus a few per-field overrides, run one ``sweep`` runner and write its
table under ``--out-dir`` with ``write_table``: ``entropy``, ``surface``
and ``decohere`` a CSV and a JSON summary, ``husimi`` a CSV and a
``.qmat`` per tau plus one JSON summary.  A command that fails writes
none of its artifacts.
``oracle-check`` writes nothing.
Exit codes: 0 success, 1 invalid configuration or command line (an
``--out-dir`` or artifact path that cannot be written counts as one),
2 infeasible scenario: over the dimension cap, or a numerical failure (a
linear-algebra routine that does not converge, or a non-finite result).
``oracle-check`` also exits 2 when a fidelity falls short of ``ORACLE_TOL``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import sweep
from .fock import InitialStateSpec
from .kerr import oracle_fidelity
from .sweep import (
    ConfigError,
    InfeasibleScenarioError,
    ScenarioConfig,
    config_errors,
    config_from_json,
    with_overrides,
    write_table,
)

ORACLE_PAIRS = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5))
ORACLE_TOL = 1e-10

# Each writing command's sweep runner, whose Table ``write_table`` writes.
# The runner is looked up on the sweep module at call time, so a wrapped or
# patched runner is the one that runs.
_RUNNERS = {
    "entropy": "run_entropy_curve",
    "surface": "run_entropy_surface",
    "husimi": "run_husimi",
    "decohere": "run_decoherence_scan",
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="scenario JSON file")
    sub.add_argument("--out-dir", type=Path, default=Path("out"))
    sub.add_argument("--name", help="override scenario name")
    sub.add_argument("--nu", type=float, help="override mean photon number")
    sub.add_argument("--m", type=int, help="override photon excitation number")
    sub.add_argument("--theta", type=float, help="override coherent phase (radians)")


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
        if cmd in ("entropy", "surface"):  # the commands that read time_grid
            p.add_argument("--tau-steps", type=int, help="override time-grid point count")
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
                          tau_steps=getattr(args, "tau_steps", None),
                          taus=getattr(args, "tau", None),
                          resolution=getattr(args, "resolution", None), name=args.name)


def _cmd_run(args) -> int:
    config = _load_config(args)
    table = getattr(sweep, _RUNNERS[args.command])(config)
    for path in write_table(args.out_dir, config.name, table):
        print(path)
    return 0


def _cmd_oracle_check(args) -> int:
    with config_errors("nu"):
        InitialStateSpec(nu=args.nu)  # oracle_fidelity refuses a huge nu itself
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


_COMMANDS = {**dict.fromkeys(_RUNNERS, _cmd_run), "oracle-check": _cmd_oracle_check}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every result is checked finite, so numpy's overflow warnings are noise
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the output directory or an artifact cannot be written
        print(f"config error: out-dir: {exc}", file=sys.stderr)
        return 1
    except InfeasibleScenarioError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"infeasible scenario: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

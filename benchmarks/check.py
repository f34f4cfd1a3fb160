"""Output checks for benchmark jobs.

Every artifact a job writes (CSV, the ``.qmat`` matrix files and the JSON
summaries) is parsed into named arrays.  Integer quantities (cutoffs, minima
flags with their p/q, peak counts, m) must match the seed-0 reference
exactly; real quantities (entropies, E_N, Q grids, summary floats) must match
to ``REAL_TOL`` absolute.  The sha256 of every file is recorded so that a
change can also show that its bytes did not move; a byte difference alone is
reported, not failed.

Seeds other than 0 have no reference; their outputs are checked against
physical invariants instead (see ``invariant_failures``).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from kerrsplit.beamsplitter import output_at_time
from kerrsplit.entanglement import pure_state_log_negativity
from kerrsplit.fock import InitialStateSpec

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REAL_TOL = 1e-10
# Reference reals are stored as integers in units of this step (error 5e-13).
QUANTUM = 1e-12
INT_COLUMNS = frozenset({"n_cut", "m", "local_min", "revival_p", "revival_q"})
_BLANK = -1  # an empty integer cell (e.g. revival_p on a non-minimum row)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# the CLI names every artifact ``<name>_<artifact>...``
_ARTIFACT = {"entropy": "entropy-curve", "surface": "entropy-surface", "husimi": "husimi",
             "decohere": "negativity-vs-"}


def job_files(out_dir: Path, job) -> list[Path]:
    """Every artifact of one job."""
    return sorted(out_dir.glob(f"{job.name}_{_ARTIFACT[job.command]}*"))


def _put(values: dict, key: str, column: str, cells: list[str]) -> None:
    if column in INT_COLUMNS:
        values[key] = ("int", np.array([int(c) if c else _BLANK for c in cells], dtype=np.int64))
    else:
        values[key] = ("real", np.array([float(c) for c in cells], dtype=float))


def _read_csv(path: Path, values: dict) -> None:
    lines = path.read_text().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, raw = line[2:].partition(": ")
            if key in INT_COLUMNS:
                values[f"{path.name}#{key}"] = ("int", np.array([int(raw)], dtype=np.int64))
            else:
                try:
                    values[f"{path.name}#{key}"] = ("real", np.array([float(raw)]))
                except ValueError:
                    pass  # names and version strings
        else:
            body.append(line)
    header = body[0].split(",")
    columns = list(zip(*(row.split(",") for row in body[1:])))
    for name, cells in zip(header, columns):
        _put(values, f"{path.name}:{name}", name, list(cells))


def _read_qmat(path: Path, values: dict) -> None:
    grid = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    values[f"{path.name}:Q"] = ("real", grid.ravel())


def _walk_json(node, key: str, values: dict) -> None:
    if isinstance(node, dict):
        for k, v in node.items():
            _walk_json(v, f"{key}.{k}", values)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _walk_json(v, f"{key}.{i}", values)
    elif isinstance(node, bool) or node is None or isinstance(node, str):
        return
    elif isinstance(node, int):
        values[key] = ("int", np.array([node], dtype=np.int64))
    else:
        values[key] = ("real", np.array([float(node)]))


def extract(files: list[Path]) -> dict:
    """{key: (kind, array)} for every number in the given artifacts."""
    values: dict = {}
    for path in files:
        if path.suffix == ".csv":
            _read_csv(path, values)
        elif path.suffix == ".qmat":
            _read_qmat(path, values)
        elif path.suffix == ".json":
            _walk_json(json.loads(path.read_text()), path.name, values)
    return values


def compare(values: dict, reference: dict) -> list[str]:
    """Mismatches of extracted values against a reference of the same shape."""
    problems = []
    for key, (kind, want) in reference.items():
        if key not in values:
            problems.append(f"{key}: missing")
            continue
        got_kind, got = values[key]
        if got_kind != kind or got.shape != want.shape:
            problems.append(f"{key}: {got_kind}{got.shape} where {kind}{want.shape} expected")
        elif kind == "int":
            bad = np.flatnonzero(got != want)
            if bad.size:
                i = int(bad[0])
                problems.append(f"{key}[{i}]: {got[i]} != {want[i]} ({bad.size} differ)")
        else:
            err = np.abs(got - want)
            if not np.all(err <= REAL_TOL):  # also catches NaN
                i = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
                problems.append(f"{key}[{i}]: {got[i]!r} vs {want[i]!r} (|diff| > {REAL_TOL:g})")
    return problems


# ---------------------------------------------------------------------------
# reference storage: one JSON index plus one npz of deduplicated arrays

def save_reference(by_job: dict, directory: Path = REFERENCE_DIR) -> None:
    """by_job: {job: {"values": {key: (kind, array)}, "sha256": {file: hex}}}."""
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    index: dict = {}
    for job, entry in sorted(by_job.items()):
        keys = {}
        for key, (kind, arr) in sorted(entry["values"].items()):
            stored = np.rint(arr / QUANTUM).astype(np.int64) if kind == "real" else arr
            member = hashlib.sha1(kind.encode() + stored.tobytes()).hexdigest()[:16]
            arrays[member] = stored
            keys[key] = [kind, member]
        index[job] = {"values": keys, "sha256": dict(sorted(entry["sha256"].items()))}
    np.savez_compressed(directory / "seed0.npz", **arrays)
    with open(directory / "seed0.json", "w") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_reference(directory: Path = REFERENCE_DIR) -> dict:
    """Inverse of save_reference: {job: {"values": {...}, "sha256": {...}}}."""
    index = json.loads((directory / "seed0.json").read_text())
    with np.load(directory / "seed0.npz") as npz:
        arrays = {name: npz[name] for name in npz.files}
    out = {}
    for job, entry in index.items():
        values = {}
        for key, (kind, member) in entry["values"].items():
            arr = arrays[member]
            values[key] = (kind, arr * QUANTUM if kind == "real" else arr)
        out[job] = {"values": values, "sha256": entry["sha256"]}
    return out


# ---------------------------------------------------------------------------
# invariants, checked on every seed

def _column(values: dict, key: str) -> np.ndarray:
    if key not in values:
        raise KeyError(f"{key}: missing")
    return values[key][1]


def pure_log_negativity(nu: float, m: int, tau: float) -> float:
    """E_N of the undamped split state, for the E_N(gamma*tau = 0) check."""
    return pure_state_log_negativity(output_at_time(InitialStateSpec(nu=nu, m=m), tau))


def invariant_failures(job, values: dict) -> list[str]:
    """Physical invariants of one job's outputs."""
    problems = [f"{key}: non-finite value" for key, (kind, arr) in values.items()
                if kind == "real" and not np.all(np.isfinite(arr))]
    name = job.name
    try:
        if job.command in ("entropy", "surface"):
            stem = f"{name}_entropy-{'curve' if job.command == 'entropy' else 'surface'}.csv"
            ent = _column(values, f"{stem}:entropy_ebits")
            if job.command == "entropy":
                n_cut = np.full(ent.shape, _column(values, f"{stem}#n_cut")[0])
            else:
                n_cut = _column(values, f"{stem}:n_cut")
            upper = np.log2(n_cut + 1.0)
            if not np.all((ent >= -1e-12) & (ent <= upper + 1e-9)):
                problems.append(f"{stem}: entropy outside [0, log2 d]")
        elif job.command == "decohere" and job.config["channel"].get("gamma_tau_grid"):
            stem = f"{name}_negativity-vs-gammatau.csv"
            g = _column(values, f"{stem}:gamma_tau")
            en = _column(values, f"{stem}:log_negativity")
            ms = _column(values, f"{stem}:m")
            nu, tau = job.config["initial"]["nu"], job.config["channel"]["tau"]
            for m in np.unique(ms):
                rows = ms == m
                curve = en[rows][np.argsort(g[rows], kind="stable")]
                if np.any(np.diff(curve) > 1e-9):
                    problems.append(f"{stem}: E_N increases with gamma*tau at m={m}")
                start = rows & (g == 0.0)
                if start.any():
                    want = pure_log_negativity(nu, int(m), tau)
                    if abs(float(en[start][0]) - want) > 1e-8:
                        problems.append(f"{stem}: E_N(0) = {en[start][0]!r} but the pure "
                                        f"state gives {want!r} at m={m}")
        elif job.command == "decohere":
            stem = f"{name}_negativity-vs-nu.csv"
            if np.any(_column(values, f"{stem}:log_negativity") < 0.0):
                problems.append(f"{stem}: negative E_N")
        elif job.command == "husimi":
            summary = f"{name}_husimi.json"
            for i in range(len(job.config["husimi"]["taus"])):
                norm = float(_column(values, f"{summary}.grids.{i}.normalization")[0])
                if not math.isfinite(norm) or abs(norm - 1.0) > 1e-3:
                    problems.append(f"{summary}: grid {i} normalization {norm!r} is not ~1")
                if _column(values, f"{summary}.grids.{i}.peak_count")[0] < 1:
                    problems.append(f"{summary}: grid {i} has no peak")
    except KeyError as exc:
        problems.append(str(exc))
    return problems


# ---------------------------------------------------------------------------

def verify(jobs, runs: list[dict], kept_dir: Path, reference: dict | None):
    """Check every job run of a workload run.

    ``runs`` holds, per job call, its error (or None) and the name of the
    directory under ``kept_dir`` with its outputs; identical outputs share
    one directory and are checked once.  Returns the failure message of each
    failed call and the names of reference files whose bytes changed.
    """
    by_name = {job.name: job for job in jobs}
    problems_of: dict[str, list[str]] = {}
    bytes_changed: set[str] = set()
    failures = []
    for run in runs:
        if run["error"] is None and run["outputs"] is None:
            run = dict(run, error="no output files")
        if run["error"] is not None:
            failures.append(f"{run['job']}: {run['error']}")
            continue
        kept = run["outputs"]
        if kept not in problems_of:
            job = by_name[run["job"]]
            files = sorted((kept_dir / kept).iterdir())
            values = extract(files)
            problems = invariant_failures(job, values)
            if reference is not None:
                ref = reference[job.name]
                names = {p.name for p in files}
                problems += compare(values, ref["values"])
                problems += [f"{name}: missing" for name in ref["sha256"] if name not in names]
                bytes_changed.update(name for name, digest in ref["sha256"].items()
                                     if name in names and sha256(kept_dir / kept / name) != digest)
            problems_of[kept] = problems
        if problems_of[kept]:
            failures.append(f"{run['job']}: " + "; ".join(problems_of[kept][:3]))
    return failures, sorted(bytes_changed)

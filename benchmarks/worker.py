"""Child process that runs one workload: ``run.py`` starts one per run.

One closed-loop client in one process: each job is an in-process call to
``kerrsplit.cli.main(argv)`` and the next job starts when it returns.  The
library runs with its default ``workers=1``.  A warm-up pass comes first;
timed passes follow until the time budget is spent.  With tracing on, the
budget is split between untraced and traced passes, and one more pass runs
under tracemalloc for allocation peaks.  The outputs of every pass are kept
for run.py to check after this process has ended.

Usage (normally started by run.py):
    python3 benchmarks/worker.py --workload entropy --seed 0 --seconds 25 \
        --trace 0 --work-dir .bench_out/work --result .bench_out/result.json
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import kerrsplit.cli  # noqa: E402

import calibration  # noqa: E402
import check  # noqa: E402
import layertrace  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

MIN_PASSES = 3


class Runner:
    """Runs passes over a job list in ``work_dir``.

    After each pass (outside its timed region) every job's artifacts are
    hashed; a set of bytes not seen before for that job is moved aside under
    ``kept/`` for the parent to check, so the checker's own memory and time
    stay out of this process.  ``runs`` records, per job and pass, the
    failure of the call (or None) and the name of its kept output set.
    """

    def __init__(self, jobs, work_dir: Path):
        self.jobs = jobs
        self.out_dir = work_dir / "out"
        self.kept_dir = work_dir / "kept"
        config_dir = work_dir / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        self.argvs = []
        for job in jobs:
            path = config_dir / f"{job.name}.json"
            path.write_text(json.dumps(job.config, indent=1))
            self.argvs.append([job.command, "--config", str(path), "--out-dir",
                               str(self.out_dir)])
        self.runs: list[dict] = []
        self._kept: dict[tuple, str] = {}

    def run_pass(self, tracer: layertrace.Tracer | None = None) -> tuple[float, float]:
        """One pass over the jobs; returns its (start, end)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        outcomes = []
        sink = io.StringIO()
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        start = time.perf_counter()
        for argv in self.argvs:
            try:
                with contextlib.redirect_stdout(sink):
                    # looked up per call, so tracing wrappers apply
                    code = kerrsplit.cli.main(argv)
                outcomes.append(None if code == 0 else f"exit code {code}")
            except (Exception, SystemExit) as exc:  # a failed job, not a harness fault
                outcomes.append(f"raised {exc!r}")
        end = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        for job, outcome in zip(self.jobs, outcomes):
            self.runs.append({"job": job.name, "error": outcome,
                              "outputs": None if outcome else self._keep(job)})
        return start, end

    def _keep(self, job) -> str | None:
        files = check.job_files(self.out_dir, job)
        if not files:
            return None
        digests = tuple((p.name, check.sha256(p)) for p in files)
        name = self._kept.get((job.name, digests))
        if name is None:
            name = f"{job.name}.{len(self._kept)}"
            dest = self.kept_dir / name
            dest.mkdir(parents=True)
            for path in files:
                path.rename(dest / path.name)
            self._kept[(job.name, digests)] = name
        return name

    def timed_passes(self, seconds: float, minimum: int,
                     tracer: layertrace.Tracer | None = None, each=None,
                     calibrations: list[float] | None = None) -> list[float]:
        """Passes until ``seconds`` have elapsed and at least ``minimum`` ran;
        with ``calibrations``, the time of the calibration kernel run right
        before each pass is appended to it."""
        times = []
        budget_end = time.perf_counter() + seconds
        while len(times) < minimum or time.perf_counter() < budget_end:
            if calibrations is not None:
                calibrations.append(calibration.kernel_seconds())
            start, end = self.run_pass(tracer)
            times.append(end - start)
            if each is not None:
                each(start, end)
        return times


def blas_info() -> dict:
    """BLAS library and its thread count, from numpy's build information and
    the library's own thread query where it exports one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        info = {"name": None, "version": None}
    info["threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    queries = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads",
               "MKL_Get_Max_Threads", "bli_thread_get_num_threads")
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in queries:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info.update(threads=int(fn()), thread_query=symbol, library=lib_path)
                return info
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            info.update(threads=os.environ[var], thread_query=var)
            break
    return info


def traced_passes(runner: Runner, seconds: float, untraced: list[float]) -> dict:
    """Per-layer metrics: traced passes for ``seconds`` (at least one), then
    one pass that records allocation peaks with tracemalloc."""
    tracer = layertrace.Tracer()
    tracer.install()
    per_pass, accounting = [], []

    def record(start: float, end: float) -> None:
        spans = tracer.spans
        per_pass.append(layertrace.layer_metrics(spans))
        accounting.append({"pass_s": end - start,
                           "self_s_sum": sum(s.self_s for s in spans),
                           "untraced_s": layertrace.untraced_seconds(spans, start, end)})

    try:
        traced = runner.timed_passes(seconds, 1, tracer, record)
        spans = [s.as_dict() for s in tracer.spans]
        tracer.memory = True
        runner.run_pass(tracer)
        peaks = layertrace.alloc_peaks_mb(tracer.spans)
    finally:
        tracer.uninstall()
    layers = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    layers["entanglement.alloc_peak_mb"] = peaks["entanglement"]
    layers["decoherence.alloc_peak_mb"] = peaks["decoherence"]
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"layers": layers, "traced_pass_s": traced, "accounting": accounting,
            "spans": spans}


def run(workload: str, seed: int, seconds: float, traced: bool, work_dir: Path,
        smoke: bool = False) -> dict:
    jobs = make_jobs(workload, seed, smoke=smoke)
    runner = Runner(jobs, work_dir)
    runner.run_pass()  # warm-up
    calibration.kernel_seconds()
    budget = seconds / 2 if traced else seconds
    calibrations: list[float] = []
    untraced = runner.timed_passes(budget, 1 if traced else MIN_PASSES,
                                   calibrations=calibrations)
    result = {
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "blas": blas_info(),
        "pass_s": untraced,
        "calibration_s": calibrations,
    }
    if traced:
        result.update(traced_passes(runner, budget, untraced))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["runs"] = runner.runs
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.work_dir, smoke=args.smoke)
    spans = result.pop("spans", None)
    if spans is not None:
        # spans of the last traced pass, held in memory until the run ended
        result["spans_file"] = str(args.result.with_suffix(".spans.jsonl"))
        with open(result["spans_file"], "w") as fh:
            fh.writelines(json.dumps(span, default=repr) + "\n" for span in spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

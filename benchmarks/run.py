"""kerrsplit benchmark: end-to-end time to solution and an outside-in layer trace.

    python3 benchmarks/run.py --workload entropy|decoherence|husimi \
        --seed N --seconds 25 --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  Set-up time is measured first, in fresh interpreters;
then one child process (``worker.py``) runs the workload's jobs, checks
every output and reports its timings.  With ``--trace 0`` the result carries
the end-to-end metrics, with ``--trace 1`` the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric by name and unit; the full report, with the environment
block, is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread, in this process (set before numpy loads) and its children.
# On a 2-vCPU shared host a second OpenBLAS thread left entropy and husimi as
# fast, at nearly twice the CPU time, and widened their spread; decoherence
# (eigvalsh on matrices up to 961x961) runs about 1.4x slower without it.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import calibration  # noqa: E402
from metrics import END_TO_END, FAIL_RATIO, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, set-up included
IMPORT = "import kerrsplit.cli"


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _git() -> dict:
    """Commit and dirty flag of the checkout, or nulls outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=20)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], env=env,
                                capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    if head.returncode != 0 or status.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters running the CLI import, and of the
    calibration kernel run right before each; one untimed run first so that
    byte-code compilation is not counted.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, which would
    quantize the result, so the wait blocks and a timer kills a hung child.
    """
    env = _child_env()
    times, kernels = [], []
    for i in range(repeats + 1):
        kernel = calibration.kernel_seconds()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", IMPORT], env=env)
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        if i:
            times.append(elapsed)
            kernels.append(kernel)
    return times, kernels


def parse_importtime(stderr: str) -> dict:
    """Import time (s) of numpy, scipy and kerrsplit from ``-X importtime``.

    numpy and scipy get the cumulative time of their outermost imports (a
    numpy module first imported by scipy counts for scipy), so what they pull
    in counts with them; kerrsplit gets its cumulative time minus the numpy
    and scipy imports made inside it.
    """
    rows = []
    for line in stderr.splitlines():
        fields = line[len("import time:"):].split("|", 2)
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        if not fields[1].strip().isdigit():
            continue  # the column header
        name = fields[2]
        rows.append((len(name) - len(name.lstrip()), name.strip().split(".")[0],
                     int(fields[1]) / 1e6))
    totals = {"numpy": 0.0, "scipy": 0.0, "kerrsplit": 0.0}
    inside_kerrsplit = 0.0
    ancestors: list[tuple[int, str]] = []
    # a module is printed after everything it imported, one level less indented
    for indent, top, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        outer = {name for _, name in ancestors}
        if top == "kerrsplit" and top not in outer:
            totals[top] += cumulative
        elif top in ("numpy", "scipy") and not outer & {"numpy", "scipy"}:
            totals[top] += cumulative
            if "kerrsplit" in outer:
                inside_kerrsplit += cumulative
        ancestors.append((indent, top))
    totals["kerrsplit"] -= inside_kerrsplit
    return totals


def measure_importtime(repeats: int) -> dict:
    env = _child_env()
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        runs.append(parse_importtime(proc.stderr))
    return {f"setup.{pkg}_import_s": statistics.median(r[pkg] for r in runs)
            for pkg in runs[0]}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4))


def run_worker(args, stem: str, work_dir: Path, deadline: float) -> dict:
    result_path = OUT_DIR / f"{stem}.worker.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir),
           "--result", str(result_path)]
    if args.smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, env=_child_env(), check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kerrsplit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, no reference: for the harness self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "kerrsplit" / "cli.py").is_file():
        print(f"error: no kerrsplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    import check  # imports the program, so only once its sources are known to exist

    jobs = make_jobs(args.workload, args.seed, args.smoke)
    points = sum(job.points for job in jobs)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work_dir = OUT_DIR / f"work-{stem}"
    shutil.rmtree(work_dir, ignore_errors=True)
    OUT_DIR.mkdir(exist_ok=True)

    load_start = _loadavg()
    try:
        if args.trace:
            setup = measure_importtime(IMPORTTIME_REPEATS)
        else:
            setup_walls, setup_kernels = measure_setup(SETUP_REPEATS)
        worker = run_worker(args, stem, work_dir, deadline)
        reference = None
        if args.seed == 0 and not args.smoke:
            stored = check.load_reference()
            reference = {job.name: stored[job.name] for job in jobs}
        failures, bytes_changed = check.verify(jobs, worker["runs"], work_dir / "kept",
                                               reference)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print(f"error: workload run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(worker["runs"])
    failed = len(failures)
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        **worker["versions"],
        "blas": worker["blas"],
        "git": _git(),
    }
    walls, kernels = worker["pass_s"], worker["calibration_s"]
    passes = [calibration.rescale(wall, kernel) for wall, kernel in zip(walls, kernels)]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "points_per_pass": points, "jobs_per_pass": len(jobs),
        "pass_s": {"median": statistics.median(passes), "quartiles": _quartiles(passes),
                   "samples": passes, "n": len(passes)},
        "pass_wall_s": {"median": statistics.median(walls), "quartiles": _quartiles(walls),
                        "samples": walls, "n": len(walls)},
        "calibration_s": {"reference": calibration.REFERENCE_S, "samples": kernels},
        "peak_rss_mb": worker["peak_rss_mb"],
        "fail_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "failures": failures, "csv_bytes_changed": bytes_changed,
    }
    if args.trace:
        layers = {**worker["layers"], **setup}
        metrics = {m.name: {"value": layers[m.name], "unit": m.unit} for m in PER_LAYER}
        report.update(layers=layers,
                      waiting_s="not applicable: one thread, no pool, queue or lock",
                      traced_pass_s=worker["traced_pass_s"],
                      accounting=worker["accounting"], spans_file=worker["spans_file"])
    else:
        setup_times = [calibration.rescale(wall, kernel)
                       for wall, kernel in zip(setup_walls, setup_kernels)]
        values = {"setup_s": statistics.median(setup_times),
                  "pass_s": statistics.median(passes),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END}
        report["setup_s"] = {"median": values["setup_s"], "quartiles": _quartiles(setup_times),
                             "samples": setup_times, "n": len(setup_times),
                             "wall_samples": setup_walls, "kernel_samples": setup_kernels}
    report["metrics"] = metrics
    report_path = OUT_DIR / f"{stem}.json"
    report_path.write_text(json.dumps(report, indent=1, default=repr) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{points} points/pass  {len(jobs)} jobs/pass")
    moves = {m.name: m.moves for m in PER_LAYER}
    for name, metric in metrics.items():
        note = f"  moves {moves[name]}" if moves.get(name) else ""
        print(f"  {name:<28} {metric['value']:<22.10g} {metric['unit']:<6}{note}")
    if args.trace:
        last = worker["accounting"][-1]
        print(f"  last traced pass: self times {last['self_s_sum']:.6f} s + untraced "
              f"{last['untraced_s']:.6f} s = pass {last['pass_s']:.6f} s")
    else:
        q1, _, q3 = report["pass_s"]["quartiles"]
        print(f"  pass_s over {len(passes)} passes: quartiles {q1:.4f} .. {q3:.4f} s")
        print(f"  setup_s wall time, not rescaled: median {statistics.median(setup_walls):.4f} s")
        wall = report["pass_wall_s"]
        print(f"  wall time per pass, not rescaled: median {wall['median']:.4f} s, quartiles "
              f"{wall['quartiles'][0]:.4f} .. {wall['quartiles'][2]:.4f} s; calibration kernel "
              f"median {statistics.median(kernels):.4f} s (reference {calibration.REFERENCE_S} s)")
    print(f"  {FAIL_RATIO.name:<28} {failed / attempted:<22.10g} {FAIL_RATIO.unit}"
          f"  ({failed} of {attempted} jobs failed)")
    blas = env["blas"]
    print(f"  env: nproc {env['nproc']}, load {env['loadavg_start']} -> {env['loadavg_end']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {blas.get('name')} {blas.get('version')} x{blas.get('threads')} threads, "
          f"commit {env['git']['commit']} dirty={env['git']['dirty']}")
    for failure in failures[:5]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(f"  report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness (not part of the package's test suite).

    python3 benchmarks/selftest.py

Runs every workload on tiny grids, checks that the output checker rejects a
perturbed reference, that traced self times plus untraced time add up to
the traced pass, that seeds keep the problem size, and that BENCHMARK.json
matches metrics.py.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import calibration  # noqa: E402
import check  # noqa: E402
import layertrace  # noqa: E402
import worker  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WHY, WORKLOADS, make_jobs  # noqa: E402

import kerrsplit.cli  # noqa: E402
from kerrsplit.fock import choose_cutoff  # noqa: E402

SCRATCH = ROOT / ".bench_out" / "selftest"


def _run_benchmark(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _smoke_pass(workload: str, tracer=None) -> tuple[worker.Runner, float, float]:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    runner = worker.Runner(make_jobs(workload, 1, smoke=True), work_dir)
    start, end = runner.run_pass(tracer)
    return runner, start, end


def _verify(runner: worker.Runner, reference=None) -> list[str]:
    return check.verify(runner.jobs, runner.runs, runner.kept_dir, reference)[0]


def _values(runner: worker.Runner) -> dict:
    return {run["job"]: check.extract(sorted((runner.kept_dir / run["outputs"]).iterdir()))
            for run in runner.runs}


class SmokeRuns(unittest.TestCase):
    def test_every_workload_end_to_end(self):
        for workload in WORKLOADS:
            proc = _run_benchmark("--workload", workload, "--seed", "2", "--seconds", "0.2",
                                  "--trace", "0", "--smoke")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], proc.stderr)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(list(result["metrics"]), [m.name for m in END_TO_END])
            for metric in END_TO_END:
                self.assertGreater(result["metrics"][metric.name]["value"], 0)
                self.assertIn(f"  {metric.name} ", proc.stdout)
            self.assertIn("fail_ratio", proc.stdout)
            report = json.loads(
                (ROOT / ".bench_out" / f"{workload}-seed2-trace0-smoke.json").read_text())
            walls, kernels = report["pass_wall_s"]["samples"], report["calibration_s"]["samples"]
            self.assertEqual(len(kernels), len(walls))
            self.assertEqual(report["pass_s"]["samples"],
                             [calibration.rescale(w, k) for w, k in zip(walls, kernels)])

    def test_traced_run_reports_every_layer_metric(self):
        proc = _run_benchmark("--workload", "decoherence", "--seed", "0", "--seconds", "0.2",
                              "--trace", "1", "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        self.assertEqual(list(metrics), [m.name for m in PER_LAYER])
        for name in ("entanglement.eig_calls", "entanglement.eig_ops",
                     "entanglement.alloc_peak_mb", "decoherence.alloc_peak_mb",
                     "decoherence.in_bytes", "setup.scipy_import_s"):
            self.assertGreater(metrics[name]["value"], 0, name)

    def test_refuses_to_run_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_benchmark("--workload", "entropy", "--seed", "0", "--seconds", "1",
                              "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Checker(unittest.TestCase):
    def test_rejects_a_perturbed_reference(self):
        for workload in WORKLOADS:
            runner, _, _ = _smoke_pass(workload)
            self.assertEqual(_verify(runner), [])
            reference = {name: {"values": values, "sha256": {}}
                         for name, values in _values(runner).items()}
            self.assertEqual(_verify(runner, reference), [])

            job = runner.jobs[0].name
            values = reference[job]["values"]
            real_key = next(k for k, (kind, _) in values.items() if kind == "real")
            int_key = next(k for k, (kind, _) in values.items() if kind == "int")
            for key, delta in ((real_key, 1e-9), (int_key, 1)):
                kind, arr = values[key]
                bumped = arr.copy()
                bumped[-1] += delta
                perturbed = dict(reference)
                perturbed[job] = {"values": {**values, key: (kind, bumped)}, "sha256": {}}
                failures = _verify(runner, perturbed)
                self.assertEqual(len(failures), 1, key)
                self.assertIn(key, failures[0])

    def test_reference_round_trip_stays_within_tolerance(self):
        runner, _, _ = _smoke_pass("husimi")
        by_job = {name: {"values": values, "sha256": {}}
                  for name, values in _values(runner).items()}
        check.save_reference(by_job, SCRATCH / "ref")
        loaded = check.load_reference(SCRATCH / "ref")
        for name, entry in by_job.items():
            self.assertEqual(check.compare(entry["values"], loaded[name]["values"]), [])

    def test_stored_reference_covers_every_canonical_job(self):
        stored = check.load_reference()
        for workload in WORKLOADS:
            for job in make_jobs(workload, 0):
                self.assertIn(job.name, stored)
                self.assertTrue(stored[job.name]["sha256"])


class Tracing(unittest.TestCase):
    def test_self_times_and_untraced_time_add_up_to_the_pass(self):
        original = kerrsplit.cli.main
        tracer = layertrace.Tracer()
        tracer.install()
        layers_seen = set()
        try:
            for workload in WORKLOADS:
                runner, start, end = _smoke_pass(workload, tracer)
                self.assertEqual(_verify(runner), [])
                spans = tracer.spans
                total = sum(s.self_s for s in spans)
                untraced = layertrace.untraced_seconds(spans, start, end)
                self.assertGreater(untraced, 0.0)
                self.assertAlmostEqual(total + untraced, end - start, delta=1e-6)
                self.assertTrue(all(s.self_s >= 0.0 for s in spans))
                metrics = layertrace.layer_metrics(spans)
                layers_seen.update(layer for layer in layertrace.LAYERS
                                   if metrics[f"{layer}.calls"] > 0)
        finally:
            tracer.uninstall()
        self.assertIs(kerrsplit.cli.main, original)
        self.assertEqual(layers_seen, set(layertrace.LAYERS))

    def test_errors_are_counted_where_they_leave_a_layer(self):
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            tracer.active = True
            with self.assertRaises(ValueError):
                kerrsplit.fock.choose_cutoff(-1.0, 0)
            tracer.active = False
        finally:
            tracer.uninstall()
        metrics = layertrace.layer_metrics(tracer.spans)
        self.assertEqual(metrics["fock.errors"], 1)


class Definitions(unittest.TestCase):
    def test_benchmark_json_matches_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([w["why"] for w in spec["workloads"]], [WHY[w] for w in WORKLOADS])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            [(m.name, m.unit, m.better) for m in END_TO_END])
        self.assertEqual(spec["per_layer"],
                         [{"name": m.name, "unit": m.unit, "better": m.better}
                          for m in PER_LAYER])

    def test_seeds_keep_the_problem_size(self):
        def dims(jobs):
            out = []
            for job in jobs:
                cfg = job.config
                m_values = cfg.get("channel", {}).get("m_values") or [
                    cfg.get("initial", {}).get("m", 0)]
                if "nu_grid" in cfg:
                    g = cfg["nu_grid"]
                    step = (g["stop"] - g["start"]) / max(g["steps"] - 1, 1)
                    nus = [g["start"] + i * step for i in range(g["steps"])]
                else:
                    nus = [cfg["initial"]["nu"]]
                out.append((job.points, [choose_cutoff(nu, m) for nu in nus for m in m_values]))
            return out

        for workload in WORKLOADS:
            canonical = dims(make_jobs(workload, 0))
            for seed in range(1, 41):
                self.assertEqual(dims(make_jobs(workload, seed)), canonical, (workload, seed))


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

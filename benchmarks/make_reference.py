"""Regenerate the seed-0 reference outputs of every workload.

    python3 benchmarks/make_reference.py

Runs one pass of each workload at seed 0 and stores every number the jobs
write (see check.py) plus the sha256 of every artifact under
``benchmarks/reference/``.  Only rerun it when a change is meant to alter
the program's outputs, and say so in that change.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import check  # noqa: E402
from worker import ROOT, Runner  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


def main() -> int:
    by_job = {}
    work = ROOT / ".bench_out" / "work-reference"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for workload in WORKLOADS:
            jobs = make_jobs(workload, 0)
            runner = Runner(jobs, work / workload)
            runner.run_pass()
            failures, _ = check.verify(jobs, runner.runs, runner.kept_dir, reference=None)
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            for run in runner.runs:
                files = sorted((runner.kept_dir / run["outputs"]).iterdir())
                by_job[run["job"]] = {"values": check.extract(files),
                                      "sha256": {p.name: check.sha256(p) for p in files}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check.save_reference(by_job)
    print(f"wrote {check.REFERENCE_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

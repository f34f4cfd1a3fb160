"""Metric definitions: the single list BENCHMARK.json mirrors.

Each per-layer metric names the end-to-end metric and workload it should
move, written down before any change is measured against it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    moves: str   # end-to-end metric and workload this one should move
    about: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", "",
           "fresh interpreter running `import kerrsplit.cli`, rescaled to the "
           "reference host speed (calibration.py); median of repeats"),
    Metric("pass_s", "s", "lower", "",
           "wall time of one pass over the workload's jobs after a warm-up pass, "
           "artifact writes included, rescaled to the reference host speed "
           "(calibration.py); median over passes"),
    Metric("peak_rss_mb", "MB", "lower", "",
           "ru_maxrss of the child process that runs the workload"),
)

# Reported with the end-to-end metrics but not a BENCHMARK.json metric: it is
# 0 on a correct program, and the result line carries it as failed/attempted.
FAIL_RATIO = Metric("fail_ratio", "ratio", "lower", "",
                    "failed jobs / jobs attempted; a job fails if it raises, "
                    "returns non-zero or fails the output check")

_PURE = "pass_s on entropy"
_MIXED = "pass_s on decoherence"
_PHASE = "pass_s on husimi"
_ALL = "pass_s on every workload"

PER_LAYER = (
    Metric("fock.calls", "count", "lower", _PURE, "calls of fock public functions"),
    Metric("fock.self_s", "s", "lower", _PURE),
    Metric("fock.dim_max", "count", "lower", _PURE, "largest Fock dimension n_cut+1 built"),
    Metric("fock.cutoff_calls", "count", "lower", _PURE, "choose_cutoff calls"),
    Metric("fock.cutoff_useful_ratio", "ratio", "higher", _PURE,
           "distinct (nu, m, policy) inputs / choose_cutoff calls"),
    Metric("kerr.calls", "count", "lower", _PURE),
    Metric("kerr.self_s", "s", "lower", _PURE),
    Metric("beamsplitter.calls", "count", "lower", _PURE),
    Metric("beamsplitter.self_s", "s", "lower", _PURE),
    Metric("beamsplitter.out_bytes", "B", "lower", _PURE,
           "summed nbytes of the phi returned across the layer boundary"),
    Metric("entanglement.svd_calls", "count", "lower", _PURE,
           "numpy.linalg.svd calls made inside entanglement"),
    Metric("entanglement.svd_self_s", "s", "lower", _PURE),
    Metric("entanglement.eig_calls", "count", "lower", _MIXED,
           "numpy.linalg.eigvalsh/eigh calls made inside entanglement"),
    Metric("entanglement.eig_self_s", "s", "lower", _MIXED),
    Metric("entanglement.eig_dim_max", "count", "lower", _MIXED,
           "largest matrix order handed to the eigensolver"),
    Metric("entanglement.eig_ops", "flop", "lower", _MIXED,
           "computed: sum of 4/3 n^3 (x4 if complex) per eigensolve"),
    Metric("entanglement.alloc_peak_mb", "MB", "lower", "peak_rss_mb on decoherence",
           "tracemalloc peak above entry, separate traced pass"),
    Metric("decoherence.alloc_peak_mb", "MB", "lower", "peak_rss_mb on decoherence",
           "tracemalloc peak above entry, separate traced pass"),
    Metric("decoherence.calls", "count", "lower", _MIXED),
    Metric("decoherence.self_s", "s", "lower", _MIXED),
    Metric("decoherence.in_bytes", "B", "lower", _MIXED,
           "summed nbytes of arrays passed into the layer"),
    Metric("husimi.q_self_s", "s", "lower", _PHASE, "husimi_q"),
    Metric("husimi.q_pixels", "count", "lower", _PHASE),
    Metric("husimi.peaks_self_s", "s", "lower", _PHASE, "count_peaks"),
    Metric("husimi.peaks_found", "count", "higher", _PHASE),
    Metric("husimi.write_self_s", "s", "lower", _PHASE, "write_grid_csv and write_grid_matrix"),
    Metric("husimi.write_bytes", "B", "lower", _PHASE, "sizes of the written files (stat)"),
    Metric("sweep.self_s", "s", "lower", _ALL, "runner overhead"),
    Metric("sweep.rows_written", "count", "lower", _ALL, "rows passed to write_records_csv"),
    Metric("sweep.write_bytes", "B", "lower", _ALL, "sizes of the CSVs written (stat)"),
    Metric("cli.self_s", "s", "lower", _ALL, "argument and config handling, JSON summaries"),
    Metric("setup.numpy_import_s", "s", "lower", "setup_s on every workload",
           "summed self time of numpy modules under -X importtime"),
    Metric("setup.scipy_import_s", "s", "lower", "setup_s on every workload",
           "summed self time of scipy modules under -X importtime"),
    Metric("setup.kerrsplit_import_s", "s", "lower", "setup_s on every workload",
           "summed self time of kerrsplit modules under -X importtime"),
    *(Metric(f"{layer}.errors", "count", "lower", "fail_ratio on every workload",
             "exceptions leaving the layer's public functions")
      for layer in ("fock", "kerr", "beamsplitter", "entanglement", "husimi",
                    "decoherence", "sweep", "cli")),
    Metric("trace.overhead_s", "s", "lower", "",
           "traced pass_s minus untraced pass_s, same child process"),
)

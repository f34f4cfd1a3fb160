"""Outside-in layer trace of the kerrsplit package.

``Tracer.install`` wraps every public function of each layer module (the
names in its ``__all__``, or its own non-underscore functions when it has
none) at every name any ``kerrsplit`` module binds it to, plus the numpy
eigen- and singular-value kernels.  The package source is untouched, and
public functions added later are picked up without editing this file.

Classes in ``__all__`` stay unwrapped: replacing a class object would break
``isinstance``, ``except`` clauses and ``dataclasses.replace``; their
methods run inside the calling layer's span.

Spans are held in memory.  A span's self time is its duration minus the
durations of its direct children.  Everything runs on one thread with no
pool, so no layer waits on a queue or lock and waiting time is not recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
import types

import numpy as np

LAYERS = ("fock", "kerr", "beamsplitter", "entanglement", "husimi", "decoherence",
          "sweep", "cli")
KERNEL = "linalg"
KERNELS = ("svd", "eigvalsh", "eigh")
# Layers whose allocation peaks the memory pass records.  tracemalloc runs
# only inside their spans: it slows every allocation, and the pure-state
# layers make many small ones.
ALLOC_LAYERS = ("entanglement", "decoherence")
_MB = float(1 << 20)


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "child", "error", "info",
                 "mem0", "mem_peak")  # mem0 is None unless tracemalloc ran in the span

    def __init__(self, layer: str, name: str, parent: int):
        self.layer, self.name, self.parent = layer, name, parent  # parent: span index or -1
        self.start = self.end = 0.0
        self.child = 0.0  # summed duration of direct children
        self.error = False
        self.info = None
        self.mem0 = None
        self.mem_peak = 0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child

    def as_dict(self) -> dict:
        return {"layer": self.layer, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                "error": self.error, "info": self.info}


def public_functions(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    fns = (getattr(module, n) for n in names)
    return [f for f in fns
            if isinstance(f, types.FunctionType) and f.__module__ == module.__name__]


def _path_bytes(value) -> int:
    if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
        return os.stat(value).st_size
    return 0


def _probe(fn):
    """Per-call counters for one wrapped function, computed after it returns."""
    name = fn.__name__
    if name == "choose_cutoff":
        sig = inspect.signature(fn)

        def probe(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            return {"key": (float(a["nu"]), int(a["m"]), a["policy"]), "dim": int(result) + 1}
        return probe
    if name.startswith("write"):
        sig = inspect.signature(fn)

        def probe(args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments
            info = {"bytes": sum(_path_bytes(v) for v in bound.values())}
            if "records" in bound:
                info["rows"] = len(bound["records"])
            return info
        return probe

    def probe(args, kwargs, result):
        info = {}
        nbytes = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
        if nbytes:
            info["in_bytes"] = nbytes
        if isinstance(result, np.ndarray):
            info["out_bytes"] = result.nbytes
        amplitudes = getattr(result, "amplitudes", None)
        if amplitudes is not None:
            info["dim"] = len(amplitudes)
        values = getattr(result, "values", None)
        if isinstance(values, np.ndarray):
            info["pixels"] = values.size
        if name == "count_peaks":
            info["found"] = int(result)
        return info or None
    return probe


def _kernel_probe(args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"])
    n = a.shape[-1]
    batch = int(np.prod(a.shape[:-2], dtype=np.int64))
    return {"dim": n, "batch": batch, "complex": bool(np.iscomplexobj(a))}


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.memory = False  # record allocation peaks of ALLOC_LAYERS spans
        self.active = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._memory_root: Span | None = None

    # -- span bookkeeping -------------------------------------------------
    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _fold_peak(self) -> None:
        # tracemalloc keeps one global peak: fold it into every open span
        # before resetting it, so nested spans do not hide each other's peaks.
        peak = tracemalloc.get_traced_memory()[1]
        for i in self._stack:
            span = self.spans[i]
            span.mem_peak = max(span.mem_peak, peak)
        tracemalloc.reset_peak()

    def _memory_enter(self, span: Span) -> None:
        if self._memory_root is None:
            if span.layer not in ALLOC_LAYERS:
                return
            tracemalloc.start()
            self._memory_root = span
        else:
            self._fold_peak()
        span.mem0 = span.mem_peak = tracemalloc.get_traced_memory()[0]

    def _memory_exit(self, span: Span) -> None:
        if span.mem0 is None:
            return
        self._fold_peak()
        if span is self._memory_root:
            tracemalloc.stop()
            self._memory_root = None

    def wrap(self, layer: str, fn, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(layer, fn.__name__, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if self.memory:
                self._memory_enter(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, error=True)
                raise
            self._close(span, error=False)
            span.info = probe(args, kwargs, result)
            return result

        return traced

    def _close(self, span: Span, error: bool) -> None:
        span.end = time.perf_counter()
        span.error = error
        if self.memory:
            self._memory_exit(span)
        self._stack.pop()
        if self._stack:
            self.spans[self._stack[-1]].child += span.end - span.start

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public functions wherever kerrsplit binds them."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"kerrsplit.{layer}")
            for fn in public_functions(module):
                wrapped[fn] = self.wrap(layer, fn, _probe(fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "kerrsplit" and not mod_name.startswith("kerrsplit."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped[value])
        for name in KERNELS:
            original = getattr(np.linalg, name)
            self._undo.append((np.linalg, name, original))
            setattr(np.linalg, name, self.wrap(KERNEL, original, _kernel_probe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


# ---------------------------------------------------------------------------
# per-layer metrics of one pass

def _owner(spans: list[Span], span: Span) -> str | None:
    """Layer of the nearest enclosing non-kernel span."""
    i = span.parent
    while i >= 0 and spans[i].layer == KERNEL:
        i = spans[i].parent
    return spans[i].layer if i >= 0 else None


def _boundary(spans: list[Span], span: Span) -> bool:
    """True when the span is entered from outside its own layer."""
    return span.parent < 0 or spans[span.parent].layer != span.layer


def eig_flops(info: dict) -> float:
    """Computed (not measured): Householder tridiagonalisation of an n x n
    Hermitian matrix costs 4/3 n^3 real flops, times 4 for complex entries;
    the O(n^2) tridiagonal eigenvalue stage is left out."""
    return info["batch"] * (4.0 if info["complex"] else 1.0) * 4.0 / 3.0 * info["dim"] ** 3


def layer_metrics(spans: list[Span]) -> dict:
    """Counts and self times of one traced pass, named ``<layer>.<metric>``."""
    out = {f"{layer}.{key}": 0 for layer in LAYERS for key in ("calls", "errors")}
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    fields = ("fock.dim_max", "fock.cutoff_calls", "beamsplitter.out_bytes",
              "entanglement.svd_calls", "entanglement.eig_calls",
              "entanglement.eig_dim_max", "entanglement.eig_ops", "decoherence.in_bytes",
              "husimi.q_pixels", "husimi.peaks_found", "husimi.write_bytes",
              "sweep.rows_written", "sweep.write_bytes")
    out.update({key: 0 for key in fields})
    out.update({key: 0.0 for key in ("entanglement.svd_self_s", "entanglement.eig_self_s",
                                     "husimi.q_self_s", "husimi.peaks_self_s",
                                     "husimi.write_self_s")})
    cutoff_keys = set()
    for span in spans:
        info = span.info or {}
        if span.layer == KERNEL:
            if _owner(spans, span) == "entanglement":
                kind = "svd" if span.name == "svd" else "eig"
                out[f"entanglement.{kind}_calls"] += 1
                out[f"entanglement.{kind}_self_s"] += span.self_s
                if kind == "eig" and info:  # no info when the call raised
                    out["entanglement.eig_dim_max"] = max(out["entanglement.eig_dim_max"],
                                                          info["dim"])
                    out["entanglement.eig_ops"] += eig_flops(info)
            continue
        layer = span.layer
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += span.self_s
        boundary = _boundary(spans, span)
        if span.error and boundary:
            out[f"{layer}.errors"] += 1
        if layer == "fock":
            if "dim" in info:
                out["fock.dim_max"] = max(out["fock.dim_max"], info["dim"])
            if span.name == "choose_cutoff":
                out["fock.cutoff_calls"] += 1
                if "key" in info:  # absent when the call raised
                    cutoff_keys.add(info["key"])
        elif layer == "beamsplitter" and boundary:
            out["beamsplitter.out_bytes"] += info.get("out_bytes", 0)
        elif layer == "decoherence" and boundary:
            out["decoherence.in_bytes"] += info.get("in_bytes", 0)
        elif layer == "husimi":
            if span.name == "husimi_q":
                out["husimi.q_self_s"] += span.self_s
                out["husimi.q_pixels"] += info.get("pixels", 0)
            elif span.name == "count_peaks":
                out["husimi.peaks_self_s"] += span.self_s
                out["husimi.peaks_found"] += info.get("found", 0)
            elif span.name.startswith("write"):
                out["husimi.write_self_s"] += span.self_s
                out["husimi.write_bytes"] += info.get("bytes", 0)
        elif layer == "sweep" and span.name.startswith("write"):
            out["sweep.rows_written"] += info.get("rows", 0)
            out["sweep.write_bytes"] += info.get("bytes", 0)
    calls = out["fock.cutoff_calls"]
    out["fock.cutoff_useful_ratio"] = len(cutoff_keys) / calls if calls else 0.0
    return out


def alloc_peaks_mb(spans: list[Span]) -> dict:
    """Largest tracemalloc growth above entry level inside any span entered
    from outside the layer, per layer of ALLOC_LAYERS (memory mode only)."""
    peaks = dict.fromkeys(ALLOC_LAYERS, 0.0)
    for span in spans:
        if span.mem0 is not None and span.layer in peaks and _boundary(spans, span):
            peaks[span.layer] = max(peaks[span.layer], (span.mem_peak - span.mem0) / _MB)
    return peaks


def untraced_seconds(spans: list[Span], pass_start: float, pass_end: float) -> float:
    """Time of the pass not covered by any root span (harness loop time)."""
    covered = sum(s.end - s.start for s in spans if s.parent < 0)
    return (pass_end - pass_start) - covered

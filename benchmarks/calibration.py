"""Host-speed calibration for the end-to-end timings.

The 2-vCPU shared host the benchmark was tuned on changes speed by up to 40%
for tens of seconds at a time, long enough to make a whole run read slow.
Right before each timed sample (a set-up interpreter or a pass) the
benchmark therefore times a fixed kernel, and reports the sample rescaled to
a host on which the kernel takes ``REFERENCE_S``.  The kernel's input never
changes, so a change to the program cannot move it; only the host does.
"""

from __future__ import annotations

import time

import numpy as np

# Typical kernel time on the host the benchmark was tuned on (2 vCPUs,
# scipy-openblas 0.3.31 with one thread).
REFERENCE_S = 0.08
_MATRIX = np.random.default_rng(12345).standard_normal((150, 150))


def kernel_seconds() -> float:
    """Wall time of the kernel: 15 SVDs of one 150x150 matrix."""
    start = time.perf_counter()
    for _ in range(15):
        np.linalg.svd(_MATRIX)
    return time.perf_counter() - start


def rescale(seconds: float, kernel: float) -> float:
    """A sample of ``seconds`` taken when the kernel took ``kernel`` seconds,
    at the reference host speed."""
    return seconds * REFERENCE_S / kernel

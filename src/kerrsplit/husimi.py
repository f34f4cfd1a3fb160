"""Husimi Q-function on a rectangular phase-space grid, plus peak counting.

Conventions: probe coherent state beta = (x + i*p)/sqrt(2), i.e. unit-variance
vacuum with x = sqrt(2)*Re(beta), p = sqrt(2)*Im(beta), and

    Q(x, p) = (1/pi) * |<beta|psi>|^2
            = (1/pi) * exp(-|beta|^2) * |sum_n conj(beta)^n c_n / sqrt(n!)|^2.

Q is bounded by ||c||^2/pi, which is 1/pi for a unit vector (``husimi_q``
does not normalise its amplitudes).  A coherent state peaks at (sqrt(2)Re alpha,
sqrt(2)Im alpha), and the phase-space measure is dx dp / 2 (so sum(Q)*dx*dp/2
is ~1 on a window enclosing the state).  Q is evaluated directly from the
Fock amplitudes by a Horner pass over one block of grid rows at a time,
written straight into the returned map.  ``husimi_q`` owns the
grid's size rule, resolution <= ``dim_cap``, and refuses a larger grid
before it allocates one; ``sweep.run_husimi`` applies the same check,
``_check_grid_cap``, before it builds its state.  Peaks are counted by
topographic prominence with ``prominent_summits``, the same rule that finds
the entropy minima of a curve in ``sweep``; it labels connected regions from
horizontal runs with numpy alone.  ``write_grid`` writes a grid
as a CSV of (x, p, Q) rows and as a dense ``.qmat`` matrix, formatting each
x-row with one ``%`` call for both files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    DEFAULT_DIM_CAP,
    check_amplitudes,
    check_dim_cap,
    check_finite,
    check_int,
    check_real,
    log_factorials,
)

__all__ = [
    "PhaseSpaceGrid",
    "count_peaks",
    "default_half_width",
    "husimi_q",
    "n_max_estimate",
    "prominent_summits",
    "write_grid",
]


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Q values sampled on a rectangular lattice: values[i, j] = Q(x[i], p[j]).
    Each axis has at least 2 points; a shorter one raises ValueError."""

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        p = np.array(self.p, dtype=float)
        values = np.array(self.values, dtype=float)
        for name, axis in (("x", x), ("p", p)):
            if axis.size < 2:
                raise ValueError(f"{name} must have at least 2 points, got {axis.size}")
        if values.shape != (len(x), len(p)):
            raise ValueError("values must have shape (len(x), len(p))")
        for arr in (x, p, values):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "values", values)

    def normalization(self) -> float:
        """Discrete quasi-probability mass sum(Q)*dx*dp/2; ~1 when the window
        encloses the state's support.  A mass that is not finite, as in a
        huge window, raises InfeasibleScenarioError."""
        dx = float(self.x[1] - self.x[0])
        dp = float(self.p[1] - self.p[0])
        with np.errstate(over="ignore"):
            mass = self.values.sum() * dx * dp / 2.0
        return float(check_finite(mass, "Husimi Q normalization"))


def default_half_width(mean_photons: float) -> float:
    """Window half-width enclosing all sub-packets with margin: the packets sit
    on a circle of radius sqrt(2 * <n>) in (x, p)."""
    return 2.0 + 1.6 * math.sqrt(2.0 * max(mean_photons, 0.0))


# the most bytes of complex values (z, and again the Horner accumulator) that
# husimi_q holds at once: 81 rows of a 201-wide grid, 16 of a 1001-wide one
_BLOCK_BYTES = 1 << 18


def _check_grid_cap(resolution: int, dim_cap: int) -> None:
    """Refuse a ``resolution`` x ``resolution`` Husimi grid over ``dim_cap``."""
    check_dim_cap(resolution, dim_cap, "Husimi grid")


def husimi_q(
    amplitudes: np.ndarray,
    half_width: float | None = None,
    resolution: int = 201,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> PhaseSpaceGrid:
    """Evaluate Q of the state with these Fock amplitudes on a square window
    of the given half-width (default sized from its mean photon number).
    The amplitudes are used as given, not normalised, so Q <= ||c||^2/pi,
    which is 1/pi for a unit vector.  Q is evaluated one block of x-rows at
    a time, with the same operations per pixel as one whole-grid pass.

    ``amplitudes`` must pass ``fock.check_amplitudes``, and a
    ``resolution`` over ``dim_cap`` raises InfeasibleScenarioError before
    the grid is built.  So does a map that is not finite, as the Horner pass
    gives past about 230 mean photons, once it is built."""
    check_int("resolution", resolution, 2)
    _check_grid_cap(resolution, dim_cap)
    amplitudes, _ = check_amplitudes(amplitudes)
    if half_width is None:
        probs = np.abs(amplitudes) ** 2
        half_width = default_half_width(float(np.dot(np.arange(len(probs)), probs)))
    elif check_real("half_width", half_width) <= 0:
        raise ValueError(f"half_width must be > 0, got {half_width!r}")
    x = p = np.linspace(-half_width, half_width, resolution)

    coeff = amplitudes * np.exp(-0.5 * log_factorials(len(amplitudes)))
    # Q is built row block by row block in its own rows of the returned grid:
    # the peak is that grid plus one block's complex z and accumulator
    q = np.empty((resolution, resolution))
    rows = max(1, _BLOCK_BYTES // (16 * resolution))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, resolution, rows):
            block = q[start:start + rows]
            z = (x[start:start + rows, None] - 1j * p[None, :]) / math.sqrt(2.0)  # conj(beta)
            acc = np.zeros_like(z)
            for c in coeff[::-1]:
                acc *= z
                acc += c
            np.abs(z, out=block)
            block **= 2
            np.exp(-block, out=block)
            block *= np.abs(acc) ** 2
            block /= math.pi
    check_finite(q, f"Husimi Q of a {len(amplitudes)}-level state")
    return PhaseSpaceGrid(x, p, q)


def n_max_estimate(alpha_mag: float) -> float:
    """Largest number of sub-packets distinguishable on the circle of radius
    |alpha|: pi * |alpha| / sqrt(ln 10)."""
    if alpha_mag < 0:
        raise ValueError(f"alpha_mag must be >= 0, got {alpha_mag}")
    return math.pi * alpha_mag / math.sqrt(math.log(10.0))


def _box_max(values: np.ndarray) -> np.ndarray:
    """Maximum over each entry's 3^ndim neighbourhood, edges repeated: a
    three-wide running maximum along one axis after another."""
    out = values
    for axis in range(values.ndim):
        src = np.moveaxis(out, axis, 0)
        box = src.copy()
        np.maximum(box[1:], src[:-1], out=box[1:])
        np.maximum(box[:-1], src[1:], out=box[:-1])
        out = np.moveaxis(box, 0, axis)
    return out


def _run_components(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Horizontal runs of a 2-D boolean mask whose last column is False, and
    the component of each run under full connectivity.

    Returns the flat index of each run's first entry, the flat index just past
    its last one (both in row-major order, increasing), and per run the
    lowest index of a run in its component.  Runs in adjacent rows join when
    their columns overlap or touch diagonally.  The run graph is merged by
    hooking each root onto the smaller root across an edge, then pointer
    jumping until every run names its root.
    """
    width = mask.shape[1]
    edges = np.flatnonzero(np.diff(mask, axis=1, prepend=False))
    starts, ends = edges[0::2], edges[1::2]
    # run i meets the runs lo[i] .. hi[i] - 1 of the next row
    lo = np.searchsorted(ends, starts + width, side="left")
    hi = np.searchsorted(starts, ends + width, side="right")
    counts = hi - lo
    a = np.repeat(np.arange(len(starts)), counts)
    b = np.arange(len(a)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    root = np.arange(len(starts))
    while len(a):
        ra, rb = root[a], root[b]
        apart = ra != rb
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        root[np.maximum(ra, rb)] = np.minimum(ra, rb)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return starts, ends, root


def prominent_summits(values: np.ndarray, floor: float) -> list[int]:
    """First flat index of each regional maximum of ``values`` whose
    topographic prominence is at least ``floor``, in ascending order.

    A summit at level s counts when the component of {values > s - floor}
    holding it (full connectivity: 8 neighbours in 2-D) has no pixel above s,
    the h-maxima rule.  Plateaus, and equal summits joined above s - floor,
    count once; the global maximum always counts.  ``values`` is a non-empty
    1-D or 2-D array of finite numbers (a 1-D array is one row) and ``floor``
    is > 0; anything else raises ValueError.

    Components are labelled afresh for each distinct summit level, from the
    horizontal runs of {values > s - floor}.
    """
    values = np.asarray(values)
    if values.ndim not in (1, 2) or values.size == 0:
        raise ValueError(f"values must be a non-empty 1-D or 2-D array, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    if not floor > 0:
        raise ValueError(f"floor must be > 0, got {floor!r}")
    flat = values.ravel()
    crest = values == _box_max(values)
    high = (values - values.min() >= floor) | (values == flat.max())
    candidates = np.flatnonzero(crest & high)
    width = values.shape[-1]
    # a column of -inf ends every row's last run, so that no run spans two rows
    padded = np.full((flat.size // width, width + 1), -np.inf)
    padded[:, :width] = values.reshape(-1, width)
    padded = padded.ravel()
    summits = []
    levels = np.sort(flat[candidates])
    # distinct levels without np.unique, whose plain form imports numpy.ma
    levels = levels[np.append(True, levels[1:] != levels[:-1])]
    for level in levels:
        mask = (padded > level - floor).reshape(-1, width + 1)
        starts, ends, root = _run_components(mask)
        run_top = np.maximum.reduceat(padded, np.column_stack([starts, ends]).ravel())[0::2]
        overtopped = np.zeros(len(starts), dtype=bool)
        overtopped[root[run_top > level]] = True
        at_level = candidates[flat[candidates] == level]
        run = np.searchsorted(starts, at_level + at_level // width, side="right") - 1
        components, first = np.unique(root[run], return_index=True)
        summits.extend(int(at_level[i]) for i in first[~overtopped[components]])
    return sorted(summits)


def count_peaks(grid: PhaseSpaceGrid, rel_threshold: float = 0.1) -> int:
    """Number of well-distinguished peaks of Q: regional maxima whose
    prominence is at least rel_threshold times the global maximum, so that
    interference ridges between neighbouring sub-packets cannot bridge them.
    """
    if not 0.0 < rel_threshold < 1.0:
        raise ValueError(f"rel_threshold must lie in (0, 1), got {rel_threshold}")
    top = float(grid.values.max())
    if top <= 0.0:
        return 0
    return len(prominent_summits(grid.values, rel_threshold * top))


def _formatted(values: np.ndarray) -> list[str]:
    """Each entry of a 1-D array as ``.12g`` text."""
    return list(map("{:.12g}".format, values.tolist()))


def write_grid(grid: PhaseSpaceGrid, csv_path, qmat_path) -> None:
    """Write Q as a CSV, one (x, p, Q) row per grid point, x-major, and as a
    dense matrix, one x-row per line after a JSON header line.  Each x-row is
    formatted by one ``%`` call into its ``.qmat`` line, whose fields then
    fill the CSV rows; only one row is held as text at a time."""
    header = {
        "window": [float(grid.x[0]), float(grid.x[-1]), float(grid.p[0]), float(grid.p[-1])],
        "resolution": [len(grid.x), len(grid.p)],
        "row_axis": "x",
        "col_axis": "p",
    }
    row_template = ",".join(["%.12g"] * len(grid.p))
    # each CSV line is (x, ",p,", Q, newline); x and Q are filled in per row
    csv_parts = [None, None, None, "\n"] * len(grid.p)
    csv_parts[1::4] = [f",{pv}," for pv in _formatted(grid.p)]
    with open(csv_path, "w", newline="") as csv, open(qmat_path, "w", newline="") as qmat:
        csv.write("x,p,Q\n")
        qmat.write("# " + json.dumps(header, sort_keys=True) + "\n")
        for xv, row in zip(_formatted(grid.x), grid.values):
            line = row_template % tuple(row.tolist())
            csv_parts[0::4] = [xv] * len(grid.p)
            csv_parts[2::4] = line.split(",")
            csv.write("".join(csv_parts))
            qmat.write(line + "\n")

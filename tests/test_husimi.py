import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kerrsplit.fock import (
    InfeasibleScenarioError,
    InitialStateSpec,
    build_initial_state,
    log_factorials,
)
from kerrsplit.husimi import (
    PhaseSpaceGrid,
    count_peaks,
    default_half_width,
    husimi_q,
    n_max_estimate,
    prominent_summits,
    write_grid,
)
from kerrsplit.kerr import kerr_evolve

INV_PI = 1.0 / math.pi


def vacuum(n_cut):
    return np.eye(n_cut + 1, dtype=complex)[0]


def evolved(nu, m, tau):
    return kerr_evolve(build_initial_state(InitialStateSpec(nu=nu, m=m)), tau)


def test_vacuum_peaks_at_origin():
    grid = husimi_q(vacuum(6), half_width=4.0, resolution=161)
    i0 = np.argmin(np.abs(grid.x))
    assert abs(grid.values[i0, i0] - INV_PI) < 1e-12
    assert abs(grid.values.max() - INV_PI) < 1e-9


def test_coherent_peak_location_and_value():
    spec = InitialStateSpec(nu=5.0, theta=math.pi / 4)
    grid = husimi_q(build_initial_state(spec), resolution=401)
    i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    want_x = math.sqrt(2.0) * spec.alpha.real
    want_p = math.sqrt(2.0) * spec.alpha.imag
    step = grid.x[1] - grid.x[0]
    assert abs(grid.x[i] - want_x) <= step
    assert abs(grid.p[j] - want_p) <= step
    assert grid.values.max() <= INV_PI + 1e-12
    assert grid.values.max() > 0.99 * INV_PI


@pytest.mark.parametrize("nu,m,tau", [(5.0, 0, 0.5), (5.0, 5, 0.0), (5.0, 0, 0.37)])
def test_husimi_bound(nu, m, tau):
    grid = husimi_q(evolved(nu, m, tau))
    assert np.all(grid.values >= 0.0)
    assert grid.values.max() <= INV_PI + 1e-12


def test_husimi_q_does_not_normalise_its_amplitudes():
    """Q <= ||c||^2 / pi: doubling the amplitudes quadruples the map on a
    fixed window (the default window widens with the unnormalised mean)."""
    c = evolved(5.0, 0, 0.25)
    twice, once = (husimi_q(a, half_width=7.0).values for a in (2 * c, c))
    assert np.allclose(twice, 4 * once, rtol=1e-15, atol=0)


@pytest.mark.parametrize("nu,m,tau", [(5.0, 0, 0.0), (5.0, 0, 0.5), (5.0, 5, 0.2)])
def test_normalization_when_window_encloses_state(nu, m, tau):
    grid = husimi_q(evolved(nu, m, tau))
    assert abs(grid.normalization() - 1.0) < 1e-3


def test_rotational_covariance():
    base = InitialStateSpec(nu=4.0, theta=0.3)
    shifted = InitialStateSpec(nu=4.0, theta=0.3 + 0.9)
    g0 = husimi_q(build_initial_state(base), half_width=7.0, resolution=281)
    g1 = husimi_q(build_initial_state(shifted), half_width=7.0, resolution=281)
    i0, j0 = np.unravel_index(np.argmax(g0.values), g0.values.shape)
    i1, j1 = np.unravel_index(np.argmax(g1.values), g1.values.shape)
    angle0 = math.atan2(g0.p[j0], g0.x[i0])
    angle1 = math.atan2(g1.p[j1], g1.x[i1])
    assert abs((angle1 - angle0) - 0.9) < 0.05


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(0.0, 5.0), m=st.integers(0, 3), tau=st.floats(0.0, 1.0))
def test_husimi_map_at_one_minus_tau_is_the_reflected_map(nu, m, tau):
    """The state at 1 - tau is the conjugate of the state at tau up to the
    rotation exp(2i*theta*N), so Q_{1-tau}(beta) = Q_tau(conj(beta) e^{2i theta}):
    on the square grid x = p, the transpose at theta = pi/4 and p flipped at
    theta = 0."""
    for theta, reflect in ((math.pi / 4, np.transpose), (0.0, lambda v: v[:, ::-1])):
        c = build_initial_state(InitialStateSpec(nu=nu, theta=theta, m=m))
        at, mirrored = (husimi_q(kerr_evolve(c, t), resolution=41).values for t in (tau, 1.0 - tau))
        assert np.max(np.abs(mirrored - reflect(at))) < 1e-13


def test_n_max_estimate_values():
    assert abs(n_max_estimate(math.sqrt(5.0)) - 4.62) < 0.01
    assert n_max_estimate(0.0) == 0.0
    assert abs(n_max_estimate(math.sqrt(20.0)) - math.pi * math.sqrt(20.0) / math.sqrt(math.log(10.0))) < 1e-12
    with pytest.raises(ValueError):
        n_max_estimate(-1.0)


def test_count_peaks_coherent_is_one():
    assert count_peaks(husimi_q(evolved(5.0, 0, 0.0))) == 1


@pytest.mark.parametrize("q,want", [(2, 2), (3, 3), (4, 4), (5, 5)])
def test_count_peaks_fractional_revivals(q, want):
    assert count_peaks(husimi_q(evolved(5.0, 0, 1.0 / q))) == want


def test_count_peaks_p2_q3():
    assert count_peaks(husimi_q(evolved(5.0, 0, 2.0 / 3.0))) == 3


def test_count_peaks_beyond_distinguishability_drops():
    # q = 6 exceeds the n_max estimate 4.62, so fewer than 6 sub-packets resolve
    assert count_peaks(husimi_q(evolved(5.0, 0, 1.0 / 6.0))) < 6


def test_count_peaks_pacs_orders():
    assert count_peaks(husimi_q(evolved(5.0, 5, 1.0 / 7.0))) == 7


def test_count_peaks_degenerate_grid():
    x = np.linspace(-1, 1, 8)
    grid = PhaseSpaceGrid(x, x, np.zeros((8, 8)))
    assert count_peaks(grid) == 0
    with pytest.raises(ValueError):
        count_peaks(grid, rel_threshold=0.0)


def flood_fill_prominences(values):
    """(summit, prominence) per regional maximum, by descending flood fill:
    the reference for prominent_summits.

    Pixels are visited from highest to lowest; a pixel with no visited
    neighbour (8-connectivity) seeds a new peak region, and when regions
    merge, the lower summit is assigned prominence summit - merge_level.
    The last surviving region's summit keeps its full height (the field is
    non-negative).  Plateaus are counted once.
    """
    nx, ny = values.shape
    flat = values.ravel()
    order = np.argsort(-flat, kind="stable")
    parent = np.full(flat.size, -1, dtype=np.int64)  # -1 = unvisited
    summit = {}
    proms = []

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for raw in order:
        idx = int(raw)
        level = float(flat[idx])
        i, j = divmod(idx, ny)
        roots = set()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                a, b = i + di, j + dj
                if (di or dj) and 0 <= a < nx and 0 <= b < ny:
                    neighbour = a * ny + b
                    if parent[neighbour] != -1:
                        roots.add(find(neighbour))
        if not roots:
            parent[idx] = idx
            summit[idx] = level
            continue
        ordered = sorted(roots, key=lambda r: summit[r])
        top = ordered[-1]
        parent[idx] = top
        for r in ordered[:-1]:
            proms.append((summit[r], summit[r] - level))
            parent[r] = top
    final_root = find(int(order[0]))
    proms.append((summit[final_root], summit[final_root]))
    return proms


def flood_fill_count(values, rel_threshold):
    top = float(values.max())
    if top <= 0.0:
        return 0
    return sum(1 for _, prom in flood_fill_prominences(values) if prom >= rel_threshold * top)


def as_grid(values):
    nx, ny = values.shape
    return PhaseSpaceGrid(np.arange(nx), np.arange(ny), values)


def random_field(seed, shape, smooth, quantized):
    """Uniform noise; ``smooth`` sums each 2 or 2x2 block, edges repeated
    (fewer, broader summits), and ``quantized`` rounds to multiples of
    2**-quantized, so that equal summits, plateaus and ties between
    components come up often.  Sums and differences of such values are
    exact, so a prominence equal to the floor is decided alike by an
    oracle's differences and by the rule's levels s - floor."""
    values = np.random.default_rng(seed).random(shape)
    for axis in range(values.ndim) if smooth else ():
        n = values.shape[axis]
        values = values + np.take(values, np.minimum(np.arange(1, n + 1), n - 1), axis)
    return values if quantized is None else np.round(values * 2**quantized) / 2**quantized


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nx=st.integers(2, 14), ny=st.integers(2, 14),
       smooth=st.booleans(), quantized=st.sampled_from([None, 3, 6]),
       rel=st.floats(0.01, 0.99))
def test_count_peaks_equals_flood_fill(seed, nx, ny, smooth, quantized, rel):
    values = random_field(seed, (nx, ny), smooth, quantized)
    assert count_peaks(as_grid(values), rel) == flood_fill_count(values, rel)


# a PhaseSpaceGrid has at least 2 points per axis, so count_peaks never sees a
# one-wide field; the rule that it calls still takes one
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14), across=st.booleans(),
       smooth=st.booleans(), quantized=st.sampled_from([None, 3, 6]),
       rel=st.floats(0.01, 0.99))
def test_prominent_summits_equal_flood_fill_on_one_wide_fields(seed, n, across, smooth,
                                                               quantized, rel):
    values = random_field(seed, (1, n) if across else (n, 1), smooth, quantized)
    top = float(values.max())
    found = len(prominent_summits(values, rel * top)) if top > 0.0 else 0
    assert found == flood_fill_count(values, rel)


@pytest.mark.parametrize("tau", [0.0, 0.5, 1 / 3, 0.25, 0.2, 1 / 6, 2 / 3, 0.37])
@pytest.mark.parametrize("rel", [0.05, 0.1, 0.3, 0.6])
def test_count_peaks_equals_flood_fill_on_husimi_maps(tau, rel):
    values = husimi_q(evolved(5.0, 0, tau), resolution=61).values
    assert count_peaks(as_grid(values), rel) == flood_fill_count(values, rel)


def test_prominent_summits_ties_plateaus_and_edges():
    # equal summits joined above s - floor count once, at the first index
    assert prominent_summits(np.array([0.0, 1.0, 0.95, 1.0, 0.0]), 0.1) == [1]
    # ... and twice when the saddle between them is deeper than the floor
    assert prominent_summits(np.array([0.0, 1.0, 0.8, 1.0, 0.0]), 0.1) == [1, 3]
    # a plateau counts once, at its first pixel; a shelf on a slope never counts
    assert prominent_summits(np.array([0.0, 2.0, 2.0, 2.0, 0.0, 1.0, 1.0, 1.5]), 0.5) == [1, 7]
    # summits on the border count
    assert prominent_summits(np.array([1.0, 0.0, 0.5]), 0.4) == [0, 2]
    # the global maximum counts even when the floor exceeds the range
    assert prominent_summits(np.array([0.5, 0.6, 0.5]), 1.0) == [1]
    # 8-connectivity: diagonal neighbours join, so the lower summit drops
    field = np.array([[1.0, 0.0], [0.0, 0.9]])
    assert prominent_summits(field, 0.5) == [0]
    plateau = np.zeros((4, 4))
    plateau[1:3, 1:3] = 1.0
    assert prominent_summits(plateau, 0.5) == [5]
    assert count_peaks(as_grid(plateau)) == 1


def ndimage_summits(values, floor):
    """The h-maxima rule of prominent_summits with scipy.ndimage's maximum
    filter and labelling: the reference for its numpy labelling."""
    from scipy import ndimage

    flat = values.ravel()
    structure = ndimage.generate_binary_structure(values.ndim, values.ndim)
    crest = values == ndimage.maximum_filter(values, footprint=structure, mode="nearest")
    high = (values - values.min() >= floor) | (values == flat.max())
    candidates = np.flatnonzero(crest & high)
    summits = []
    for level in np.unique(flat[candidates]):
        labels, _ = ndimage.label(values > level - floor, structure)
        at_level = candidates[flat[candidates] == level]
        components, first = np.unique(labels.ravel()[at_level], return_index=True)
        tops = ndimage.maximum(values, labels, components)
        summits.extend(int(at_level[i]) for i, top in zip(first, tops) if top <= level)
    return sorted(summits)


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.one_of(st.tuples(st.integers(1, 60)),
                       st.tuples(st.integers(1, 20), st.integers(1, 20))),
       smooth=st.booleans(), quantized=st.sampled_from([None, 3, 6]),
       floor=st.floats(0.001, 1.5))
def test_prominent_summits_equal_ndimage(seed, shape, smooth, quantized, floor):
    values = random_field(seed, shape, smooth, quantized)
    assert prominent_summits(values, floor) == ndimage_summits(values, floor)


# the Husimi maps of the benchmark's husimi workload: (nu, m, tau)
BENCHMARK_MAPS = [(5.0, 0, 1 / 2), (5.0, 0, 1 / 3), (5.0, 0, 1 / 4), (5.0, 0, 1 / 5),
                  (5.0, 5, 1 / 7)]


@pytest.mark.parametrize("nu,m,tau", BENCHMARK_MAPS)
@pytest.mark.parametrize("rel", [0.02, 0.1, 0.3])
def test_prominent_summits_equal_ndimage_on_benchmark_maps(nu, m, tau, rel):
    values = husimi_q(evolved(nu, m, tau), resolution=201).values
    floor = rel * values.max()
    assert prominent_summits(values, floor) == ndimage_summits(values, floor)


@pytest.mark.parametrize("values", [np.array(1.0), np.zeros(0), np.zeros((0, 3)),
                                    np.zeros((2, 2, 2))], ids=["0-d", "1-d-empty",
                                                               "2-d-empty", "3-d"])
def test_prominent_summits_refuses_other_shapes(values):
    with pytest.raises(ValueError, match=re.escape(str(values.shape))):
        prominent_summits(values, 0.1)


@pytest.mark.parametrize("values, floor", [(np.array([0.0, np.inf, 0.0]), 0.1),
                                           (np.array([0.0, np.nan, 1.0]), 0.1),
                                           (np.array([0.0, 1.0, 0.0]), 0.0),
                                           (np.array([0.0, 1.0, 0.0]), -1.0),
                                           (np.array([0.0, 1.0, 0.0]), np.nan)],
                         ids=["inf", "nan", "floor-0", "floor-negative", "floor-nan"])
def test_prominent_summits_refuses_non_finite_values_and_floors_not_above_zero(values, floor):
    with pytest.raises(ValueError):
        prominent_summits(values, floor)


SCIPY_BLOCKED_RUN = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
import numpy
ma_with_numpy = "numpy.ma" in sys.modules  # numpy 1.x imports numpy.ma itself
from kerrsplit.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod)
ma_loaded = "numpy.ma" in sys.modules and not ma_with_numpy
print(json.dumps({"codes": codes, "scipy": loaded, "numpy.ma": ma_loaded}))
"""


def test_every_command_runs_without_scipy(tmp_path):
    # scipy.ndimage alone pulls in about 300 modules; no command needs any,
    # nor numpy.ma, which a plain np.unique imports where numpy does not
    (tmp_path / "surface.json").write_text(json.dumps({
        "name": "s", "initial": {"nu": 1.0},
        "time_grid": {"start": 0.0, "stop": 1.0, "steps": 5},
        "nu_grid": {"start": 0.5, "stop": 1.0, "steps": 2}}))
    (tmp_path / "decohere.json").write_text(json.dumps({
        "name": "d", "initial": {"nu": 1.0, "m": 1},
        "channel": {"gamma_tau_grid": {"start": 0.0, "stop": 1.0, "steps": 3}, "tau": 0.5}}))
    out = str(tmp_path)
    commands = [
        ["entropy", "--nu", "5", "--tau-steps", "201", "--name", "e", "--out-dir", out],
        ["surface", "--config", str(tmp_path / "surface.json"), "--out-dir", out],
        ["husimi", "--nu", "5", "--tau", "0.5", "--resolution", "41", "--name", "h",
         "--out-dir", out],
        ["decohere", "--config", str(tmp_path / "decohere.json"), "--out-dir", out],
    ]
    proc = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED_RUN, json.dumps(commands)],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0, 0, 0], "scipy": [],
                                                        "numpy.ma": False}
    assert json.loads((tmp_path / "e_entropy-curve.json").read_text())["n_minima"] > 0
    assert json.loads((tmp_path / "h_husimi.json").read_text())["grids"][0]["peak_count"] == 2


def test_husimi_validation():
    with pytest.raises(ValueError):
        husimi_q(vacuum(3), resolution=1)
    for resolution in (2.5, np.float64(3.0)):  # not integers, though one is integral
        with pytest.raises(TypeError, match="resolution"):
            husimi_q(vacuum(3), resolution=resolution)


@pytest.mark.parametrize("half_width", [0.0, -3.0, math.nan, math.inf])
def test_husimi_refuses_a_half_width_that_is_not_finite_and_positive(half_width):
    with pytest.raises(ValueError, match="half_width"):
        husimi_q(vacuum(3), half_width=half_width, resolution=5)


def test_default_half_width_grows_with_occupation():
    assert default_half_width(0.0) == 2.0
    assert default_half_width(10.0) > default_half_width(5.0)


def test_write_grid_csv_and_matrix(tmp_path):
    grid = husimi_q(vacuum(4), half_width=2.0, resolution=5)
    csv_path, qmat_path = tmp_path / "grid.csv", tmp_path / "grid.qmat"
    write_grid(grid, csv_path, qmat_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,p,Q"
    assert len(lines) == 1 + 25
    x, p, q = map(float, lines[1].split(","))
    assert (x, p) == (-2.0, -2.0)
    assert abs(q - grid.values[0, 0]) < 1e-12 * max(grid.values[0, 0], 1.0)
    lines = qmat_path.read_text().strip().splitlines()
    header = json.loads(lines[0].lstrip("# "))
    assert header["window"] == [-2.0, 2.0, -2.0, 2.0]
    assert header["resolution"] == [5, 5]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.allclose(rows, grid.values, atol=1e-12)


def write_grid_csv(grid, path):
    """The reference CSV writer, one file per pass: one (x, p, Q) row per grid
    point, x-major."""
    with open(path, "w", newline="") as fh:
        fh.write("x,p,Q\n")
        for xv, row in zip(grid.x, grid.values):
            for pv, q in zip(grid.p, row):
                fh.write(f"{xv:.12g},{pv:.12g},{q:.12g}\n")


def write_grid_matrix(grid, path):
    """The reference dense-matrix writer: a JSON header line, then one x-row
    of Q per line."""
    header = {
        "window": [float(grid.x[0]), float(grid.x[-1]), float(grid.p[0]), float(grid.p[-1])],
        "resolution": [len(grid.x), len(grid.p)],
        "row_axis": "x",
        "col_axis": "p",
    }
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        for row in grid.values:
            fh.write(",".join(f"{q:.12g}" for q in row) + "\n")


# grids whose files write_grid must reproduce byte for byte
WRITER_GRIDS = {
    "vacuum-5x5": lambda: husimi_q(vacuum(4), half_width=2.0, resolution=5),
    "nu5-tau1/4-201x201": lambda: husimi_q(evolved(5.0, 0, 0.25)),
    "nu5-tau1/7-201x201": lambda: husimi_q(evolved(5.0, 0, 1 / 7)),
    "zeros-tiny-negative-axes": lambda: PhaseSpaceGrid(
        np.array([-3.5, -2.0, -1e-300]), np.array([-7.25, -0.0, 0.0, 1e-300]),
        np.array([[0.0, 1e-300, INV_PI, 0.0], [1e-300, 0.0, 0.0, 2.5e-17],
                  [0.0, 0.0, 0.0, 0.0]])),
}


@pytest.mark.parametrize("case", sorted(WRITER_GRIDS))
def test_write_grid_matches_the_reference_writers(tmp_path, case):
    grid = WRITER_GRIDS[case]()
    write_grid(grid, tmp_path / "one.csv", tmp_path / "one.qmat")
    write_grid_csv(grid, tmp_path / "ref.csv")
    write_grid_matrix(grid, tmp_path / "ref.qmat")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "one.qmat").read_bytes() == (tmp_path / "ref.qmat").read_bytes()


# every float the writers may meet: finite ones, signed zeros, subnormals,
# infinities and nan
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf,
                               math.nan])
ANY_FLOAT = st.one_of(st.floats(allow_nan=True, allow_infinity=True), EDGE_FLOATS)


@st.composite
def writer_grids(draw):
    nx, npts = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    x = draw(st.lists(ANY_FLOAT, min_size=nx, max_size=nx))
    p = draw(st.lists(ANY_FLOAT, min_size=npts, max_size=npts))
    values = draw(st.lists(ANY_FLOAT, min_size=nx * npts, max_size=nx * npts))
    return PhaseSpaceGrid(np.array(x), np.array(p), np.array(values).reshape(nx, npts))


@settings(max_examples=60, deadline=None)
@given(grid=writer_grids())
def test_write_grid_matches_the_reference_writers_on_any_floats(tmp_path_factory, grid):
    tmp_path = tmp_path_factory.mktemp("writers")
    write_grid(grid, tmp_path / "one.csv", tmp_path / "one.qmat")
    write_grid_csv(grid, tmp_path / "ref.csv")
    write_grid_matrix(grid, tmp_path / "ref.qmat")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "one.qmat").read_bytes() == (tmp_path / "ref.qmat").read_bytes()


def test_write_grid_holds_one_row_at_a_time(tmp_path):
    """A 501^2 grid written row by row peaks far under the ~8 MB that its
    values would take as one Python list."""
    axis = np.linspace(-5.0, 5.0, 501)
    grid = PhaseSpaceGrid(axis, axis, np.random.default_rng(0).random((501, 501)) / math.pi)
    tracemalloc.start()
    try:
        write_grid(grid, tmp_path / "grid.csv", tmp_path / "grid.qmat")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_husimi_q_holds_one_block_beside_the_map():
    """At 1001^2 the map is built 16 rows at a time: the peak is the returned
    grid and the copy PhaseSpaceGrid makes (8 MB each), where two full complex
    grids once took it to 38 MB."""
    state = evolved(5.0, 0, 0.5)
    tracemalloc.start()
    try:
        husimi_q(state, resolution=1001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_grid_does_not_change_with_the_arrays_it_was_built_from():
    """A grid copies a caller's arrays, even a read-only view of a writable
    one, so writing to them later leaves it as it was."""
    x = np.linspace(-1.0, 1.0, 3)
    values = np.arange(9.0).reshape(3, 3)
    view = values.T
    view.setflags(write=False)
    grids = [PhaseSpaceGrid(x, x, values), PhaseSpaceGrid(x, x, view)]
    values[0, 0] = x[0] = 100.0
    for grid in grids:
        assert grid.values[0, 0] == 0.0 and grid.x[0] == -1.0
        assert not grid.values.flags.writeable


def whole_grid_husimi_q(amplitudes, half_width, resolution):
    """Q by one Horner pass over the whole grid, holding both full complex
    grids: the map that the blocked pass must reproduce bit for bit."""
    x = p = np.linspace(-half_width, half_width, resolution)
    coeff = amplitudes * np.exp(-0.5 * log_factorials(len(amplitudes)))
    z = (x[:, None] - 1j * p[None, :]) / math.sqrt(2.0)
    acc = np.zeros_like(z)
    for c in coeff[::-1]:
        acc *= z
        acc += c
    q = np.abs(z) ** 2
    np.exp(-q, out=q)
    q *= np.abs(acc) ** 2
    q /= math.pi
    return q


# r <= 128 is one block, 201 is two of 81 rows and a short one of 39, and
# 300 is five of 54 rows and a short one of 30
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 60), r=st.integers(2, 300),
       half_width=st.floats(0.5, 10.0))
@example(seed=0, d=42, r=201, half_width=6.0)
@example(seed=1, d=60, r=300, half_width=10.0)
@example(seed=2, d=1, r=2, half_width=0.5)
def test_blocked_husimi_q_is_the_whole_grid_pass(seed, d, r, half_width):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    got = husimi_q(c, half_width=half_width, resolution=r).values
    assert np.array_equal(got, whole_grid_husimi_q(c, half_width, r))


def test_grid_shape_validation():
    x = np.linspace(-1, 1, 4)
    with pytest.raises(ValueError):
        PhaseSpaceGrid(x, x, np.zeros((3, 4)))


# normalization() needs a spacing on each axis, and write_grid a window
@pytest.mark.parametrize("nx,npts,message", [(1, 4, "x must have at least 2 points, got 1"),
                                             (4, 1, "p must have at least 2 points, got 1"),
                                             (0, 0, "x must have at least 2 points, got 0")],
                         ids=["one-x", "one-p", "empty"])
def test_grid_refuses_an_axis_of_fewer_than_two_points(nx, npts, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PhaseSpaceGrid(np.zeros(nx), np.zeros(npts), np.zeros((nx, npts)))


def test_husimi_q_refuses_a_grid_over_the_cap():
    with pytest.raises(InfeasibleScenarioError, match="100000 x 100000"):
        husimi_q(np.array([1.0 + 0j]), resolution=10**5)
    with pytest.raises(InfeasibleScenarioError, match="Husimi grid needs a 101 x 101"):
        husimi_q(vacuum(3), resolution=101, dim_cap=100)
    assert husimi_q(vacuum(3), resolution=100, dim_cap=100).values.shape == (100, 100)


def test_husimi_q_refuses_a_non_finite_map():
    """Past about 230 mean photons the Horner pass overflows: at nu = 300
    (436 levels) the map once held 784 NaN pixels out of 101^2."""
    state = kerr_evolve(build_initial_state(InitialStateSpec(nu=300.0)), 0.5)
    with pytest.raises(InfeasibleScenarioError,
                       match="436-level state gave a non-finite result$"):
        husimi_q(state, resolution=101)


def test_normalization_refuses_a_mass_that_overflows():
    """A window of half-width 1e155 gives a finite vacuum map whose pixel
    area, dx * dp, overflows; the mass once read inf."""
    grid = husimi_q(build_initial_state(InitialStateSpec(nu=0.0)), half_width=1e155,
                    resolution=3)
    assert np.isfinite(grid.values).all()
    with pytest.raises(InfeasibleScenarioError, match="normalization gave a non-finite result$"):
        grid.normalization()


# each once gave numpy's unnamed TypeError, an all-zero grid, a NaN grid or
# an overflow warning
@pytest.mark.parametrize("amplitudes", [np.ones((2, 2)), np.array([]), [math.nan, 1.0],
                                        np.zeros(3), np.full(2, 1e300)],
                         ids=["2-d", "empty", "nan", "zeros", "norm-overflows"])
def test_husimi_q_names_bad_amplitudes(amplitudes):
    with pytest.raises(ValueError, match="amplitudes"):
        husimi_q(amplitudes, resolution=5)

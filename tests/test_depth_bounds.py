"""Certified bounds on simplicial depth, and the depth p-values built on them.

``p_multi`` and ``p_multi_max`` compute exact depths only where the bounds of
``depth._CheckedCloud.bounds`` on the replicates cannot decide.  The
reference below computes every replicate's exact depth, as both functions
did before the screen; the two must agree bit for bit.
"""

import contextlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdsupport import (
    PART2_COV,
    ExperimentSpec,
    Halfspace,
    PointSet,
    QuadrantComplement,
    Rectangle,
    bootstrap_cloud,
    p_multi,
    p_multi_max,
    run_experiment,
)
from cdsupport import depth as depth_module
from cdsupport import predicates
from cdsupport.cli import load_region_config, main
from cdsupport.depth import (
    _TIGHT_SPANS,
    MULTI_METHODS,
    SECTORS,
    MultiPValue,
    _count_bounds,
    _edge_clear,
    _grid_box,
    _sector_histograms,
    _simplicial_counts,
    check_region_dim,
    depth_of,
)
from cdsupport.simulate import parallel_map_indexed
from helpers import pair_offsets, sector_histograms_direct, subtracting_directly

# -- the all-depths reference ---------------------------------------------------


def reference_p_multi(cloud, kind, region, depths=None):
    """Inside fraction plus the outside fraction at or below the floor, from
    the exact depth of every replicate."""
    pts = np.atleast_2d(cloud.points if hasattr(cloud, "points") else cloud)
    check_region_dim(region, pts.shape[1])
    inside = region.contains(pts)
    depths = depth_of(pts, pts, kind) if depths is None else depths
    esp = float(inside.mean())
    if inside.any():
        floor = float(depths[inside].min())
        source = "inside-replicates"
    else:
        grid = region.boundary_grid(*_grid_box(pts))
        floor = float(depth_of(pts, grid, kind).min())
        source = "boundary-grid"
    tail = float(((~inside) & (depths <= floor)).mean())
    return MultiPValue(
        p=min(esp + tail, 1.0), esp=esp, tail=tail, depth_floor=floor, floor_source=source
    )


def reference_p_multi_max(cloud, kind, region):
    pts = np.atleast_2d(cloud.points if hasattr(cloud, "points") else cloud)
    depths = depth_of(pts, pts, kind)
    base = reference_p_multi(pts, kind, region, depths=depths)
    corner_depths = depth_of(pts, region.corners, kind)
    corner_p = tuple(float((depths <= d).mean()) for d in corner_depths)
    return replace(base, p=max(base.p, *corner_p), corner_p=corner_p)


# the regions and methods of scripts/run_part2.py, and one no region reaches
PART2_REGIONS = {
    "a_interior": (Rectangle(lower=[-1, -1], upper=[1, 1]), ("multi",)),
    "b_smooth_boundary": (Rectangle(lower=[-1, -4], upper=[0, 4]), ("multi",)),
    "c_concave": (QuadrantComplement(corner=[0.0, 0.0]), ("multi",)),
    "d_corner": (Rectangle(lower=[-1, -4], upper=[0, 0],
                           corners=[[0, 0], [0, -4], [-1, -4], [-1, 0]]), ("multi", "multi-max")),
    "e_small_box": (Rectangle(lower=[-0.1, -0.1], upper=[0.1, 0.1]), ("multi", "multi-max")),
    "far_box": (Rectangle(lower=[5, 5], upper=[6, 6]), ("multi", "multi-max")),
}
CASES = [(name, method) for name, (_, methods) in PART2_REGIONS.items() for method in methods]


def part2_cloud(rep, m=400, n=200):
    rng = np.random.default_rng([9, rep, 0])
    data = rng.standard_normal((n, 2)) @ np.linalg.cholesky(PART2_COV).T
    return bootstrap_cloud(data, m, seed=[9, rep, 1])


# workers: the replications computed at once, as by ``run_experiment``'s workers
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["simplicial", "mahalanobis"])
@pytest.mark.parametrize("name,method", CASES)
def test_p_values_equal_the_all_depths_reference(name, method, kind, workers):
    region = PART2_REGIONS[name][0]
    clouds = [part2_cloud(rep) for rep in range(3)]
    p_value, reference = ((p_multi, reference_p_multi) if method == "multi"
                          else (p_multi_max, reference_p_multi_max))
    got = parallel_map_indexed(lambda rep: p_value(clouds[rep], kind, region), 3, workers)
    assert got == [reference(cloud, kind, region) for cloud in clouds]
    sources = {res.floor_source for res in got}
    assert sources == ({"boundary-grid"} if name == "far_box" else {"inside-replicates"})


@pytest.mark.parametrize("kind", ["simplicial", "mahalanobis"])
@pytest.mark.parametrize("name", ["e_small_box", "far_box"])
def test_given_depths_equal_the_reference(name, kind):
    region = PART2_REGIONS[name][0]
    cloud = part2_cloud(5)
    depths = depth_of(cloud, cloud.points, kind)
    got = p_multi(cloud, kind, region, _depths=depths)
    assert got == reference_p_multi(cloud, kind, region, depths=depths)
    assert got == p_multi(cloud, kind, region)


@st.composite
def grid_floor_cases(draw):
    """A cloud of 20..300 points, a region that holds none of them, and
    whether the region lies inside the cloud's hull, so that its simplicial
    floor is positive.

    Clouds: Gaussian, scaled per axis; integer lattice; few distinct points,
    many repeated.  Regions: a rectangle beyond the cloud, or a tiny one
    between two of its points; a halfspace or a quadrant complement just
    short of the cloud; a point set of the cloud's mean, inside its hull,
    alone or with a far point.  Corners: the region's own, or the cloud's
    mean and the first point of the boundary grid.
    """
    m = draw(st.integers(20, 300))
    shape = draw(st.sampled_from(["gaussian", "lattice", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "lattice":
        pts = rng.integers(-4, 5, size=(m, 2)).astype(float)
    elif shape == "duplicates":
        base = rng.standard_normal((max(5, m // 8), 2))
        pts = base[rng.integers(0, base.shape[0], size=m)]
    else:
        pts = rng.standard_normal((m, 2)) * rng.uniform(0.5, 2.0, size=2)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    width, mean = hi - lo, pts.mean(axis=0)
    gap = draw(st.sampled_from([1e-9, 0.1, 2.0]))
    which = draw(st.sampled_from(["box-beyond", "box-between", "halfspace", "quadrant",
                                  "mean", "mean-and-far"]))
    normal = rng.standard_normal(2)
    i, j = rng.integers(0, m, size=2)

    def make(corners):
        if which == "box-beyond":
            x0 = hi[0] + gap * width[0]
            return Rectangle(lower=[x0, lo[1]], upper=[x0 + width[0], hi[1]], corners=corners)
        if which == "box-between":
            centre = (pts[i] + pts[j]) / 2
            return Rectangle(lower=centre - 1e-6 * width, upper=centre + 1e-6 * width,
                             corners=corners)
        if which == "halfspace":
            dots = pts @ normal
            return Halfspace(normal=normal, offset=dots.min() - gap * np.ptp(dots),
                             corners=corners)
        if which == "quadrant":
            return QuadrantComplement(corner=lo - gap * width, corners=corners)
        far = [mean] if which == "mean" else [mean, hi + 3 * width]
        return PointSet(points=far, corners=corners)

    region = make(None)
    if region.corners.size == 0 or draw(st.booleans()):
        region = make([mean, region.boundary_grid(*_grid_box(pts))[0]])
    assume(not region.contains(pts).any())
    return pts, region, which == "mean"


@given(grid_floor_cases())
@settings(max_examples=150, deadline=None)
def test_boundary_grid_floor_equals_the_exact_reference(case):
    pts, region, in_hull = case
    for kind in ("simplicial", "mahalanobis"):
        for p_value, reference in ((p_multi, reference_p_multi),
                                   (p_multi_max, reference_p_multi_max)):
            got = p_value(pts, kind, region)
            assert astuple(got) == astuple(reference(pts, kind, region))
            assert got.floor_source == "boundary-grid"
            assert got.depth_floor > 0.0 or not in_hull


@pytest.mark.parametrize("m", [150, 2000])
def test_bootstrap_cloud_at_the_oneshot_box(m):
    box = Rectangle(lower=[-0.1, -0.2], upper=[0.1, 0.2])
    data = np.random.default_rng(10).standard_normal((200, 2)) @ np.linalg.cholesky(PART2_COV).T
    cloud = bootstrap_cloud(data, m, seed=11)
    assert p_multi(cloud, "simplicial", box) == reference_p_multi(cloud, "simplicial", box)
    assert p_multi_max(cloud, "simplicial", box) == reference_p_multi_max(
        cloud, "simplicial", box)


# -- the screen does its job ------------------------------------------------------


@pytest.fixture
def exact_queries(monkeypatch):
    """Number of queries given to each exact-depth evaluation of a checked
    cloud; the p-values reach exact depths only through it."""
    calls = []
    real = depth_module._CheckedCloud.depths

    def counting(self, q):
        calls.append(q.shape[0])
        return real(self, q)

    monkeypatch.setattr(depth_module._CheckedCloud, "depths", counting)
    return calls


def test_p_multi_settles_few_replicates(exact_queries):
    # no replicate inside the small box is a hull vertex, so the screen decides
    cloud = part2_cloud(0, m=2000)
    region = PART2_REGIONS["e_small_box"][0]
    want = reference_p_multi(cloud, "simplicial", region)
    exact_queries.clear()
    assert p_multi(cloud, "simplicial", region) == want
    # one call for the floor candidates, one for replicates straddling the floor
    assert len(exact_queries) == 2 and sum(exact_queries) < 2000 // 20


def test_p_multi_max_settles_a_third_of_the_straddlers(exact_queries):
    # 540 replicates straddle a corner depth or the floor; the edge-checked
    # tight spans decide all but 167 of them
    cloud = part2_cloud(0, m=2000)
    region = PART2_REGIONS["e_small_box"][0]
    want = reference_p_multi_max(cloud, "simplicial", region)
    exact_queries.clear()
    assert p_multi_max(cloud, "simplicial", region) == want
    # the corners, the floor candidates, the straddlers
    assert len(exact_queries) == 3 and exact_queries[0] == 4
    assert sum(exact_queries[1:]) < 200


def oneshot_box_cloud(i=7, m=2000):
    """The cloud and box of query ``i`` of the benchmark's one-shot mix at
    seed 1, its first ``pval2d --depth simplicial`` query (``query_input``)."""
    rng = np.random.default_rng([1, i])
    seed = int(rng.integers(2**31))
    data = rng.standard_normal((200, 2)) @ np.linalg.cholesky(PART2_COV).T
    return bootstrap_cloud(data, m, seed=seed), Rectangle(lower=[-0.1, -0.2], upper=[0.1, 0.2])


def test_oneshot_box_sends_few_replicates_to_the_kernel(exact_queries):
    # 444 replicates before the tight spans, 131 with them
    cloud, box = oneshot_box_cloud()
    want = reference_p_multi_max(cloud, "simplicial", box)
    exact_queries.clear()
    assert p_multi_max(cloud, "simplicial", box) == want
    assert exact_queries[0] == 4 and sum(exact_queries[1:]) <= 140


# replicate rows given exact depths over the 50 runs of the seed-1 ``mc_biv``
# multi-max cases, with the wide spans alone
WIDE_SPAN_ROWS = {"d_corner": 2843, "e_small_box": 5410}


@pytest.mark.parametrize("name", sorted(WIDE_SPAN_ROWS))
def test_mc_biv_multi_max_settles_under_two_fifths(name, exact_queries):
    spec = ExperimentSpec(model="bivariate-normal", true_mean=(0.0, 0.0),
                          region=PART2_REGIONS[name][0], n=200, reps=50, method="multi-max",
                          depth="simplicial", boot_m=500, seed=1)
    run_experiment(spec, threads=1)
    corners = 4 * spec.reps  # each run's corner depths: one call of 4 queries
    assert exact_queries.count(4) >= spec.reps
    assert sum(exact_queries) - corners <= 0.4 * WIDE_SPAN_ROWS[name]


# -- the bounds bracket the kernel's count ----------------------------------------


def screen_bounds(pts, kind="simplicial"):
    """The screen's bounds on the depths of a cloud's own points."""
    return depth_module._CheckedCloud.check(pts, kind).bounds()[:2]


@st.composite
def bounds_cases(draw):
    """A cloud of 3..120 points and queries on and off its points.

    Shapes: Gaussian; integer lattice; few distinct points, many repeated;
    a lattice cloud symmetric about the origin; all on one line; a line
    jittered by 1e-15; and Gaussian clouds scaled by 1e-300 or 1e300.
    """
    m = draw(st.integers(3, 120))
    shape = draw(st.sampled_from(
        ["gaussian", "lattice", "duplicates", "symmetric", "line", "near-line", "tiny", "huge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "lattice":
        pts = rng.integers(-4, 5, size=(m, 2)).astype(float)
    elif shape == "symmetric":  # exact antipodes through the mean
        half = rng.integers(-4, 5, size=((m + 1) // 2, 2)).astype(float)
        pts = np.vstack([half, -half])[:m]
    elif shape == "duplicates":
        base = rng.integers(-4, 5, size=(max(1, m // 8), 2)).astype(float)
        pts = base[rng.integers(0, base.shape[0], size=m)]
    elif shape in ("line", "near-line"):
        pts = rng.standard_normal((m, 1)) * rng.standard_normal(2) + rng.standard_normal(2)
        if shape == "near-line":
            pts = pts + 1e-15 * rng.standard_normal((m, 2))
    else:
        pts = rng.standard_normal((m, 2)) * {"gaussian": 1.0, "tiny": 1e-300, "huge": 1e300}[shape]
    scale = np.abs(pts).max() or 1.0
    queries = np.vstack([
        pts[rng.integers(0, m, size=5)],
        rng.standard_normal((4, 2)) * scale,
        pts.mean(axis=0),
        [0.0, 0.0],
        # sees that point at (scale, -scale * 1e-20), whose diamond angle rounds to 4
        pts[rng.integers(0, m)] + [-scale, scale * 1e-20],
    ])
    return pts, queries


@given(bounds_cases())
@settings(max_examples=300, deadline=None)
def test_bounds_bracket_the_kernel_count(case):
    pts, queries = case
    # the hard queries join the cloud: the screen bounds only a cloud's own points
    cloud = np.vstack([pts, queries])
    counts = _simplicial_counts(cloud, cloud)
    lo, hi = _count_bounds(_sector_histograms(cloud), cloud.shape[0]).T
    assert (lo <= counts).all() and (counts <= hi).all()
    lo_d, hi_d = screen_bounds(cloud)
    exact = depth_of(cloud, cloud, "simplicial")
    assert (lo_d <= exact).all() and (exact <= hi_d).all()
    # no lower bound, wide or tight, is below the least depth of a cloud point
    least = depth_module._least_depth(cloud.shape[0])
    assert (lo_d >= least).all()
    # the rows that pass the edge check, of every shape: tight spans bracket too
    hist = _sector_histograms(cloud)
    clear = np.flatnonzero(_edge_clear(cloud, np.arange(cloud.shape[0])))
    tight_lo, tight_hi = _count_bounds(hist[clear], cloud.shape[0], _TIGHT_SPANS).T
    assert (tight_lo <= counts[clear]).all() and (counts[clear] <= tight_hi).all()
    wide = _count_bounds(hist[clear], cloud.shape[0])
    assert (tight_lo >= wide[:, 0]).all() and (tight_hi <= wide[:, 1]).all()
    # from the rows the screen returns
    checked = depth_module._CheckedCloud.check(cloud, "simplicial")
    *_, rows = checked.bounds()
    idx, lo_t, hi_t = checked.tight_bounds(clear, rows)
    assert np.array_equal(idx, clear)
    assert (lo_t <= exact[idx]).all() and (exact[idx] <= hi_t).all()
    assert (lo_t >= least).all()


def test_most_gaussian_rows_pass_the_edge_check():
    pts = np.random.default_rng(14).standard_normal((500, 2))
    clear = _edge_clear(pts, np.arange(500))
    assert clear.mean() > 0.95
    counts = _simplicial_counts(pts, pts[clear])
    hist = _sector_histograms(pts)[clear]
    lo, hi = _count_bounds(hist, 500, _TIGHT_SPANS).T
    assert (lo <= counts).all() and (counts <= hi).all()
    # tighter than the wide spans on most rows
    assert (hi - lo).sum() < 0.5 * np.diff(_count_bounds(hist, 500)).sum()


@pytest.mark.parametrize("offset,passes", [
    ([1.0, 0.0], False), ([0.0, -2.0], False),  # axis-aligned: r = +-1, 0
    ([1.0, 1.0], False), ([1.0, 3.0], False),  # r = 1 / 2, 1 / 4: sector edges
    ([0.0, 0.0], False),  # a repeated position: r is NaN
    # 32 r = 16 - 2^-37 and 16 - 2^-17: within the margin 2^-30 of an edge, and not
    ([1.0, 1.0 + 2.0 ** -40], False), ([1.0, 1.0 + 2.0 ** -20], True),
    ([1.0, 2.0], True), ([0.3, 0.7], True),  # r = 1 / 3, 0.3: inside sectors
])
def test_edge_check_fails_directions_on_sector_edges(offset, passes):
    pts = np.array([[0.1, 0.2], [-0.73, 0.91], [0.47, -1.31], [5.3, 7.1]])
    pts = np.vstack([pts, pts[0] + offset])
    assert _edge_clear(pts, np.array([0]))[0] == passes
    assert _edge_clear(pts, np.array([1, 2])).all()


def test_edge_check_of_a_cloud_longer_than_a_chunk():
    # each point's row of m directions is longer than a chunk
    m = depth_module.CHUNK_PAIRS + 256
    pts = np.random.default_rng(15).standard_normal((m, 2))
    pts[m - 1] = pts[0] + [1.0, 1.0]  # on a sector edge from point 0
    pts[m - 2] = pts[3]  # a repeated position
    assert _edge_clear(pts, np.array([0, 7])).tolist() == [False, True]
    assert _edge_clear(pts, np.array([3])).tolist() == [False]
    # the row of a point is kept under the one cap of every kept buffer
    assert depth_module._KEPT.work.nbytes <= depth_module._KEPT_MAX


def test_p_multi_max_on_a_cloud_longer_than_a_chunk(exact_queries, monkeypatch):
    # with the chunk cut to SMALL_CHUNK pairs, and on a fresh thread whose
    # kept buffers start that short, 300 replicates are more than a chunk
    cloud, box = oneshot_box_cloud(m=300)
    want = reference_p_multi_max(cloud, "simplicial", box)
    exact_queries.clear()
    checked = []
    real = depth_module._edge_clear

    def edge_clear(pts, idx):
        checked.append(idx.size)
        return real(pts, idx)

    monkeypatch.setattr(depth_module, "_edge_clear", edge_clear)
    monkeypatch.setattr(depth_module, "CHUNK_PAIRS", SMALL_CHUNK)
    with ThreadPoolExecutor(max_workers=1) as pool:
        got = pool.submit(p_multi_max, cloud, "simplicial", box).result()
    assert got == want
    # the tight spans decided some straddlers
    assert checked[0] > sum(exact_queries[2:])


def test_edge_check_fails_an_overflowing_direction_sum():
    pts = np.array([[0.8e308, 0.8e308], [-0.8e308, -0.8e308], [0.1e308, -0.2e308],
                    [-0.1e308, 0.15e308]])
    assert _edge_clear(pts, np.arange(4)).tolist() == [False, False, True, True]


# (query, point) pairs of a chunk in the self-screen tests below: tiles of 7 points
SMALL_CHUNK = 49


@given(bounds_cases())
@settings(max_examples=300, deadline=None)
def test_self_screen_bounds_bracket_the_kernel_count(case):
    pts, _ = case
    m = pts.shape[0]
    counts = _simplicial_counts(pts, pts)
    direct = sector_histograms_direct(pts, pts)  # every ordered pair computed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(depth_module, "CHUNK_PAIRS", SMALL_CHUNK)
        hist = _sector_histograms(pts)
        lo_d, hi_d = screen_bounds(pts)
    lo, hi = _count_bounds(hist, m).T
    assert (lo <= counts).all() and (counts <= hi).all()
    assert (hist.sum(axis=1) == m).all()
    assert np.array_equal(hist[:, SECTORS + 1], direct[:, SECTORS + 1])
    exact = counts / math.comb(m, 3)
    assert (lo_d <= exact).all() and (exact <= hi_d).all()


# signed zeros: from (0, 0) the point (1, -0.0) is at dy = -0.0, so t = 4 (code
# SECTORS), and the way back is at dy = +0.0, t = 2 (sector H)
SIGNED_ZEROS = np.array([[0.0, 0.0], [1.0, -0.0], [2.0, 0.0], [-0.0, -0.0], [0.5, -0.0],
                         [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [3.0, -0.0], [-2.0, -0.0]])


def wrapped_codes(pts):
    """Per query, how many of its directions get code ``SECTORS``."""
    m = pts.shape[0]
    args = (depth_module._lefts(pts), depth_module._rights(pts), pair_offsets(m, m),
            np.empty((4, m * m)))
    return (depth_module._sector_codes(*args) % depth_module._WIDTH == SECTORS).sum(axis=1)


@pytest.mark.parametrize("chunk", [4, SMALL_CHUNK, depth_module.CHUNK_PAIRS])
def test_self_screen_reverses_the_wrapped_code(chunk, monkeypatch):
    pts = SIGNED_ZEROS
    hists = []
    # the matrix product gives dy = +0.0 where the subtraction gives -0.0
    # for (1, -0.0), (0.5, -0.0) and (3, -0.0) from (0, 0): that swaps code
    # SECTORS and code 0, which count as one sector
    for differences, wrapped in ((contextlib.nullcontext(), 0), (subtracting_directly(), 3)):
        with differences:
            assert wrapped_codes(pts)[0] == wrapped
            direct = sector_histograms_direct(pts, pts)  # every ordered pair computed
            with monkeypatch.context() as patch:
                patch.setattr(depth_module, "CHUNK_PAIRS", chunk)
                hist = _sector_histograms(pts)
        # exact coordinates: every reverse code equals the code computed directly
        assert np.array_equal(hist, direct)
        # (3, -0.0) sees the other 7 points on the x axis at t = 2
        assert hist[0, 0] == 4 and hist[8, SECTORS // 2] == 7
        counts = _simplicial_counts(pts, pts)
        lo, hi = _count_bounds(hist, pts.shape[0]).T
        assert (lo <= counts).all() and (counts <= hi).all()
        hists.append(hist)
    assert np.array_equal(*hists)


@st.composite
def exactness_cases(draw):
    """A cloud of 4..120 points where a rounded or flushed difference would
    show, and queries on and off its points.

    Shapes: subnormal (integers times 5e-324, and N(0, 1) times 1e-310);
    coordinates of -1, -0.0, +0.0 and 1; N(0, 1) times 1e300; N(0, 1)
    offset by 1e15; an integer lattice; few distinct points, many repeated.
    """
    m = draw(st.integers(4, 120))
    shape = draw(st.sampled_from(["subnormal-int", "subnormal-gauss", "signed-zero", "huge",
                                  "offset", "lattice", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "subnormal-int":
        pts = rng.integers(-40, 41, size=(m, 2)) * 5e-324
    elif shape == "subnormal-gauss":
        pts = rng.standard_normal((m, 2)) * 1e-310
    elif shape == "signed-zero":
        pts = np.array([-1.0, -0.0, 0.0, 1.0])[rng.integers(0, 4, size=(m, 2))]
    elif shape == "huge":
        pts = rng.standard_normal((m, 2)) * 1e300
    elif shape == "offset":
        pts = rng.standard_normal((m, 2)) + 1e15
    elif shape == "lattice":
        pts = rng.integers(-4, 5, size=(m, 2)).astype(float)
    else:
        pts = rng.standard_normal((max(1, m // 8), 2))[rng.integers(0, max(1, m // 8), size=m)]
    far = pts[rng.integers(0, m, size=4)] + rng.standard_normal((4, 2)) * np.ptp(pts, axis=0)
    queries = np.vstack([pts[rng.integers(0, m, size=6)], far, -pts[:2]])
    return pts, queries


@given(exactness_cases())
@settings(max_examples=200, deadline=None)
def test_products_give_the_subtraction_results(case):
    pts, queries = case

    def screen_and_kernel():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(depth_module, "CHUNK_PAIRS", SMALL_CHUNK)
            tiled = _sector_histograms(pts)
        return (_sector_histograms(pts), tiled, sector_histograms_direct(pts, queries),
                _simplicial_counts(pts, queries))

    got = screen_and_kernel()
    with subtracting_directly():
        want = screen_and_kernel()
    for mine, reference in zip(got, want):
        assert np.array_equal(mine, reference)
    # no difference of distinct points was flushed to zero: a point is at
    # the query exactly when it equals the query
    at_query = (pts[None, :, :] == queries[:, None, :]).all(axis=2).sum(axis=1)
    assert np.array_equal(got[2][:, SECTORS + 1], at_query)


def test_diamond_angle_four_wraps_to_sector_zero():
    # seen from the origin, (1, -1e-20) has r = 1 / (1 + 1e-20) = 1, so t = 3 + r = 4
    pts = np.array([[1.0, -1e-20], [1.0, 1e-20], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    hist = sector_histograms_direct(pts, np.zeros((1, 2)))
    assert hist.shape == (1, SECTORS + 2)
    assert hist[0, 0] == 3 and hist[0, SECTORS] == 0  # t = 4 is counted as sector 0
    assert hist[0, SECTORS // 2] == 1 and hist[0, SECTORS + 1] == 1
    lo, hi = _count_bounds(hist, pts.shape[0])[0]
    assert lo <= _simplicial_counts(pts, np.zeros((1, 2)))[0] <= hi


def test_mahalanobis_bounds_are_the_depths():
    cloud = part2_cloud(2, m=200)
    lo, hi = screen_bounds(cloud.points, "mahalanobis")
    exact = depth_of(cloud, cloud.points, "mahalanobis")
    assert np.array_equal(lo, exact) and np.array_equal(hi, exact)


def test_far_point_bounds_are_exact():
    # each far point sees the others within a few sectors, so every triangle
    # of the others misses it: it has the least depth, and the bounds say so
    pts = np.vstack([np.random.default_rng(12).standard_normal((300, 2)),
                     [[50.0, 50.0], [0.0, -80.0]]])
    lo, hi = screen_bounds(pts)
    exact = depth_of(pts, pts, "simplicial")
    want = [least_depth(302)] * 2
    assert lo[-2:].tolist() == hi[-2:].tolist() == exact[-2:].tolist() == want


# -- coordinates whose range overflows ----------------------------------------------

# points at +-1e308 on both axes, (1, 1) and (1.5e308, 1.5e308): the range is
# infinite on both axes; the kernel gave 0.5 at the origin where enumeration gives 0.05
OVERFLOW_CLOUD = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308], [0.0, -1e308],
                           [1.0, 1.0], [1.5e308, 1.5e308]])


@pytest.mark.parametrize("kind", ["simplicial", "mahalanobis"])
@pytest.mark.parametrize("query", [[0.0, 0.0], [1e308, 1e308]])
def test_overflowing_range_is_rejected_by_name(kind, query):
    message = "^coordinate range overflows: cloud and query values on axis 0 differ by"
    with pytest.raises(ValueError, match=message):
        depth_of(OVERFLOW_CLOUD, [query], kind)
    with pytest.raises(ValueError, match=message):
        screen_bounds(np.vstack([OVERFLOW_CLOUD, [query]]), kind)
    box = Rectangle(lower=[-1.0, -1.0], upper=[2.0, 2.0])
    for p_value in (p_multi, p_multi_max):
        with pytest.raises(ValueError, match=message):
            p_value(OVERFLOW_CLOUD, kind, box)


def test_query_alone_can_overflow_the_range():
    # every cloud coordinate is at least 1e307, so y spans more than 1.8e308
    cloud = (np.random.default_rng(13).standard_normal((30, 2)) ** 2 + 1.0) * 1e307
    with pytest.raises(ValueError, match="on axis 1 differ"):
        depth_of(cloud, [[0.0, -1.7e308]], "simplicial")


def test_overflowing_direction_sums_get_exact_depths():
    # each axis spans 1.6e308, a finite range, but |dx| + |dy| overflows
    # between opposite corners: the sectors are not computed, and every
    # point's bounds are its exact depth
    pts = np.array([[0.8e308, 0.8e308], [-0.8e308, -0.8e308], [0.8e308, -0.8e308],
                    [-0.8e308, 0.8e308], [0.0, 0.0], [1.0, 2.0]])
    cloud = np.vstack([pts, [[0.1e308, -0.3e308]]])
    lo, hi = screen_bounds(cloud)
    exact = depth_of(cloud, cloud, "simplicial")
    assert np.array_equal(lo, exact) and np.array_equal(hi, exact)
    assert np.isfinite(exact).all()


@given(m=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_p_values_of_clouds_whose_direction_sums_overflow(m, seed):
    # the corners make each axis span 1.6e308, a finite range, while |dx| +
    # |dy| overflows between opposite corners; the boxes lie inside that range
    rng = np.random.default_rng(seed)
    corners = np.array([[0.8e308, 0.8e308], [-0.8e308, -0.8e308], [0.8e308, -0.8e308],
                        [-0.8e308, 0.8e308]])
    pts = np.vstack([corners, rng.uniform(-0.8, 0.8, size=(m, 2)) * 1e308])
    for _ in range(3):
        ends = np.sort(rng.uniform(-0.8, 0.8, size=(2, 2)) * 1e308, axis=0)
        box = Rectangle(lower=ends[0], upper=ends[1])
        assert astuple(p_multi(pts, "simplicial", box)) == astuple(
            reference_p_multi(pts, "simplicial", box))
        assert astuple(p_multi_max(pts, "simplicial", box)) == astuple(
            reference_p_multi_max(pts, "simplicial", box))


# -- one set of checks per p-value ------------------------------------------------


@pytest.fixture
def set_up_calls(monkeypatch):
    """Calls of ``_span`` (one per checked query set) and of the Mahalanobis
    factorisation."""
    calls = {"span": 0, "factors": 0}
    for key, name in (("span", "_span"), ("factors", "_mahalanobis_factors")):
        real = getattr(depth_module, name)

        def counting(*args, key=key, real=real):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(depth_module, name, counting)
    return calls


# region -> query sets checked: the replicates, the boundary grid, the corners
QUERY_SETS = {"d_corner": (1, 2), "far_box": (2, 3)}


@pytest.mark.parametrize("kind", ["simplicial", "mahalanobis"])
@pytest.mark.parametrize("name", sorted(QUERY_SETS))
def test_each_query_set_is_checked_once(name, kind, set_up_calls):
    cloud = part2_cloud(4, m=300)
    region = PART2_REGIONS[name][0]
    for p_value, sets in zip((p_multi, p_multi_max), QUERY_SETS[name]):
        set_up_calls.update(span=0, factors=0)
        p_value(cloud, kind, region)
        assert set_up_calls["span"] == sets
        assert set_up_calls["factors"] == (kind == "mahalanobis")


# the data of the precedence cases: a modest cloud, far from the largest float
# on axis 0 so that a query at 1.75e308 overflows the range
FAR_DATA = np.random.default_rng(14).standard_normal((20, 2)) * [1e305, 1.0] + [-5e306, 0.0]
LINE_DATA = np.outer(np.random.default_rng(15).standard_normal(20), [1.0, 2.0])
OVERFLOW = ("coordinate range overflows: cloud and query values on axis 0 differ by more "
            "than the largest float")
# (id, data, kind, region config, methods that raise, message)
PRECEDENCE = [
    ("grid-overflows", FAR_DATA, "simplicial",
     "shape = rectangle\nlo = 1.7e308, -1\nhi = 1.75e308, 1\n", ("multi", "multi-max"), OVERFLOW),
    ("corner-overflows", FAR_DATA, "simplicial",
     "shape = rectangle\nlo = -1e308, -5\nhi = 0, 5\ncorners = 1.75e308, 0\n",
     ("multi-max",), OVERFLOW),
    ("region-dimension", FAR_DATA, "mahalanobis",
     "shape = rectangle\nlo = 0, 0, 0\nhi = 1, 1, 1\n", ("multi", "multi-max"),
     "region dimension 3 differs from the cloud's 2"),
    ("singular-covariance", LINE_DATA, "mahalanobis",
     "shape = rectangle\nlo = 1.7e308, -1\nhi = 1.75e308, 1\ncorners = 1.75e308, 0\n",
     ("multi", "multi-max"), "degenerate cloud: covariance is singular or ill-conditioned"),
]


@pytest.mark.parametrize("data,kind,config,methods,message",
                         [case[1:] for case in PRECEDENCE], ids=[case[0] for case in PRECEDENCE])
def test_error_precedence_of_the_p_values(data, kind, config, methods, message, tmp_path,
                                          capsys):
    (tmp_path / "data.csv").write_text("".join(f"{a!r},{b!r}\n" for a, b in data.tolist()))
    (tmp_path / "region.cfg").write_text(config)
    region, _ = load_region_config(tmp_path / "region.cfg")
    cloud = bootstrap_cloud(data, 200, seed=1)
    for method in methods:
        with pytest.raises(ValueError) as info:
            MULTI_METHODS[method](cloud, kind, region)
        assert str(info.value) == message, method
    code = main(["pval2d", "--input", str(tmp_path / "data.csv"),
                 "--config", str(tmp_path / "region.cfg"), "--depth", kind,
                 "--boot-reps", "200", "--seed", "1"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "category": "validation", "message": message}


# -- the convex hull: the least depth without the screen ---------------------------


def least_depth(m):
    """C(m - 1, 2) / C(m, 3), the least simplicial depth of a cloud point, as
    the kernel's division gives it."""
    return (np.array([math.comb(m - 1, 2)]) / math.comb(m, 3))[0]


def hull_least(pts, inside=None):
    """``_CheckedCloud.least`` of a cloud's own points, every point inside
    unless said otherwise."""
    checked = depth_module._CheckedCloud.check(pts, "simplicial")
    inside = np.ones(checked.pts.shape[0], dtype=bool) if inside is None else inside
    return checked.least(inside)


@st.composite
def least_cases(draw):
    """A cloud of 4..300 points and a box that takes in, or misses, one of its
    outermost points.

    Shapes: Gaussian; Gaussian with its rightmost point duplicated; all on one
    line; integer lattice; a lattice cloud symmetric about the origin (exact
    antipodes); and Gaussian with three added hull vertices, the middle one
    1e-9 out of the edge between the other two, so its angle is nearly flat,
    or 1e-14 out, within the hull's margin.
    """
    m = draw(st.integers(4, 300))
    shape = draw(st.sampled_from(["gaussian", "duplicate-vertex", "line", "lattice",
                                  "antipodes", "flat-vertex", "margin-vertex"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "line":
        pts = rng.standard_normal((m, 1)) * rng.standard_normal(2) + rng.standard_normal(2)
    elif shape == "lattice":
        pts = rng.integers(-4, 5, size=(m, 2)).astype(float)
    elif shape == "antipodes":
        half = rng.integers(-4, 5, size=((m + 1) // 2, 2)).astype(float)
        pts = np.vstack([half, -half])[:m]
    else:
        pts = rng.standard_normal((m, 2))
    if shape == "duplicate-vertex":
        pts[rng.integers(0, m)] = pts[np.argmax(pts[:, 0])]
    elif shape in ("flat-vertex", "margin-vertex"):  # (10, 0), (0, 10), just out of the middle
        out = 1e-9 if shape == "flat-vertex" else 1e-14
        pts[:3] = [[10.0, 0.0], [0.0, 10.0], [5.0 + out, 5.0 + out]]
    angle = draw(st.floats(0.0, 2 * np.pi))
    centre = pts[np.argmax(pts @ [np.cos(angle), np.sin(angle)])]
    if draw(st.booleans()):  # miss the outermost point, but maybe not the cloud
        centre = centre - draw(st.sampled_from([0.05, 0.3, 1.0])) * (centre - pts.mean(axis=0))
    width = draw(st.sampled_from([1e-12, 0.01, 0.2, 1.0, 5.0]))
    return pts, Rectangle(lower=centre - width, upper=centre + width)


@given(least_cases())
@settings(max_examples=300, deadline=None)
def test_p_multi_through_the_hull_equals_the_reference(case):
    pts, region = case
    assert p_multi(pts, "simplicial", region) == reference_p_multi(pts, "simplicial", region)


@given(bounds_cases())
@settings(max_examples=300, deadline=None)
# m = 4, one point inside the triangle of the other three
@example((np.array([[-0.39530129, 0.26391489], [0.60712827, -0.9721598],
                    [0.76766425, 0.25505812], [0.78297987, 0.27241823]]), np.zeros((1, 2))))
def test_hull_finds_exactly_the_kernel_least_depths(case):
    pts, _ = case
    m = pts.shape[0]
    exact = depth_of(pts, pts, "simplicial")
    # every point is a vertex of the C(m - 1, 2) triangles through it
    assert (exact >= least_depth(m)).all()
    least = hull_least(pts)
    if least is None:
        assert m < 4 or not (exact == least_depth(m)).any()
    else:
        assert np.array_equal(least, exact == least_depth(m))


@pytest.mark.parametrize("shape", ["gaussian", "lattice", "duplicates", "line"])
def test_every_point_is_at_least_at_the_least_depth(shape):
    rng = np.random.default_rng(16)
    m = 200
    if shape == "gaussian":
        pts = rng.standard_normal((m, 2))
    elif shape == "lattice":
        pts = rng.integers(-3, 4, size=(m, 2)).astype(float)
    elif shape == "duplicates":
        pts = rng.standard_normal((20, 2))[rng.integers(0, 20, size=m)]
    else:
        pts = np.outer(rng.standard_normal(m), [1.0, -3.0]) + [0.5, 2.0]
    exact = depth_of(pts, pts, "simplicial")
    assert (exact >= least_depth(m)).all()
    least = hull_least(pts)
    if shape in ("gaussian", "line"):  # unique hull vertices, and the ends of the line
        assert least is not None
    if least is not None:
        assert np.array_equal(least, exact == least_depth(m))
    else:
        assert not (exact == least_depth(m)).any()


def test_next_count_is_above_the_least_depth_as_a_float():
    # so that a point certified above the least count is no floor candidate
    m = [*range(4, 20001), 10**5, 10**6, 3 * 10**6]
    least = np.array([math.comb(k - 1, 2) for k in m])
    total = np.array([math.comb(k, 3) for k in m])
    assert ((least + 1) / total > least / total).all()


def test_duplicated_inside_vertex_falls_back_to_the_screen():
    # the rightmost point is doubled, so it is no strict vertex; the box holds
    # it and nothing else of the hull
    pts = np.random.default_rng(17).standard_normal((120, 2))
    right = np.argmax(pts[:, 0])
    pts[0 if right else 1] = pts[right]
    box = Rectangle(lower=pts[right] - 1e-6, upper=pts[right] + 1e-6)
    assert hull_least(pts, box.contains(pts)) is None
    assert p_multi(pts, "simplicial", box) == reference_p_multi(pts, "simplicial", box)


def test_hull_declines_overflowing_direction_sums():
    # each axis spans 1.6e308, but |dx| + |dy| overflows between opposite corners
    pts = np.array([[0.8e308, 0.8e308], [-0.8e308, -0.8e308], [0.8e308, -0.8e308],
                    [-0.8e308, 0.8e308], [0.0, 0.0], [1.0, 2.0]])
    assert hull_least(pts) is None
    box = Rectangle(lower=[0.7e308, 0.7e308], upper=[0.9e308, 0.9e308])
    assert p_multi(pts, "simplicial", box) == reference_p_multi(pts, "simplicial", box)


@pytest.fixture
def screens(monkeypatch):
    """Number of points of each ``_sector_histograms`` call: the full screen."""
    calls = []
    real = depth_module._sector_histograms

    def counting(pts, *rows):
        calls.append(pts.shape[0])
        return real(pts, *rows)

    monkeypatch.setattr(depth_module, "_sector_histograms", counting)
    return calls


# workers: the replications computed at once, as by ``run_experiment``'s workers
@pytest.mark.parametrize("workers", [1, 2])
def test_interior_region_skips_the_screen(workers, screens):
    region = PART2_REGIONS["a_interior"][0]
    clouds = [part2_cloud(rep, m=500) for rep in range(3)]
    got = parallel_map_indexed(lambda rep: p_multi(clouds[rep], "simplicial", region), 3,
                               workers)
    assert got == [reference_p_multi(cloud, "simplicial", region) for cloud in clouds]
    assert screens == []


def battery_cloud(seed, rep, n=200, m=500):
    """The cloud of replication ``rep`` of the ``run_part2`` battery, as
    ``simulate`` draws it at that seed with true mean (0, 0)."""
    rng = np.random.default_rng([seed, rep, 0])
    data = np.zeros(2) + rng.standard_normal((n, 2)) @ np.linalg.cholesky(PART2_COV).T
    return bootstrap_cloud(data, m, seed=[seed, rep, 1])


# the small-box replications of seed 1 whose floor is the least depth, which the
# sector witnesses of an earlier shortcut missed: three inside hull vertices
# extreme along none of 16 axes, and one whose directions spanned too many sectors
@pytest.mark.parametrize("rep", [26, 28, 38, 44])
def test_small_box_hull_vertex_skips_the_screen(rep, screens, exact_queries):
    region = PART2_REGIONS["e_small_box"][0]
    cloud = battery_cloud(1, rep)
    want = reference_p_multi(cloud, "simplicial", region)
    exact_queries.clear()
    got = p_multi(cloud, "simplicial", region)
    assert got == want and got.depth_floor == least_depth(500)
    assert screens == [] and exact_queries == []


@pytest.mark.parametrize("workers", [1, 2])
def test_far_box_and_p_multi_max_still_screen(workers, screens):
    clouds = [part2_cloud(rep, m=500) for rep in range(8, 8 + workers)]

    def on_workers(p_value, region):
        return parallel_map_indexed(lambda i: p_value(clouds[i], "simplicial", region),
                                    workers, workers)

    far = on_workers(p_multi, PART2_REGIONS["far_box"][0])
    assert {res.floor_source for res in far} == {"boundary-grid"}
    # per cloud, the replicates; the grid gets exact depths
    assert screens == [500] * workers
    screens.clear()
    # the corner (0, 0) is deep in every cloud
    region = PART2_REGIONS["d_corner"][0]
    got = on_workers(p_multi_max, region)
    assert got == [reference_p_multi_max(cloud, "simplicial", region) for cloud in clouds]
    assert screens == [500] * workers


@pytest.mark.parametrize("workers", [1, 2])
def test_shallow_corners_skip_the_screen(workers, screens):
    # the corners (+-1, +-1) lie outside every cloud: depth 0, below the least
    region = PART2_REGIONS["a_interior"][0]
    clouds = [part2_cloud(rep, m=500) for rep in range(3)]
    got = parallel_map_indexed(lambda rep: p_multi_max(clouds[rep], "simplicial", region), 3,
                               workers)
    assert got == [reference_p_multi_max(cloud, "simplicial", region) for cloud in clouds]
    assert screens == []
    for res, cloud in zip(got, clouds):
        base = p_multi(cloud, "simplicial", region)
        assert res == replace(base, corner_p=(0.0,) * 4)


@given(least_cases())
@settings(max_examples=200, deadline=None)
def test_p_multi_max_with_shallow_corners_equals_the_reference(case):
    # the box's corners are off the cloud's own points, often outside its hull
    pts, region = case
    got = p_multi_max(pts, "simplicial", region)
    assert got == reference_p_multi_max(pts, "simplicial", region)
    if max(got.corner_p) == 0.0:
        assert got == replace(p_multi(pts, "simplicial", region), corner_p=got.corner_p)


@pytest.mark.parametrize("m,reps", [(500, range(3)), (2000, range(1))])
def test_hull_floor_makes_no_kernel_call(m, reps, exact_queries):
    region = PART2_REGIONS["a_interior"][0]
    for rep in reps:
        cloud = part2_cloud(rep, m=m)
        want = reference_p_multi(cloud, "simplicial", region)
        exact_queries.clear()
        assert p_multi(cloud, "simplicial", region) == want
        assert exact_queries == []


def test_no_queries_make_an_empty_count():
    pts = np.random.default_rng(18).standard_normal((50, 2))
    counts = _simplicial_counts(pts, np.empty((0, 2)))
    assert counts.dtype == np.int64 and counts.shape == (0,)
    assert depth_of(pts, np.empty((0, 2)), "simplicial").shape == (0,)


def test_hull_path_codes_no_sector(monkeypatch, screens):
    calls = []
    real = depth_module._sector_codes

    def counting(left, *args):
        calls.append(left.shape[1])
        return real(left, *args)

    monkeypatch.setattr(depth_module, "_sector_codes", counting)
    region = PART2_REGIONS["d_corner"][0]
    cloud = part2_cloud(1, m=500)
    assert p_multi(cloud, "simplicial", region) == reference_p_multi(cloud, "simplicial", region)
    assert screens == [] and calls == []


@pytest.mark.parametrize("scale", [1e200, 1e-300])
def test_far_scaled_cloud_keeps_the_float_filter(scale, monkeypatch, exact_queries):
    # scaled back near 1 by a power of two, the hull needs no rational turn
    # and no kernel call, where its float bounds would overflow or underflow
    rational = []
    real = predicates._exact_orient
    monkeypatch.setattr(predicates, "_exact_orient", lambda *args: rational.append(args)
                        or real(*args))
    pts = np.random.default_rng(21).standard_normal((300, 2)) * scale
    right = pts[np.argmax(pts[:, 0])]
    box = Rectangle(lower=right - 0.01 * scale, upper=right + 0.01 * scale)
    want = reference_p_multi(pts, "simplicial", box)
    exact_queries.clear()
    assert p_multi(pts, "simplicial", box) == want
    assert rational == [] and exact_queries == []


def test_vertex_within_the_margin_gets_its_depth_from_the_kernel(exact_queries):
    # the middle vertex is 1e-14 out of the edge from (10, 0) to (0, 10): its
    # turn angle, about 3e-15 radians, is below the margin of 2^-40
    pts = np.random.default_rng(19).standard_normal((200, 2))
    pts[:3] = [[10.0, 0.0], [0.0, 10.0], [5.0 + 1e-14, 5.0 + 1e-14]]
    box = Rectangle(lower=pts[2] - 1e-12, upper=pts[2] + 1e-12)
    assert box.contains(pts).tolist() == [False, False, True] + [False] * 197
    want = reference_p_multi(pts, "simplicial", box)
    exact_queries.clear()
    assert p_multi(pts, "simplicial", box) == want
    assert exact_queries[:1] == [1]


@st.composite
def raised_bound_cases(draw):
    """A cloud of 4..150 points and a rectangle with designated corners.

    Clouds: Gaussian; integer lattice; few distinct points, many repeated;
    all on one line; and Gaussian with one point moved out to (6, 6), a
    hull vertex that a small box around it holds alone.  Boxes: around an
    outermost point (the least-depth shortcut), around the first point, far
    from the cloud (a boundary-grid floor of depth 0, below the least
    depth), or at the centre.  Corners: the box's own, the cloud's mean
    (deep), two far points (shallow), or the mean and one far point.
    """
    m = draw(st.integers(4, 150))
    shape = draw(st.sampled_from(["gaussian", "lattice", "duplicates", "line", "lone-vertex"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "lattice":
        pts = rng.integers(-4, 5, size=(m, 2)).astype(float)
    elif shape == "duplicates":
        pts = rng.standard_normal((max(2, m // 8), 2))[rng.integers(0, max(2, m // 8), size=m)]
    elif shape == "line":
        pts = np.outer(rng.standard_normal(m), rng.standard_normal(2)) + rng.standard_normal(2)
    else:
        pts = rng.standard_normal((m, 2))
        if shape == "lone-vertex":
            pts[0] = [6.0, 6.0]
    scale = float(np.abs(pts).max()) or 1.0
    mean = pts.mean(axis=0)
    place = draw(st.sampled_from(["outermost", "first", "far", "centre"]))
    if place == "outermost":
        angle = draw(st.floats(0.0, 2 * np.pi))
        centre = pts[np.argmax(pts @ [np.cos(angle), np.sin(angle)])]
    else:
        centre = {"first": pts[0], "far": mean + 10 * scale, "centre": mean}[place]
    width = draw(st.sampled_from([1e-9, 0.05, 0.5, 2.0])) * scale
    far = [mean + 20 * scale, mean - [20 * scale, 0.0]]
    corners = {"box": None, "deep": [mean], "shallow": far, "mixed": [mean, far[0]]}[
        draw(st.sampled_from(["box", "deep", "shallow", "mixed"]))]
    return pts, Rectangle(lower=centre - width, upper=centre + width, corners=corners)


@given(raised_bound_cases())
@settings(max_examples=300, deadline=None)
def test_raised_lower_bounds_keep_every_field(case):
    pts, region = case
    for p_value, reference in ((p_multi, reference_p_multi),
                               (p_multi_max, reference_p_multi_max)):
        got, want = p_value(pts, "simplicial", region), reference(pts, "simplicial", region)
        assert astuple(got) == astuple(want)

"""Certified bounds on simplicial depth, and the depth p-values built on them.

``p_multi`` and ``p_multi_max`` compute exact depths only where the bounds of
``depth._depth_bounds`` cannot decide.  The reference below computes every
replicate's exact depth, as both functions did before the screen; the two
must agree bit for bit.
"""

import contextlib
import json
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdsupport import (
    PART2_COV,
    QuadrantComplement,
    Rectangle,
    bootstrap_cloud,
    p_multi,
    p_multi_max,
)
from cdsupport import depth as depth_module
from cdsupport.cli import load_region_config, main
from cdsupport.depth import (
    MULTI_METHODS,
    SECTORS,
    MultiPValue,
    _count_bounds,
    _depth_bounds,
    _grid_box,
    _sector_histograms,
    _simplicial_counts,
    check_region_dim,
    depth_of,
)
from cdsupport.simulate import parallel_map_indexed
from helpers import subtracting_directly

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
    cloud = part2_cloud(0, m=2000)
    region = PART2_REGIONS["d_corner"][0]
    want = reference_p_multi(cloud, "simplicial", region)
    exact_queries.clear()
    assert p_multi(cloud, "simplicial", region) == want
    # one call for the floor candidates, one for replicates straddling the floor
    assert len(exact_queries) == 2 and sum(exact_queries) < 2000 // 20


# -- the bounds bracket the kernel's count ----------------------------------------


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
    counts = _simplicial_counts(pts, queries)
    lo, hi = _count_bounds(_sector_histograms(pts, queries), pts.shape[0]).T
    assert (lo <= counts).all() and (counts <= hi).all()
    lo_d, hi_d = _depth_bounds(pts, queries, "simplicial")
    exact = depth_of(pts, queries, "simplicial")
    assert (lo_d <= exact).all() and (exact <= hi_d).all()


# (query, point) pairs of a chunk in the self-screen tests below: tiles of 7 points
SMALL_CHUNK = 49


@given(bounds_cases())
@settings(max_examples=300, deadline=None)
def test_self_screen_bounds_bracket_the_kernel_count(case):
    pts, _ = case
    m = pts.shape[0]
    counts = _simplicial_counts(pts, pts)
    direct = _sector_histograms(pts, pts.copy())  # every ordered pair computed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(depth_module, "CHUNK_PAIRS", SMALL_CHUNK)
        hist = _sector_histograms(pts, pts)
        lo_d, hi_d = _depth_bounds(pts, pts, "simplicial")
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
    args = (depth_module._lefts(pts), depth_module._rights(pts),
            depth_module._row_offsets(pts.shape[0]), np.empty((4, pts.size ** 2)))
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
            direct = _sector_histograms(pts, pts.copy())  # every ordered pair computed
            with monkeypatch.context() as patch:
                patch.setattr(depth_module, "CHUNK_PAIRS", chunk)
                hist = _sector_histograms(pts, pts)
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
            tiled = _sector_histograms(pts, pts)
        return (_sector_histograms(pts, pts), tiled, _sector_histograms(pts, queries),
                least_bounds(pts), _simplicial_counts(pts, queries))

    got = screen_and_kernel()
    with subtracting_directly():
        want = screen_and_kernel()
    for mine, reference in zip(got, want):
        if mine is None or reference is None:
            assert mine is reference
        else:
            assert all(np.array_equal(a, b) for a, b in zip(mine, reference))
    # no difference of distinct points was flushed to zero: a point is at
    # the query exactly when it equals the query
    at_query = (pts[None, :, :] == queries[:, None, :]).all(axis=2).sum(axis=1)
    assert np.array_equal(got[2][:, SECTORS + 1], at_query)


def test_diamond_angle_four_wraps_to_sector_zero():
    # seen from the origin, (1, -1e-20) has r = 1 / (1 + 1e-20) = 1, so t = 3 + r = 4
    pts = np.array([[1.0, -1e-20], [1.0, 1e-20], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    hist = _sector_histograms(pts, np.zeros((1, 2)))
    assert hist.shape == (1, SECTORS + 2)
    assert hist[0, 0] == 3 and hist[0, SECTORS] == 0  # t = 4 is counted as sector 0
    assert hist[0, SECTORS // 2] == 1 and hist[0, SECTORS + 1] == 1
    lo, hi = _count_bounds(hist, pts.shape[0])[0]
    assert lo <= _simplicial_counts(pts, np.zeros((1, 2)))[0] <= hi


def test_mahalanobis_bounds_are_the_depths():
    cloud = part2_cloud(2, m=200)
    lo, hi = _depth_bounds(cloud, cloud.points, "mahalanobis")
    exact = depth_of(cloud, cloud.points, "mahalanobis")
    assert np.array_equal(lo, exact) and np.array_equal(hi, exact)


def test_far_query_bounds_are_exact():
    pts = np.random.default_rng(12).standard_normal((300, 2))
    lo, hi = _depth_bounds(pts, [[50.0, 50.0], [0.0, -80.0]], "simplicial")
    assert lo.tolist() == hi.tolist() == [0.0, 0.0]


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
        _depth_bounds(OVERFLOW_CLOUD, [query], kind)
    box = Rectangle(lower=[-1.0, -1.0], upper=[2.0, 2.0])
    for p_value in (p_multi, p_multi_max):
        with pytest.raises(ValueError, match=message):
            p_value(OVERFLOW_CLOUD, kind, box)


def test_query_alone_can_overflow_the_range():
    # every cloud coordinate is at least 1e307, so y spans more than 1.8e308
    cloud = (np.random.default_rng(13).standard_normal((30, 2)) ** 2 + 1.0) * 1e307
    with pytest.raises(ValueError, match="on axis 1 differ"):
        depth_of(cloud, [[0.0, -1.7e308]], "simplicial")


def test_overflowing_direction_sums_get_trivial_bounds():
    # each axis spans 1.6e308, a finite range, but |dx| + |dy| overflows
    # between opposite corners
    pts = np.array([[0.8e308, 0.8e308], [-0.8e308, -0.8e308], [0.8e308, -0.8e308],
                    [-0.8e308, 0.8e308], [0.0, 0.0], [1.0, 2.0]])
    queries = np.vstack([pts, [[0.1e308, -0.3e308]]])
    lo, hi = _depth_bounds(pts, queries, "simplicial")
    exact = depth_of(pts, queries, "simplicial")
    assert (lo <= exact).all() and (exact <= hi).all()
    assert lo[0] == 0.0 and hi[0] == 1.0  # (0.8e308, 0.8e308) sees its opposite corner
    assert np.isfinite(exact).all()


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


# -- least-depth bounds: the shortcut past the full screen --------------------------


def least_depth(m):
    """C(m - 1, 2) / C(m, 3), the least simplicial depth of a cloud point, as
    the kernel's division gives it."""
    return (np.array([math.comb(m - 1, 2)]) / math.comb(m, 3))[0]


def least_bounds(pts, inside=None):
    """``_CheckedCloud.least_bounds`` of a cloud's own points, every point
    inside unless said otherwise."""
    checked = depth_module._CheckedCloud.check(pts, "simplicial")
    _, span = checked.queries(checked.pts)
    inside = np.ones(checked.pts.shape[0], dtype=bool) if inside is None else inside
    return checked.least_bounds(inside, span)


@st.composite
def least_cases(draw):
    """A cloud of 4..300 points and a box that takes in, or misses, one of its
    outermost points.

    Shapes: Gaussian; Gaussian with its rightmost point duplicated; all on one
    line; integer lattice; a lattice cloud symmetric about the origin (exact
    antipodes); and Gaussian with three added hull vertices, the middle one
    1e-9 out of the edge between the other two, so its angle is nearly flat.
    """
    m = draw(st.integers(4, 300))
    shape = draw(st.sampled_from(
        ["gaussian", "duplicate-vertex", "line", "lattice", "antipodes", "flat-vertex"]))
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
    elif shape == "flat-vertex":  # (10, 0), (0, 10) and just outside their midpoint
        pts[:3] = [[10.0, 0.0], [0.0, 10.0], [5.0 + 1e-9, 5.0 + 1e-9]]
    angle = draw(st.floats(0.0, 2 * np.pi))
    centre = pts[np.argmax(pts @ [np.cos(angle), np.sin(angle)])]
    if draw(st.booleans()):  # miss the outermost point, but maybe not the cloud
        centre = centre - draw(st.sampled_from([0.05, 0.3, 1.0])) * (centre - pts.mean(axis=0))
    width = draw(st.sampled_from([1e-12, 0.01, 0.2, 1.0, 5.0]))
    return pts, Rectangle(lower=centre - width, upper=centre + width)


@given(least_cases())
@settings(max_examples=300, deadline=None)
def test_p_multi_with_least_bounds_equals_the_reference(case):
    pts, region = case
    assert p_multi(pts, "simplicial", region) == reference_p_multi(pts, "simplicial", region)


@given(bounds_cases())
@settings(max_examples=300, deadline=None)
# m = 4, one point inside the triangle of the other three: its lower bound,
# C(3, 2) + 1 = C(4, 3), meets its upper bound at depth 1, not the least depth
@example((np.array([[-0.39530129, 0.26391489], [0.60712827, -0.9721598],
                    [0.76766425, 0.25505812], [0.78297987, 0.27241823]]), np.zeros((1, 2))))
def test_least_bounds_bracket_the_kernel_depth(case):
    pts, _ = case
    m = pts.shape[0]
    exact = depth_of(pts, pts, "simplicial")
    # every point is a vertex of the C(m - 1, 2) triangles through it
    assert (exact >= least_depth(m)).all()
    bounds = least_bounds(pts)
    if bounds is None:
        return
    lo, hi = bounds
    assert (lo <= exact).all() and (exact <= hi).all()
    certified = (lo == hi) & (lo == least_depth(m))
    assert certified.any() and (exact[certified] == least_depth(m)).all()
    assert set(np.unique(lo[~certified])) <= {0.0, lo.max()}


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
    bounds = least_bounds(pts)
    if shape in ("gaussian", "line"):  # unique extreme points
        assert bounds is not None
    if bounds is not None:
        certified = bounds[0] == bounds[1]
        assert (exact[certified] == least_depth(m)).all()


def test_next_count_is_above_the_least_depth_as_a_float():
    # so that a point certified above the least count is no floor candidate
    m = [*range(4, 20001), 10**5, 10**6, 3 * 10**6]
    least = np.array([math.comb(k - 1, 2) for k in m])
    total = np.array([math.comb(k, 3) for k in m])
    assert ((least + 1) / total > least / total).all()


def test_duplicated_inside_vertex_falls_back_to_the_screen():
    # the rightmost point is doubled, so it is no certified witness; the box
    # holds it and nothing else of the hull
    pts = np.random.default_rng(17).standard_normal((120, 2))
    right = np.argmax(pts[:, 0])
    pts[0 if right else 1] = pts[right]
    box = Rectangle(lower=pts[right] - 1e-6, upper=pts[right] + 1e-6)
    assert least_bounds(pts, box.contains(pts)) is None
    assert p_multi(pts, "simplicial", box) == reference_p_multi(pts, "simplicial", box)


def test_least_bounds_decline_overflowing_direction_sums():
    # each axis spans 1.6e308, but |dx| + |dy| overflows between opposite corners
    pts = np.array([[0.8e308, 0.8e308], [-0.8e308, -0.8e308], [0.8e308, -0.8e308],
                    [-0.8e308, 0.8e308], [0.0, 0.0], [1.0, 2.0]])
    assert least_bounds(pts) is None
    box = Rectangle(lower=[0.7e308, 0.7e308], upper=[0.9e308, 0.9e308])
    assert p_multi(pts, "simplicial", box) == reference_p_multi(pts, "simplicial", box)


@pytest.fixture
def screens(monkeypatch):
    """Number of rows of each ``_sector_histograms`` call: the full screen."""
    calls = []
    real = depth_module._sector_histograms

    def counting(pts, queries):
        calls.append(queries.shape[0])
        return real(pts, queries)

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


@pytest.mark.parametrize("workers", [1, 2])
def test_far_box_and_p_multi_max_still_screen(workers, screens):
    clouds = [part2_cloud(rep, m=500) for rep in range(8, 8 + workers)]

    def on_workers(p_value, region):
        return parallel_map_indexed(lambda i: p_value(clouds[i], "simplicial", region),
                                    workers, workers)

    far = on_workers(p_multi, PART2_REGIONS["far_box"][0])
    assert {res.floor_source for res in far} == {"boundary-grid"}
    # per cloud, the replicates, then the grid
    assert screens.count(500) == workers and len(screens) == 2 * workers
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


def test_least_bounds_settle_few_replicates(exact_queries):
    cloud = part2_cloud(0, m=2000)
    region = PART2_REGIONS["a_interior"][0]
    want = reference_p_multi(cloud, "simplicial", region)
    exact_queries.clear()
    assert p_multi(cloud, "simplicial", region) == want
    assert len(exact_queries) == 2 and sum(exact_queries) < 2000 // 100


def test_certified_floor_leaves_no_candidate_to_settle(exact_queries):
    region = PART2_REGIONS["a_interior"][0]
    for rep in range(3):
        cloud = part2_cloud(rep, m=500)
        want = reference_p_multi(cloud, "simplicial", region)
        exact_queries.clear()
        assert p_multi(cloud, "simplicial", region) == want
        # every replicate is bounded below by the least depth, which the
        # certified witness reaches: the floor's call gets no rows
        assert len(exact_queries) == 2 and exact_queries[0] == 0


def test_no_queries_make_an_empty_count():
    pts = np.random.default_rng(18).standard_normal((50, 2))
    counts = _simplicial_counts(pts, np.empty((0, 2)))
    assert counts.dtype == np.int64 and counts.shape == (0,)
    assert depth_of(pts, np.empty((0, 2)), "simplicial").shape == (0,)


def test_shortcut_codes_its_witnesses_once(monkeypatch, screens):
    calls = []
    real = depth_module._sector_codes

    def counting(left, *args):
        calls.append(left.shape[1])
        return real(left, *args)

    monkeypatch.setattr(depth_module, "_sector_codes", counting)
    region = PART2_REGIONS["d_corner"][0]
    cloud = part2_cloud(1, m=500)
    assert p_multi(cloud, "simplicial", region) == reference_p_multi(cloud, "simplicial", region)
    assert screens == [] and len(calls) == 1 and 5 <= calls[0] <= 32


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

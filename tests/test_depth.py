import json
import math
import re
import sys
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsupport import (
    ExperimentSpec,
    Halfspace,
    PointSet,
    Rectangle,
    bootstrap_cloud,
    make_bootstrap_cd,
    p_multi,
    p_multi_max,
    run_experiment,
    simplicial_depth,
    simplicial_depth_brute,
)
from cdsupport import depth as depth_module
from cdsupport.cli import main
from cdsupport.depth import _simplicial_counts, depth_of, resample_means
from cdsupport.simulate import parallel_map_indexed
from helpers import extent_by_columns, mahalanobis_depth, simplicial_depth_loop

# computed directly from the paired differences in conftest.TABLE1
TABLE1_MEAN = (0.17713333333333334, 0.26)


class TestBootstrapCloud:
    def test_identical_rows_collapse(self):
        data = np.tile([1.5, -2.0], (10, 1))
        cloud = bootstrap_cloud(data, 200, seed=0)
        assert np.all(cloud.points == [1.5, -2.0])

    def test_cloud_mean_near_sample_mean(self, table1):
        cloud = bootstrap_cloud(table1, 2000, seed=42)
        se = table1.std(axis=0, ddof=1) / math.sqrt(table1.shape[0])
        assert np.all(np.abs(cloud.points.mean(axis=0) - TABLE1_MEAN) < 3 * se)

    def test_same_seed_reproduces_exactly(self, table1):
        first = bootstrap_cloud(table1, 500, seed=9)
        second = bootstrap_cloud(table1, 500, seed=9)
        assert np.array_equal(first.points, second.points)
        assert first.source_shape == (15, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_cloud(np.zeros((1, 2)), 200, seed=0)
        with pytest.raises(ValueError):
            bootstrap_cloud(np.zeros((5, 3)), 200, seed=0)
        with pytest.raises(ValueError):
            bootstrap_cloud(np.zeros((5, 2)), 50, seed=0)
        with pytest.raises(ValueError):
            bootstrap_cloud(np.array([[1.0, np.nan]] * 5), 200, seed=0)


# n = 2; fewer than 8 rows, whose contiguous k = 1 sum numpy runs as a plain
# loop; and more, where that sum is pairwise
ROWS = st.one_of(st.just(2), st.integers(3, 7), st.integers(8, 400))


@given(
    n=ROWS,
    k=st.sampled_from([1, 2]),
    reps=st.integers(100, 700),
    scale=st.sampled_from([1e-3, 1.0, 1e6, 1e12]),
    seed=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**16)),
)
@settings(max_examples=150, deadline=None)
def test_resampled_means_equal_gather_and_mean(n, k, reps, scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k)) * scale + rng.standard_normal(k) * scale
    idx = np.random.default_rng(seed).integers(0, n, size=(reps, n))
    expected = x[idx].mean(axis=1)
    cloud = bootstrap_cloud(x, reps, seed=seed)
    assert cloud.seed == seed
    assert np.array_equal(cloud.points, expected)
    if k == 1 and np.unique(expected).size > 1:
        grid = make_bootstrap_cd(x[:, 0], reps, seed=seed).grid
        assert np.array_equal(grid, np.unique(expected))


@pytest.mark.parametrize(
    "n, reps, k",
    [
        (200, 2001, 1),  # blocks of 163 replicates, the last one partial
        (200, 2001, 2),
        (9, 4000, 1),  # 9 rows: numpy sums them pairwise
        (40000, 3, 2),  # blocks of one replicate, which numpy would sum pairwise as (n x 1)
        (5, 10000, 1),  # blocks of 6553 replicates: 32765 draws, an odd number
        (5, 10000, 2),
    ],
)
def test_resampled_means_over_several_blocks(n, k, reps):
    x = np.random.default_rng(n).standard_normal((n, k)) * 1e3 + 7.0
    idx = np.random.default_rng(11).integers(0, n, size=(reps, n))
    assert np.array_equal(resample_means(x, reps, 11), x[idx].mean(axis=1))


def test_bootstrap_cloud_memory_is_the_draw_plus_a_block():
    n, reps = 200, 20000
    data = np.random.default_rng(65).standard_normal((n, 2))
    tracemalloc.start()
    try:
        bootstrap_cloud(data, reps, seed=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # gathering the whole (reps x n) index draw at once doubles it, near 64 MB
    assert peak <= reps * n * 8 + 2 * 2**20


def test_bootstrap_cloud_never_holds_the_whole_draw():
    n, reps = 200, 20000
    data = np.random.default_rng(65).standard_normal((n, 2))
    tracemalloc.start()
    try:
        bootstrap_cloud(data, reps, seed=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole (reps x n) int64 index draw alone is 30.5 MB
    assert peak < reps * n * 8 // 8


# n where numpy's bounded draw rejects no candidate (2, 2^32), at most 96 in
# 2^32 (3, 200), or up to about half of them (2^31 + 1, 3e9, 2^32 - 1)
DRAW_N = [2, 3, 200, 2**31 + 1, 3 * 10**9, 2**32 - 1, 2**32]


def same_state(a, b) -> bool:
    """Deep equality of two bit generator states, whose values may be arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("held", [False, True], ids=["no-half-word", "half-word-held"])
@pytest.mark.parametrize("n", DRAW_N)
def test_index_blocks_are_numpys_bounded_draw(n, held):
    mine, numpy_own = np.random.default_rng([n, 27]), np.random.default_rng([n, 27])
    if held:
        for rng in (mine, numpy_own):
            rng.integers(0, 2**32, dtype=np.uint32)  # one half of a word, the other held
        assert mine.bit_generator.state["has_uint32"] == 1
    chunk = depth_module.CHUNK_PAIRS
    # odd and even counts, blocks of one call, and calls one after the other
    for counts in ([1, 2, 7], [1000, 1001, chunk], [chunk + 3], [4, 1]):
        got = [block.copy() for block in depth_module._index_blocks(mine, n, counts)]
        want = [numpy_own.integers(0, n, size=count) for count in counts]
        assert [block.dtype for block in got] == [np.dtype(np.int64)] * len(counts)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert same_state(mine.bit_generator.state, numpy_own.bit_generator.state)


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937, np.random.Philox,
                                    np.random.PCG64DXSM])
@pytest.mark.parametrize("n, k", [(1, 2), (1, 1), (37, 2), (37, 1)])
def test_every_generator_gives_numpys_draw(bitgen, n, k):
    # PCG64 draws from raw words; the others, and n = 1, through integers
    x = np.random.default_rng(n).standard_normal((n, k))
    mine, numpy_own = np.random.Generator(bitgen(8)), np.random.Generator(bitgen(8))
    got = resample_means(x, 1000, mine)
    assert np.array_equal(got, x[numpy_own.integers(0, n, size=(1000, n))].mean(axis=1))
    assert same_state(mine.bit_generator.state, numpy_own.bit_generator.state)


def test_resampling_threads_keep_their_own_buffers():
    # each thread resamples in its own kept buffers, so threads that
    # resample at the same time, switching often, get the serial means
    x = np.random.default_rng(5).standard_normal((300, 2))

    def run(i):
        return [resample_means(x, 400, [i, j]) for j in range(5)]

    serial = parallel_map_indexed(run, 6, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = parallel_map_indexed(run, 6, 4)
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(serial, threaded):
        assert all(np.array_equal(a, b) for a, b in zip(want, got))


class TestMahalanobisDepth:
    def test_maximal_at_cloud_mean(self):
        pts = np.random.default_rng(1).standard_normal((300, 2))
        assert mahalanobis_depth(pts, pts.mean(axis=0)) == pytest.approx(1.0, abs=1e-12)

    def test_identity_covariance_at_unit_distance(self):
        # four points with sample covariance exactly the identity (ddof=1)
        r = math.sqrt(1.5)
        pts = np.array([[r, 0.0], [-r, 0.0], [0.0, r], [0.0, -r]])
        assert np.allclose(np.cov(pts.T, ddof=1), np.eye(2))
        assert mahalanobis_depth(pts, [1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_against_explicit_inverse(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((40, 2)) @ np.array([[1.0, 0.4], [0.0, 2.0]])
        w = rng.standard_normal(2)
        mu = pts.mean(axis=0)
        (a, b), (c, d) = np.cov(pts.T, ddof=1)
        det = a * d - b * c
        inv = np.array([[d, -b], [-c, a]]) / det
        diff = w - mu
        want = 1.0 / (1.0 + diff @ inv @ diff)
        assert abs(mahalanobis_depth(pts, w) - want) <= 1e-10

    def test_singular_cloud_rejected(self):
        line = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])
        with pytest.raises(ValueError, match="singular|ill-conditioned"):
            mahalanobis_depth(line, [0.0, 0.0])


class TestSimplicialDepth:
    def test_outside_hull_is_zero(self):
        pts = np.random.default_rng(5).standard_normal((40, 2))
        assert simplicial_depth(pts, [50.0, 50.0]) == 0.0

    def test_four_point_hull_vertex(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.1], [1.0, 3.0], [-2.0, 2.5]])
        w = pts[0]
        # of the 4 triangles, the 3 with w as a vertex contain it; the fourth
        # is checked by enumerating it directly
        other = simplicial_depth_brute(pts[1:], w)  # single triangle, 0 or 1
        assert simplicial_depth(pts, w) == (3 + other) / 4

    def test_fast_equals_brute_on_random_clouds(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = int(rng.integers(3, 45))
            pts = rng.standard_normal((m, 2))
            w = pts[rng.integers(0, m)] if rng.random() < 0.3 else rng.standard_normal(2)
            assert simplicial_depth(pts, w) == simplicial_depth_brute(pts, w)

    @pytest.mark.parametrize(
        "pts,w",
        [
            # collinear triple on one side: not contained
            ([[1, 0], [2, 0], [3, 0], [0, 1]], [0, 0]),
            # query on the segment of a degenerate triangle
            ([[-1, 0], [1, 0], [2, 0], [0, 3]], [0, 0]),
            # duplicated directions off-axis
            ([[1, 1], [2, 2], [-1, 2], [3, -1]], [0, 0]),
            # query equal to two cloud points
            ([[0, 0], [0, 0], [1, 2], [3, 1], [-1, -1]], [0, 0]),
            # exactly antipodal pair through the query
            ([[0, 1], [0, -2], [5, 0], [1, 1]], [0, 0]),
            # whole cloud on a vertical line through the query
            ([[0, -2], [0, -1], [0, 1], [0, 3]], [0, 0]),
        ],
    )
    def test_degenerate_configurations(self, pts, w):
        pts = np.asarray(pts, dtype=float)
        w = np.asarray(w, dtype=float)
        assert simplicial_depth(pts, w) == simplicial_depth_brute(pts, w)

    def test_lattice_clouds_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            m = int(rng.integers(4, 12))
            pts = rng.integers(-3, 4, size=(m, 2)).astype(float)
            w = rng.integers(-3, 4, size=2).astype(float)
            assert simplicial_depth(pts, w) == simplicial_depth_brute(pts, w)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            simplicial_depth(np.zeros((2, 2)), [0.0, 0.0])
        with pytest.raises(ValueError):
            simplicial_depth(np.zeros((5, 3)), [0.0, 0.0, 0.0])


class TestInvariance:
    def test_rigid_motion_both_depths(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((60, 2)) @ np.array([[1.0, 0.0], [0.7, 1.5]])
        w = rng.standard_normal(2)
        angle = 1.234
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        shift = np.array([3.0, -4.0])
        for kind in ("mahalanobis", "simplicial"):
            before = depth_of(pts, w[None, :], kind)[0]
            after = depth_of(pts @ rot.T + shift, (rot @ w + shift)[None, :], kind)[0]
            assert abs(before - after) <= 1e-9

    def test_mahalanobis_full_affine(self):
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((80, 2))
        w = rng.standard_normal(2)
        amat = np.array([[2.0, 0.3], [-0.5, 0.8]])
        before = mahalanobis_depth(pts, w)
        after = mahalanobis_depth(pts @ amat.T, amat @ w)
        assert abs(before - after) <= 1e-9


class TestPMulti:
    def test_whole_plane(self):
        pts = np.random.default_rng(0).standard_normal((200, 2))
        region = Rectangle(lower=[-math.inf, -math.inf], upper=[math.inf, math.inf])
        res = p_multi(pts, "mahalanobis", region)
        assert res.p == 1.0 and res.esp == 1.0 and res.tail == 0.0

    def test_far_region_is_zero(self):
        pts = np.random.default_rng(1).standard_normal((300, 2))
        region = Rectangle(lower=[50.0, 50.0], upper=[51.0, 51.0])
        res = p_multi(pts, "mahalanobis", region)
        assert res.p == 0.0
        assert res.floor_source == "boundary-grid"

    def test_far_region_simplicial(self):
        pts = np.random.default_rng(2).standard_normal((150, 2))
        region = Rectangle(lower=[40.0, 40.0], upper=[41.0, 41.0])
        assert p_multi(pts, "simplicial", region).p == 0.0

    def test_reference_rectangle(self, table1):
        cloud = bootstrap_cloud(table1, 2000, seed=1)
        region = Rectangle(lower=[-0.154, -0.28], upper=[0.154, 0.28])
        res = p_multi(cloud, "mahalanobis", region)
        assert res.p == res.esp + res.tail
        assert res.floor_source == "inside-replicates"
        assert 0.25 < res.p < 0.55

    def test_nested_rectangles_monotone_when_floor_fixed(self):
        pts = np.random.default_rng(8).standard_normal((400, 2))
        results = []
        for half in (0.5, 1.0, 1.5, 2.0, 3.0):
            region = Rectangle(lower=[-half, -half], upper=[half, half])
            results.append(p_multi(pts, "mahalanobis", region))
        for inner, outer in zip(results, results[1:]):
            if inner.depth_floor == outer.depth_floor:
                assert inner.p <= outer.p + 1e-12

    def test_parts_sum_clamped(self):
        pts = np.random.default_rng(21).standard_normal((250, 2))
        region = Rectangle(lower=[-0.2, -0.2], upper=[0.2, 0.2])
        res = p_multi(pts, "simplicial", region)
        assert 0.0 <= res.p <= 1.0
        assert res.p == pytest.approx(min(res.esp + res.tail, 1.0), abs=1e-15)


class TestPMultiMax:
    def test_singleton_region_coincides(self):
        pts = np.random.default_rng(31).standard_normal((200, 2))
        region = PointSet(points=[[0.1, -0.2]])
        base = p_multi(pts, "mahalanobis", region)
        top = p_multi_max(pts, "mahalanobis", region)
        assert base.esp == 0.0
        assert top.p == base.p == top.corner_p[0]

    def test_corner_at_deepest_point_saturates(self):
        pts = np.random.default_rng(41).standard_normal((300, 2))
        deepest = pts[np.argmax(depth_of(pts, pts, "mahalanobis"))]
        region = Rectangle(
            lower=[30.0, 30.0], upper=[31.0, 31.0], corners=[deepest.tolist()]
        )
        top = p_multi_max(pts, "mahalanobis", region)
        assert top.p == 1.0 and top.base.p == 0.0

    def test_requires_corners(self):
        pts = np.random.default_rng(51).standard_normal((150, 2))
        with pytest.raises(ValueError, match="corner"):
            p_multi_max(pts, "mahalanobis", Halfspace(normal=[1.0, 0.0], offset=0.0))


def test_singleton_p_uniform_at_truth():
    # depth p-value of the true mean across replications: approximately
    # Uniform[0,1] at n=200, m=500 (checked with the Mahalanobis depth)
    cov = np.array([[1.0, 0.8], [0.8, 4.0]])
    chol = np.linalg.cholesky(cov)
    reps = 200
    pvals = np.empty(reps)
    for r in range(reps):
        rng = np.random.default_rng([123, r])
        data = rng.standard_normal((200, 2)) @ chol.T
        cloud = bootstrap_cloud(data, 500, seed=[123, r, 1])
        depths = depth_of(cloud, np.vstack([cloud.points, [[0.0, 0.0]]]), "mahalanobis")
        pvals[r] = (depths[:-1] <= depths[-1]).mean()
    pvals.sort()
    i = np.arange(1, reps + 1)
    ks = max(np.max(i / reps - pvals), np.max(pvals - (i - 1) / reps))
    assert ks < 0.10


class TestDepthPath:
    def test_thread_count_does_not_change_depths(self):
        # replication workers compute depths and screen their own clouds at
        # the same time, each on its own tile buffers
        rng = np.random.default_rng(61)
        clouds = [rng.standard_normal((700, 2)) @ np.array([[1.0, 0.0], [0.8, 1.8]])
                  for _ in range(3)]
        queries = np.vstack([clouds[0], rng.standard_normal((800, 2))])

        def run(i):
            pts = clouds[i]
            return (depth_of(pts, queries, "simplicial"),
                    *depth_module._CheckedCloud.check(pts, "simplicial").bounds())

        one = parallel_map_indexed(run, 3, 1)
        assert one[0][0].shape == (1500,)
        for want, got in zip(one, parallel_map_indexed(run, 3, 3)):
            assert all(np.array_equal(a, b) for a, b in zip(want, got))

    @pytest.mark.parametrize("kind", ["simplicial", "mahalanobis"])
    @pytest.mark.parametrize("threads", [0, -5])
    def test_worker_count_below_one_is_rejected(self, kind, threads):
        # the worker count is the harness's: it counts replication workers
        spec = ExperimentSpec(model="bivariate-normal", true_mean=(0.0, 0.0),
                              region=Rectangle(lower=[-1, -1], upper=[1, 1]), n=20, reps=50,
                              method="multi", depth=kind, boot_m=100)
        message = f"^threads must be >= 1, got {threads}$"
        with pytest.raises(ValueError, match=message):
            run_experiment(spec, threads=threads)
        with pytest.raises(ValueError, match=message):
            parallel_map_indexed(lambda i: i, 3, threads)

    DATA = np.random.default_rng(62).standard_normal((50, 2)) + [0.1, 0.0]

    def pval2d_report(self, config, depth, tmp_path, capsys):
        csv_path = tmp_path / "pairs.csv"
        csv_path.write_text("".join(f"{a!r},{b!r}\n" for a, b in self.DATA.tolist()))
        cfg = tmp_path / "region.cfg"
        cfg.write_text(config)
        code = main(["pval2d", "--input", str(csv_path), "--config", str(cfg),
                     "--depth", depth, "--boot-reps", "700", "--seed", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["m"] == 700
        return report, bootstrap_cloud(self.DATA, 700, seed=3)

    @pytest.mark.parametrize("depth", ["mahalanobis", "simplicial"])
    def test_library_p_multi_max_equals_pval2d_report(self, depth, tmp_path, capsys):
        report, cloud = self.pval2d_report(
            "shape = rectangle\nlo = -0.1, -0.2\nhi = 0.2, 0.1\n", depth, tmp_path, capsys)
        box = Rectangle(lower=[-0.1, -0.2], upper=[0.2, 0.1])
        top = p_multi_max(cloud, depth, box)
        assert (report["esp"], report["tail"], report["p_multi"]) == (
            top.base.esp, top.base.tail, top.base.p)
        assert report["corner_p"] == list(top.corner_p)
        assert report["p_max"] == top.p

    @pytest.mark.parametrize("depth", ["mahalanobis", "simplicial"])
    @pytest.mark.parametrize("offset", [0.05, -0.25])  # replicates inside; none inside
    def test_library_p_multi_equals_corner_free_pval2d_report(
            self, depth, offset, tmp_path, capsys):
        report, cloud = self.pval2d_report(
            f"shape = halfspace\nnormal = 1, 0\noffset = {offset}\n", depth, tmp_path, capsys)
        res = p_multi(cloud, depth, Halfspace(normal=[1.0, 0.0], offset=offset))
        assert res.corner_p == () and res.base == res
        assert "corner_p" not in report and "p_max" not in report
        assert (report["esp"], report["tail"], report["depth_floor"], report["floor_source"],
                report["p_multi"]) == (res.esp, res.tail, res.depth_floor, res.floor_source, res.p)

    def test_p_multi_memory_is_bounded(self):
        cloud = bootstrap_cloud(np.random.default_rng(63).standard_normal((40, 2)), 2000, seed=4)
        box = Rectangle(lower=[-0.1, -0.1], upper=[0.1, 0.1])
        tracemalloc.start()
        try:
            p_multi(cloud, "simplicial", box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # computing all 2000 x 2000 (query, point) pairs at once peaks near 324 MB
        assert peak < 16 * 2**20

    def test_p_multi_memory_is_bounded_on_two_workers(self):
        # two replication workers, each screening its own cloud
        data = np.random.default_rng(63).standard_normal((40, 2))
        clouds = [bootstrap_cloud(data, 2000, seed=seed) for seed in (4, 5)]
        box = Rectangle(lower=[-0.1, -0.1], upper=[0.1, 0.1])
        tracemalloc.start()
        try:
            parallel_map_indexed(lambda i: p_multi(clouds[i], "simplicial", box), 2, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # each worker holds its own tile buffers, 1 MiB, and one cloud's bounds at a time
        assert peak < 16 * 2**20

    def test_all_replicate_depths_memory_is_bounded(self):
        cloud = np.random.default_rng(64).standard_normal((4000, 2))
        tracemalloc.start()
        try:
            depth_of(cloud, cloud, "simplicial")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # computing all 4000 x 4000 (query, point) pairs at once peaks near 1.3 GB
        assert peak < 16 * 2**20


class TestNonFiniteInput:
    """NaN or infinity in the cloud or the queries is an error, not a depth."""

    CLOUD = np.random.default_rng(71).standard_normal((50, 2))

    @pytest.mark.parametrize("kind", ["simplicial", "mahalanobis"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_depth_of_rejects_non_finite_query(self, kind, bad):
        queries = np.array([[0.0, 0.0], [bad, 0.0]])
        with pytest.raises(ValueError, match="queries"):
            depth_of(self.CLOUD, queries, kind)

    @pytest.mark.parametrize("kind", ["simplicial", "mahalanobis"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_depth_of_rejects_non_finite_cloud(self, kind, bad):
        cloud = self.CLOUD.copy()
        cloud[7, 1] = bad
        with pytest.raises(ValueError, match="cloud"):
            depth_of(cloud, [[0.0, 0.0]], kind)

    def test_single_point_depths_reject_nan(self):
        with pytest.raises(ValueError, match="queries"):
            simplicial_depth(self.CLOUD, [np.nan, 0.0])
        with pytest.raises(ValueError, match="queries"):
            mahalanobis_depth(self.CLOUD, [0.0, np.nan])
        cloud = self.CLOUD.copy()
        cloud[0] = np.nan
        with pytest.raises(ValueError, match="cloud"):
            simplicial_depth(cloud, [0.0, 0.0])

    @pytest.mark.parametrize("kind", ["simplicial", "mahalanobis"])
    def test_p_values_reject_nan_cloud(self, kind):
        cloud = self.CLOUD.copy()
        cloud[3, 0] = np.nan
        box = Rectangle(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        with pytest.raises(ValueError, match="cloud"):
            p_multi(cloud, kind, box)
        with pytest.raises(ValueError, match="cloud"):
            p_multi_max(cloud, kind, box)


class TestDimensionMismatch:
    """A query or region of another dimension than the cloud is an error."""

    CLOUD = np.random.default_rng(71).standard_normal((50, 2))

    @pytest.mark.parametrize("kind", ["simplicial", "mahalanobis"])
    def test_depth_of_rejects_3_vector_query(self, kind):
        with pytest.raises(ValueError, match="query dimension 3 differs"):
            depth_of(self.CLOUD, [[0.0, 0.0, 99.0]], kind)

    def test_single_point_depths_reject_3_vector(self):
        with pytest.raises(ValueError, match="query dimension 3 differs"):
            simplicial_depth(self.CLOUD, [0.0, 0.0, 99.0])
        with pytest.raises(ValueError, match="query dimension 3 differs"):
            mahalanobis_depth(self.CLOUD, [0.0, 0.0, 99.0])

    @pytest.mark.parametrize("kind", ["simplicial", "mahalanobis"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_p_values_reject_region_dimension(self, kind, k):
        box = Rectangle(lower=[-0.1] * k, upper=[0.1] * k)
        with pytest.raises(ValueError, match=f"region dimension {k} differs"):
            p_multi(self.CLOUD, kind, box)
        with pytest.raises(ValueError, match=f"region dimension {k} differs"):
            p_multi_max(self.CLOUD, kind, box)


# -- exactness on degenerate inputs -------------------------------------------

LATTICE = st.integers(-4, 4)
LATTICE_POINT = st.tuples(LATTICE, LATTICE)
# lattice and half-lattice query coordinates
QUERY = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(lambda p: (p[0] / 2, p[1] / 2))


@st.composite
def lattice_cases(draw):
    """An integer cloud of 3..20 points and a query point.

    Shapes: free lattice points; few distinct points, many repeated; a whole
    cloud on a lattice line through the query; a cloud symmetric about a
    lattice or half-lattice centre, so that it holds exact antipodes.
    """
    m = draw(st.integers(3, 20))
    shape = draw(st.sampled_from(["free", "duplicates", "line", "symmetric"]))
    if shape == "free":
        pts = draw(st.lists(LATTICE_POINT, min_size=m, max_size=m))
        query = draw(QUERY)
    elif shape == "duplicates":
        base = draw(st.lists(LATTICE_POINT, min_size=1, max_size=max(1, m // 3)))
        pts = draw(st.lists(st.sampled_from(base), min_size=m, max_size=m))
        query = draw(st.one_of(QUERY, st.sampled_from(base)))
    elif shape == "line":
        anchor = draw(LATTICE_POINT)
        step = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
        ts = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
        pts = [(anchor[0] + t * step[0], anchor[1] + t * step[1]) for t in ts]
        t = draw(st.integers(-8, 8)) / 2
        query = (anchor[0] + t * step[0], anchor[1] + t * step[1])
    else:
        centre = draw(QUERY)
        half = draw(st.lists(LATTICE_POINT, min_size=(m + 1) // 2, max_size=(m + 1) // 2))
        mirrored = [(2 * centre[0] - x, 2 * centre[1] - y) for x, y in half]
        pts = (half + mirrored)[:m]
        query = draw(st.one_of(st.just(centre), QUERY))
    return np.array(pts, dtype=float), np.array(query, dtype=float)


@given(lattice_cases())
@settings(max_examples=300, deadline=None)
def test_simplicial_depth_equals_brute_force_on_lattice_clouds(case):
    pts, query = case
    assert depth_of(pts, query[None, :], "simplicial")[0] == simplicial_depth_brute(pts, query)


def test_cross_with_antipodal_pairs_through_the_query():
    # (0, 1)/(0, -1) and (1, 1)/(-1, 0) lie on lines through (0, 0.5); of the
    # 10 triangles, 7 contain it
    pts = np.array([[0, 1], [0, -1], [1, 0], [-1, 0], [1, 1]], dtype=float)
    assert simplicial_depth_brute(pts, [0.0, 0.5]) == 0.7
    assert simplicial_depth(pts, [0.0, 0.5]) == 0.7
    assert depth_of(pts, [[0.0, 0.5]], "simplicial")[0] == 0.7


@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["integer", "half-integer"])
def test_batched_equals_single_query_on_symmetric_lattice_cloud(offset):
    rng = np.random.default_rng(72)
    half = rng.integers(-6, 7, size=(30, 2)).astype(float)
    cloud = np.vstack([half, -half])
    queries = rng.integers(-6, 7, size=(301, 2)) + offset
    batched = depth_of(cloud, queries, "simplicial")
    single = np.array([simplicial_depth(cloud, q) for q in queries])
    assert np.array_equal(batched, single)
    for q, d in zip(queries[:12], batched):
        assert d == simplicial_depth_brute(cloud, q)


def test_signed_zeros_give_the_same_depths():
    pts = np.array([[-0.0, 1.0], [0.0, -1.0], [1.0, -0.0], [-1.0, 0.0], [-0.0, -0.0],
                    [2.0, -0.0], [-0.0, -3.0], [1.0, 1.0], [-2.0, -0.0]])
    queries = np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, 0.5], [1.0, -0.0],
                        [-0.0, -1.0], [0.5, -0.0]])
    plus = lambda a: np.where(a == 0.0, 0.0, a)  # noqa: E731
    negative_zero = lambda a: (a == 0.0) & np.signbit(a)  # noqa: E731
    assert negative_zero(pts).any() and negative_zero(queries).any()
    assert not negative_zero(plus(pts)).any() and not negative_zero(plus(queries)).any()
    got = depth_of(pts, queries, "simplicial")
    assert np.array_equal(got, depth_of(plus(pts), plus(queries), "simplicial"))
    assert np.array_equal(got, [simplicial_depth_brute(pts, q) for q in queries])


@st.composite
def extent_arrays(draw):
    """(rows x 2) arrays of 1..300 rows: +0.0 and -0.0 mixed, with or
    without +-1 among them; or Gaussian."""
    rows = draw(st.integers(1, 300))
    values = draw(st.sampled_from([(0.0, -0.0), (0.0, -0.0, 1.0, -1.0), None]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if values is None:
        return rng.standard_normal((rows, 2))
    return np.array(values)[rng.integers(0, len(values), size=(rows, 2))]


@given(extent_arrays())
@settings(max_examples=300, deadline=None)
def test_extent_equals_the_column_reductions(a):
    for mine, reference in zip(depth_module._extent(a), extent_by_columns(a)):
        assert np.array_equal(mine, reference)
        # every bit but the sign of a zero extent, which is the order's choice
        # and reaches no result (see below); one row leaves no choice
        same = (reference != 0.0) | (a.shape[0] == 1)
        assert np.array_equal(np.signbit(mine)[same], np.signbit(reference)[same])


def test_sign_of_a_zero_extent_reaches_no_result(monkeypatch):
    # a cloud on the x axis, +0.0 and -0.0 mixed, so its extent on the y axis
    # is zero, of a sign the reduction order picks (201 rows: numpy's
    # contiguous and column reductions pick differently at this seed)
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.standard_normal(201), rng.choice([0.0, -0.0], 201)])
    regions = [Rectangle(lower=[-0.5, -1.0], upper=[0.5, 1.0]),
               Rectangle(lower=[5.0, 5.0], upper=[6.0, 6.0]),
               Halfspace(normal=[0.0, 1.0], offset=-0.5, corners=[[0.0, -0.5]])]

    def results():
        return [repr(astuple(p_value(pts, "simplicial", region))) for region in regions
                for p_value in (p_multi, p_multi_max)]

    want = results()
    for extent in (extent_by_columns,  # and each zero's sign flipped
                   lambda a: tuple(np.where(e == 0.0, -e, e) for e in extent_by_columns(a))):
        monkeypatch.setattr(depth_module, "_extent", extent)
        assert results() == want


@st.composite
def brute_cases(draw):
    """A cloud of 3..18 points and a query on an edge, at a point or anywhere.

    Shapes: Gaussian; integer lattice; all on one line; few distinct points,
    many repeated; and Gaussian with the query on the segment between two
    of its points, where cross products round to zero or just off it.
    """
    m = draw(st.integers(3, 18))
    shape = draw(st.sampled_from(["gaussian", "lattice", "line", "duplicates", "on-edge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "lattice":
        pts = rng.integers(-2, 3, size=(m, 2)).astype(float)
    elif shape == "line":
        pts = np.outer(rng.integers(-3, 4, size=m), [1.0, 2.0]) + [0.5, -1.0]
    elif shape == "duplicates":
        pts = rng.standard_normal((3, 2))[rng.integers(0, 3, size=m)]
    else:
        pts = rng.standard_normal((m, 2))
    i, j = rng.integers(0, m, size=2)
    query = draw(st.sampled_from([
        pts[i], (pts[i] + pts[j]) / 2, pts[i] + 0.25 * (pts[j] - pts[i]),
        rng.standard_normal(2), np.array([0.0, 0.0])]))
    return pts, query


@given(brute_cases(), st.sampled_from([5, depth_module.CHUNK_PAIRS]))
@settings(max_examples=150, deadline=None)
def test_brute_force_blocks_equal_the_triangle_loop(case, block):
    # a block of 5 triples splits every cloud of more than 3 points
    pts, query = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(depth_module, "CHUNK_PAIRS", block)
        got = simplicial_depth_brute(pts, query)
    assert got == simplicial_depth_loop(pts, query)


# -- the closed-form miss count ------------------------------------------------


def reference_simplicial_counts(pts, queries):
    """Reference for ``_simplicial_counts`` on the same keys: one row at a
    time, it forms 2w for every key, less twice the key's antipodes, and
    sums the misses as ((2w)^2 - 2 (2w)) / 8."""
    m = pts.shape[0]
    dx = pts[:, 0][None, :] - queries[:, 0][:, None]
    dy = pts[:, 1][None, :] - queries[:, 1][:, None]
    at_query = (dx == 0.0) & (dy == 0.0)
    lower = (dy < 0.0) | ((dy == 0.0) & (dx < 0.0))
    fdx = np.where(lower, -dx, dx)
    key = np.arctan2(np.abs(dy), fdx).view(np.uint64) << 1 | lower
    key[at_query] = np.iinfo(np.uint64).max
    key.sort(axis=1)
    e_counts = np.count_nonzero(at_query, axis=1)
    total = math.comb(m, 3)
    out = np.full(queries.shape[0], total, dtype=np.int64)
    for row, e in enumerate(e_counts):
        live = m - int(e)
        if live < 3:
            continue
        k = key[row, :live]
        flags = (k & 1).astype(np.int64)
        c = np.cumsum(flags)
        n1 = int(c[-1])
        sign = 1 - 2 * flags
        two_w = sign * (4 * c - 2 * np.arange(1, live + 1) + live - 2 * n1) + live
        # a lower key's antipodes: the upper keys of its angle
        angle = k >> 1
        antipodes = np.array([
            np.count_nonzero((angle == angle[j]) & (flags == 0)) if flags[j] else 0
            for j in range(live)
        ])
        two_w -= 2 * antipodes
        out[row] = total - (two_w @ two_w - 2 * two_w.sum()) // 8
    return out


@st.composite
def counting_cases(draw):
    """A cloud of 3..200 points with integer or Gaussian coordinates, and
    queries that include cloud points, so that queries with different
    numbers of coinciding points share one call."""
    m = draw(st.integers(3, 200))
    shape = draw(st.sampled_from(["lattice", "duplicates", "symmetric", "line", "gaussian"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centre = rng.integers(-4, 5, size=2) / 2
    if shape == "lattice":
        pts = rng.integers(-4, 5, size=(m, 2))
    elif shape == "duplicates":
        base = rng.integers(-4, 5, size=(max(1, m // 8), 2))
        pts = base[rng.integers(0, base.shape[0], size=m)]
    elif shape == "symmetric":
        half = rng.integers(-4, 5, size=((m + 1) // 2, 2))
        pts = np.vstack([half, 2 * centre - half])[:m]
    elif shape == "line":
        pts = centre + rng.integers(-6, 7, size=(m, 1)) * rng.integers(-2, 3, size=2)
    else:
        pts = rng.standard_normal((m, 2))
    pts = pts.astype(float)
    queries = np.vstack([
        pts[rng.integers(0, m, size=6)],
        rng.integers(-9, 10, size=(6, 2)) / 2,
        centre,
    ])
    return pts, queries


@given(counting_cases())
@settings(max_examples=200, deadline=None)
def test_closed_form_counts_equal_materialised_counts(case):
    pts, queries = case
    got = _simplicial_counts(pts, queries)
    assert got.dtype == np.int64
    assert got.tolist() == reference_simplicial_counts(pts, queries).tolist()


@pytest.mark.parametrize("m", [500, 2000])
def test_closed_form_counts_on_gaussian_clouds(m):
    pts = np.random.default_rng(81).standard_normal((m, 2))
    queries = np.vstack([pts[:10], [[0.0, 0.0], [5.0, 5.0]]])
    assert _simplicial_counts(pts, queries).tolist() == (
        reference_simplicial_counts(pts, queries).tolist())


@pytest.mark.parametrize("shape", ["distinct", "doubled", "one-position", "mixed"])
def test_rows_sharing_their_at_query_count_are_one_group(shape):
    rng = np.random.default_rng(82)
    base = rng.standard_normal((40, 2))
    pts = {"distinct": base, "doubled": np.vstack([base, base]),
           "one-position": np.tile(base[:1], (40, 1)), "mixed": np.vstack([base, base[:5]])}[shape]
    got = _simplicial_counts(pts, pts)
    assert got.tolist() == reference_simplicial_counts(pts, pts).tolist()
    # every row of the first three clouds is at e = 1, 2 and 40 points
    dx = pts[None, :, 0] - pts[:, None, 0]
    dy = pts[None, :, 1] - pts[:, None, 1]
    key = np.where((dx == 0) & (dy == 0), depth_module._KEY_AT_QUERY, 0).astype(np.uint64)
    key.sort(axis=1)
    groups = depth_module._live_groups(key, (dx == 0) & (dy == 0))
    assert len(groups) == (2 if shape == "mixed" else 1)


# -- a region of the wrong dimension costs no depth work ------------------------


@pytest.fixture
def depth_calls(monkeypatch):
    """The name of each depth or bound evaluation of a checked cloud: the
    core that ``depth_of`` and the p-values share."""
    calls = []
    for name in ("depths", "bounds"):
        real = getattr(depth_module._CheckedCloud, name)

        def counting(self, *args, name=name, real=real):
            calls.append(name)
            return real(self, *args)

        monkeypatch.setattr(depth_module._CheckedCloud, name, counting)
    return calls


def test_wrong_region_dimension_fails_before_any_depth(depth_calls, tmp_path, capsys, table1):
    box = Rectangle(lower=[-0.1] * 3, upper=[0.1] * 3)
    cloud = np.random.default_rng(82).standard_normal((300, 2))
    for p_value in (p_multi, p_multi_max):
        with pytest.raises(ValueError, match="region dimension 3 differs from the cloud's 2"):
            p_value(cloud, "simplicial", box)
    csv_path = tmp_path / "table1.csv"
    csv_path.write_text("".join(f"{a},{b}\n" for a, b in table1))
    cfg = tmp_path / "box3.cfg"
    cfg.write_text("shape = rectangle\nlo = -0.1, -0.1, -0.1\nhi = 0.1, 0.1, 0.1\n")
    code = main(["pval2d", "--input", str(csv_path), "--config", str(cfg),
                 "--depth", "simplicial", "--boot-reps", "2000"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"]["message"] == (
        "region dimension 3 differs from the cloud's 2")
    assert depth_calls == []


class TestTooFewPoints:
    """An empty cloud, and a one-point cloud for Mahalanobis depth, are named
    errors raised before any query is checked, and no numpy warning comes
    first."""

    BOX = Rectangle(lower=[-1.0, -1.0], upper=[1.0, 1.0],
                    corners=[[-1.0, -1.0], [1.0, 1.0]])

    def raises(self, message, fn, *args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                fn(*args, **kwargs)

    @pytest.mark.parametrize("kind", ["simplicial", "mahalanobis"])
    def test_empty_cloud_is_rejected(self, kind):
        cloud = np.zeros((0, 2))
        self.raises("cloud has no points", depth_of, cloud, [[0.0, 0.0]], kind)
        self.raises("cloud has no points",
                    lambda: depth_module._CheckedCloud.check(cloud, kind).bounds())
        self.raises("cloud has no points", p_multi, cloud, kind, self.BOX)
        self.raises("cloud has no points", p_multi_max, cloud, kind, self.BOX)

    def test_one_point_cloud_is_rejected_for_mahalanobis_depth(self):
        message = "Mahalanobis depth needs at least 2 cloud points, got 1"
        cloud = np.zeros((1, 2))
        self.raises(message, depth_of, cloud, [[0.0, 0.0]], "mahalanobis")
        self.raises(message, mahalanobis_depth, cloud, [0.0, 0.0])
        self.raises(message, p_multi, cloud, "mahalanobis", self.BOX)
        self.raises(message, p_multi_max, cloud, "mahalanobis", self.BOX)
        # simplicial depth keeps its own minimum
        self.raises("simplicial depth needs at least 3 cloud points, got 1",
                    depth_of, cloud, [[0.0, 0.0]], "simplicial")

    # (id, cloud, queries, kind, message): earlier checks win
    PRECEDENCE = [
        ("kind-before-empty", np.zeros((0, 2)), [[0.0, 0.0]], "tukey",
         "unknown depth kind 'tukey'; expected one of ('mahalanobis', 'simplicial')"),
        ("dimension-before-empty", np.zeros((0, 3)), [[0.0, 0.0, 0.0]], "simplicial",
         "simplicial depth is implemented for 2-D clouds only"),
        ("empty-before-query-dimension", np.zeros((0, 2)), [[0.0, 0.0, 0.0]], "mahalanobis",
         "cloud has no points"),
        ("one-point-before-query-values", np.zeros((1, 2)), [[np.nan, 0.0]], "mahalanobis",
         "Mahalanobis depth needs at least 2 cloud points, got 1"),
        ("non-finite-before-one-point", np.full((1, 2), np.inf), [[0.0, 0.0]], "mahalanobis",
         "cloud contains non-finite values"),
    ]

    @pytest.mark.parametrize("cloud,queries,kind,message",
                             [case[1:] for case in PRECEDENCE],
                             ids=[case[0] for case in PRECEDENCE])
    def test_error_precedence(self, cloud, queries, kind, message):
        self.raises(re.escape(message), depth_of, cloud, queries, kind)


class TestNegativeSeed:
    """A negative integer seed, alone or in a sequence, is named where it enters
    the library, not with numpy's "expected non-negative integer"."""

    DATA = np.random.default_rng(3).standard_normal((12, 2))

    @pytest.mark.parametrize("seed,bad", [(-1, -1), (np.int64(-2), -2), ([4, -3], -3),
                                          ((0, 1, -7), -7), (np.array([5, -9]), -9)])
    def test_negative_seed_is_named(self, seed, bad):
        message = f"^seed must be >= 0, got {bad}$"
        with pytest.raises(ValueError, match=message):
            resample_means(self.DATA, 100, seed)
        with pytest.raises(ValueError, match=message):
            bootstrap_cloud(self.DATA, 100, seed=seed)
        with pytest.raises(ValueError, match=message):
            make_bootstrap_cd(self.DATA[:, 0], 100, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**40, [7, 0, 1], (3, 2**33), np.uint32(5)])
    def test_other_seeds_give_numpy_streams(self, seed):
        # the means of resample_means equal a gather and mean of numpy's own draw
        idx = np.random.default_rng(seed).integers(0, 12, size=(100, 12))
        assert np.array_equal(resample_means(self.DATA, 100, seed), self.DATA[idx].mean(axis=1))

    def test_generator_seed_is_passed_on(self):
        cloud = bootstrap_cloud(self.DATA, 100, seed=np.random.default_rng(11))
        assert np.array_equal(cloud.points, bootstrap_cloud(self.DATA, 100, seed=11).points)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_covariance_is_named_without_a_warning():
    # finite points whose squared deviations overflow the covariance
    cloud = np.random.default_rng(4).choice([-1e300, 1e300], size=(200, 2))
    box = Rectangle(lower=[-1.0, -1.0], upper=[1.0, 1.0])
    message = "degenerate cloud: covariance is singular or ill-conditioned"
    with pytest.raises(ValueError, match=f"^{message}$"):
        p_multi(cloud, "mahalanobis", box)
    with pytest.raises(ValueError, match=f"^{message}$"):
        depth_of(cloud, [[0.0, 0.0]], "mahalanobis")

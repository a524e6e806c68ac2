"""Bootstrap clouds, data depth, and depth-based multivariate p-values.

The multivariate p-value combines two fractions over a cloud of bootstrap
replicate estimates: the share of replicates inside the null region, plus
the share of replicates outside it whose depth does not exceed the depth
floor of the region (the least-deep inside replicate, or a deterministic
boundary grid when nothing falls inside).  A boundary-max variant takes the
maximum with singleton p-values at designated corner points.  Both return a
``MultiPValue`` (the corner p-values in ``corner_p``) and are selected by name
through ``MULTI_METHODS``; their ``threads`` reach every depth computation.

``resample_means`` draws a cloud's indices at once but gathers and sums them
in blocks of ``max(1, CHUNK_PAIRS // n)`` replicates, so a cloud of m
replicates of n rows peaks at its (m x n) index draw plus one block.

``depth_of`` is the one place that decides how depths are computed.
Simplicial depth runs in chunks of ``max(1, CHUNK_PAIRS // m)`` queries, so
memory stays bounded as the cloud grows for every caller; the chunks may run
on a thread pool and are joined in index order, so the depths do not depend
on the worker count.  Mahalanobis depth needs only O(queries) memory and is
computed in one pass.  Both reject non-finite clouds and queries.

Simplicial depth follows the angular sweep of Rousseeuw & Ruts (AS 307,
1996) without any search: each direction from a query is folded into the
upper half-plane by exact negation and sorted as one integer key, the bits of
its folded ``arctan2`` angle with a lower-half flag appended.  A direction and
its exact antipode share an angle and differ only in the flag, so antipodes
and repeated directions are recognised by integer equality, and the number
of triangles missing the query follows in closed form from four row sums of
one running count of the flags (see ``_simplicial_counts``).  Distinct but
nearly collinear directions are still ordered by the float angle.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .regions import RegionND

__all__ = [
    "BootstrapCloud",
    "bootstrap_cloud",
    "mahalanobis_depth",
    "simplicial_depth",
    "simplicial_depth_brute",
    "depth_of",
    "parallel_map_indexed",
    "MultiPValue",
    "p_multi",
    "p_multi_max",
]

DEPTH_KINDS = ("mahalanobis", "simplicial")

# (query, cloud point) pairs held at once by one chunk of simplicial depths,
# and (replicate, row) indices gathered at once by one resampling block
CHUNK_PAIRS = 1 << 15

# sort key of a cloud point at the query: above every folded-angle key
_KEY_AT_QUERY = np.iinfo(np.uint64).max


@dataclass(frozen=True, eq=False)
class BootstrapCloud:
    """Replicate estimates (m x k), reproducible from the stored seed."""

    points: np.ndarray
    seed: object
    source_shape: tuple[int, int] = (0, 0)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def resample_means(x: np.ndarray, reps: int, seed) -> np.ndarray:
    """Means of ``reps`` resamples, with replacement, of the rows of the
    (n x k) matrix ``x``, as a (reps x k) array; k is 1 or 2.

    The indices are one ``rng.integers(0, n, size=(reps, n))`` draw, and
    the means equal ``x[idx].mean(axis=1)`` bit for bit.  The draw is
    gathered and summed in blocks of ``max(1, CHUNK_PAIRS // n)``
    replicates, so the memory held at once is the draw plus one block
    rather than twice the draw.  ``np.take`` gathers several times faster
    than fancy indexing.  For k = 1 a block is gathered as (block x n),
    whose contiguous n axis numpy sums pairwise, as it does for
    ``x[idx]``.  For k = 2 numpy sums each replicate in plain order over
    n, and reducing the middle axis of (block x n x 2) is slow, so the
    transposed block is gathered as (n x block x 2) and summed along its
    outer axis, in the same order; a block of one replicate is no
    exception, since its inner axis still holds the 2 columns.
    """
    n, k = x.shape
    idx = np.random.default_rng(seed).integers(0, n, size=(reps, n))
    out = np.empty((reps, k))
    step = max(1, CHUNK_PAIRS // n)
    for start in range(0, reps, step):
        rows = slice(start, start + step)
        if k == 1:
            out[rows, 0] = np.take(x[:, 0], idx[rows]).mean(axis=1)
        else:
            out[rows] = np.take(x, idx[rows].T, axis=0).sum(axis=0) / n
    return out


def bootstrap_cloud(data, reps: int, seed) -> BootstrapCloud:
    """Resample rows with replacement and collect the replicate mean vectors
    (see ``resample_means`` for the summation order kept per k)."""
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("data must be an (n >= 2) x k matrix")
    if x.shape[1] not in (1, 2):
        raise ValueError(f"supported dimensions are k in {{1, 2}}, got k={x.shape[1]}")
    if not np.isfinite(x).all():
        raise ValueError("data contains non-finite values")
    if reps < 100:
        raise ValueError(f"need reps >= 100, got {reps}")
    n = x.shape[0]
    points = resample_means(x, reps, seed)
    stored = tuple(seed) if isinstance(seed, (list, tuple)) else seed
    return BootstrapCloud(points=points, seed=stored, source_shape=(n, x.shape[1]))


def _cloud_points(cloud) -> np.ndarray:
    pts = cloud.points if isinstance(cloud, BootstrapCloud) else np.asarray(cloud, dtype=float)
    return np.atleast_2d(pts)


# -- Mahalanobis depth -------------------------------------------------------


def _mahalanobis_batch(pts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    mu = pts.mean(axis=0)
    cov = np.atleast_2d(np.cov(pts.T, ddof=1))
    if not np.isfinite(cov).all() or 1.0 / np.linalg.cond(cov) < 1e-12:
        raise ValueError("degenerate cloud: covariance is singular or ill-conditioned")
    centered = queries - mu
    q = np.einsum("ij,jk,ik->i", centered, np.linalg.inv(cov), centered)
    return 1.0 / (1.0 + q)


def mahalanobis_depth(cloud, w) -> float:
    """Depth 1 / (1 + squared Mahalanobis distance) under the cloud's own
    mean and covariance; equals 1 exactly at the cloud mean."""
    return float(depth_of(cloud, w, "mahalanobis")[0])


# -- simplicial depth (2-D, exact) -------------------------------------------


def _simplicial_counts(pts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Number of closed cloud-point triangles containing each query point.

    Counting is by complement: a closed triangle misses the query exactly
    when its three directions from the query fit in an open half-plane, so
    each missing triangle is counted once, at its first direction in
    counterclockwise order, as a pair among the w directions that lie in that
    direction's open counterclockwise half-circle.  Points coinciding with the
    query make every triangle through them a hit.

    Directions are compared as folded-angle keys.  Each direction (dx, dy)
    is folded into the upper half-plane by exact negation (lower when
    dy < 0, or dy == 0 and dx < 0), and its key is the bit pattern of the
    nonnegative ``arctan2`` of the folded direction, shifted left one bit,
    with the lower flag in the low bit.  A direction and its exact antipode
    therefore share one angle and differ only in the low bit, and equal
    directions share a key.  In a
    row of L live keys sorted ascending, with f the lower flag, c its
    inclusive running count and s = 2 c - p at the 1-based position p, an
    upper direction sees w = n0 + s and a lower one w = n1 - s directions in
    its open half-circle (n0, n1: the numbers of upper and lower directions),
    less, for a lower direction, the upper directions of the same angle,
    which are its exact antipodes.  Equal keys are ordered by sort position.
    The sign of a zero never reaches a key: the folded dy is ``|dy|``, and
    ``arctan2(y, +0.0) == arctan2(y, -0.0)`` for y > 0.

    The misses, the sum of w (w - 1) / 2, are read from four per-row sums
    without forming w.  With K = n0 - n1 = L - 2 n1, u = 4 c - 2 p + K and
    the sign σ = 1 - 2 f, 2 w = σ u + L, so that

        8 * misses = Σ u² + (2 L - 2) Σ σ u + L³ - 2 L².

    The identities Σ f c = n1 (n1 + 1) / 2 and Σ f p = (L + 1) n1 - Σ c
    give Σ σ u = -L, hence 8 * misses = Σ u² + L³ - 4 L² + 2 L, and Σ u²
    expands into n1, Σ c, Σ c² and Σ c p.  On a row with exact antipodes,
    a lower direction with a antipodes and w = n1 + p - 2 c adds
    a (a + 1 - 2 w) / 2 to the misses.  All sums are exact in int64.
    """
    m = pts.shape[0]
    if m < 3:
        raise ValueError(f"simplicial depth needs at least 3 cloud points, got {m}")
    dx = pts[:, 0][None, :] - queries[:, 0][:, None]
    dy = pts[:, 1][None, :] - queries[:, 1][:, None]
    at_query = (dx == 0.0) & (dy == 0.0)
    lower = (dy < 0.0) | ((dy == 0.0) & (dx < 0.0))
    # fold: (dx, dy) -> (-dx, |dy|) where lower; multiplying by -1 is exact
    np.multiply(dx, 1 - 2 * lower.view(np.int8), out=dx)
    np.abs(dy, out=dy)
    key = np.arctan2(dy, dx, out=dy).view(np.uint64)
    key <<= 1
    key |= lower
    key[at_query] = _KEY_AT_QUERY  # sorted past every direction
    key.sort(axis=1)
    e_counts = np.count_nonzero(at_query, axis=1)
    total = math.comb(m, 3)
    out = np.full(queries.shape[0], total, dtype=np.int64)
    work = dx.view(np.int64)  # the differences are spent; reuse their memory
    for e in np.unique(e_counts):
        live = m - int(e)
        if live < 3:
            continue  # <=2 usable directions: no triple avoids the query
        rows = np.nonzero(e_counts == e)[0]
        k = key[:, :live] if rows.size == key.shape[0] else key[rows, :live]
        c = work[: rows.size, :live]  # in turn: neighbour xor, flags, counts
        # an upper key followed by the lower key of the same angle marks a
        # row holding an exact antipodal pair
        np.bitwise_xor(k[:, 1:], k[:, :-1], out=c[:, 1:].view(np.uint64))
        pairs = np.nonzero((c[:, 1:] == 1).any(axis=1))[0]
        np.bitwise_and(k.view(np.int64), 1, out=c)
        np.cumsum(c, axis=1, out=c)
        n1 = c[:, -1]
        pos = np.arange(1, live + 1)
        c_sum = c.sum(axis=1)
        # 8 * misses = sum u^2 + L^3 - 4 L^2 + 2 L, u = 4 c - 2 p + K
        n_diff = live - 2 * n1  # K
        p_sum = live * (live + 1) // 2
        pp_sum = p_sum * (2 * live + 1) // 3
        miss8 = 16 * (np.einsum("ij,ij->i", c, c) - np.einsum("ij,j->i", c, pos))
        miss8 += 8 * n_diff * c_sum + n_diff * (live * n_diff - 4 * p_sum)
        miss8 += 4 * pp_sum + live * (live * (live - 4) + 2)
        if pairs.size:
            # a lower key's w = n1 + p - 2 c drops by its a antipodes, which
            # changes w (w - 1) / 2 by a (a + 1 - 2 w) / 2
            a = _antipodes(k[pairs])
            w = n1[pairs, None] + pos - 2 * c[pairs]
            miss8[pairs] += 4 * np.einsum("ij,ij->i", a, a + 1 - 2 * w)
        out[rows] = total - miss8 // 8
    return out


def _antipodes(keys: np.ndarray) -> np.ndarray:
    """Per sorted key: for a lower direction, the number of upper directions
    with the same angle (its exact antipodes); 0 for an upper direction.

    Within a run of equal angles the upper keys sort first, so that number
    is the distance from the start of the angle's run to the start of the
    key's own run.
    """
    return _run_starts(keys) - _run_starts(keys >> 1)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Per position of each sorted row, the first position of its run of
    equal values."""
    pos = np.arange(values.shape[1])
    new_run = np.ones(values.shape, dtype=bool)
    new_run[:, 1:] = values[:, 1:] != values[:, :-1]
    return np.maximum.accumulate(np.where(new_run, pos, 0), axis=1)


def simplicial_depth(cloud, w) -> float:
    """Exact sample simplicial depth of a 2-vector: the fraction of closed
    cloud triangles containing it."""
    return float(depth_of(cloud, w, "simplicial")[0])


def simplicial_depth_brute(cloud, w) -> float:
    """Reference implementation: enumerate all C(m, 3) closed triangles."""
    pts = _cloud_points(cloud)
    w = np.asarray(w, dtype=float)
    m = pts.shape[0]
    if m < 3:
        raise ValueError(f"simplicial depth needs at least 3 cloud points, got {m}")
    count = 0
    for i in range(m - 2):
        for j in range(i + 1, m - 1):
            for k in range(j + 1, m):
                count += _triangle_contains(pts[i], pts[j], pts[k], w)
    return count / math.comb(m, 3)


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _triangle_contains(a, b, c, w) -> bool:
    orient = _cross(a, b, c)
    if orient != 0.0:
        s1, s2, s3 = _cross(a, b, w), _cross(b, c, w), _cross(c, a, w)
        return (s1 >= 0.0 and s2 >= 0.0 and s3 >= 0.0) or (
            s1 <= 0.0 and s2 <= 0.0 and s3 <= 0.0
        )
    # degenerate triangle: containment means lying on the covered segment
    base, other = (a, b) if (a[0] != b[0] or a[1] != b[1]) else (a, c)
    if base[0] == other[0] and base[1] == other[1]:
        return bool(np.all(w == a))
    if _cross(base, other, w) != 0.0:
        return False
    xs = (a[0], b[0], c[0])
    ys = (a[1], b[1], c[1])
    return min(xs) <= w[0] <= max(xs) and min(ys) <= w[1] <= max(ys)


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def parallel_map_indexed(fn, count: int, threads: int) -> list:
    """Evaluate fn(i) for i in range(count); results ordered by index, so the
    outcome is independent of the worker count (which must be at least 1)."""
    _check_threads(threads)
    if threads == 1:
        return list(map(fn, range(count)))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def depth_of(cloud, queries, kind: str, threads: int = 1) -> np.ndarray:
    """Depths of many query points with respect to the cloud.

    Simplicial depths are computed in chunks of ``CHUNK_PAIRS // m`` queries
    on ``threads`` workers; the result is the same for any worker count.
    A cloud or queries holding NaN or infinity, or queries of another
    dimension than the cloud, are rejected, and so is a worker count below 1.
    """
    _check_threads(threads)
    pts = _cloud_points(cloud)
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if q.shape[1] != pts.shape[1]:
        raise ValueError(f"query dimension {q.shape[1]} differs from the cloud's {pts.shape[1]}")
    if not np.isfinite(pts).all():
        raise ValueError("cloud contains non-finite values")
    if not np.isfinite(q).all():
        raise ValueError("queries contain non-finite values")
    if kind == "mahalanobis":
        return _mahalanobis_batch(pts, q)
    if kind == "simplicial":
        if pts.shape[1] != 2:
            raise ValueError("simplicial depth is implemented for 2-D clouds only")
        rows = max(1, CHUNK_PAIRS // pts.shape[0])
        parts = parallel_map_indexed(
            lambda i: _simplicial_counts(pts, q[i * rows: (i + 1) * rows]),
            max(1, -(-q.shape[0] // rows)),  # one empty chunk for zero queries
            threads,
        )
        return np.concatenate(parts) / math.comb(pts.shape[0], 3)
    raise ValueError(f"unknown depth kind {kind!r}; expected one of {DEPTH_KINDS}")


# -- depth-based p-values -----------------------------------------------------


@dataclass(frozen=True)
class MultiPValue:
    """Region p-value split into its inside and low-depth tail shares, with the
    corner p-values that ``p_multi_max`` took the maximum of."""

    p: float
    esp: float          # fraction of replicates inside the region
    tail: float         # fraction outside with depth <= the floor
    depth_floor: float
    floor_source: str   # "inside-replicates" | "boundary-grid"
    corner_p: tuple[float, ...] = ()

    @property
    def base(self) -> MultiPValue:
        """The region p-value without the corner maximum."""
        return replace(self, p=min(self.esp + self.tail, 1.0), corner_p=())


def _grid_box(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.05 * np.maximum(hi - lo, 1e-12)
    return lo - pad, hi + pad


def check_region_dim(region: RegionND, dim: int) -> None:
    """Reject a region of another dimension than the cloud's; callers check
    before computing any depth."""
    if region.dim != dim:
        raise ValueError(f"region dimension {region.dim} differs from the cloud's {dim}")


# _depths: replicate depths already computed; p_multi_max and the benchmark's traced replay pass it
def p_multi(cloud, kind: str, region: RegionND, threads: int = 1, _depths=None) -> MultiPValue:
    """Inside fraction plus the low-depth outside fraction.

    The depth floor is the smallest depth among replicates inside the
    region; when none falls inside it is the smallest depth over a
    deterministic grid on the region boundary spanning the cloud's bounding
    box.  Outside replicates at or below the floor count into the tail.
    Depths run on ``threads`` workers, with the same result for any count.
    A region of another dimension than the cloud is rejected.
    """
    pts = _cloud_points(cloud)
    check_region_dim(region, pts.shape[1])
    inside = region.contains(pts)
    depths = depth_of(pts, pts, kind, threads) if _depths is None else _depths
    esp = float(inside.mean())
    if inside.any():
        floor = float(depths[inside].min())
        source = "inside-replicates"
    else:
        grid = region.boundary_grid(*_grid_box(pts))
        floor = float(depth_of(pts, grid, kind, threads).min())
        source = "boundary-grid"
    tail = float(((~inside) & (depths <= floor)).mean())
    return MultiPValue(
        p=min(esp + tail, 1.0), esp=esp, tail=tail, depth_floor=floor, floor_source=source
    )


def p_multi_max(cloud, kind: str, region: RegionND, threads: int = 1) -> MultiPValue:
    """Max of the region p-value and singleton p-values at designated corners."""
    pts = _cloud_points(cloud)
    if region.corners.size == 0:
        raise ValueError("region has no designated corner points")
    check_region_dim(region, pts.shape[1])
    depths = depth_of(pts, pts, kind, threads)
    base = p_multi(pts, kind, region, threads, _depths=depths)
    corner_depths = depth_of(pts, region.corners, kind, threads)
    corner_p = tuple(float((depths <= d).mean()) for d in corner_depths)
    return replace(base, p=max(base.p, *corner_p), corner_p=corner_p)


# bivariate method name -> depth p-value; univariate methods are support.METHODS
MULTI_METHODS = {"multi": p_multi, "multi-max": p_multi_max}

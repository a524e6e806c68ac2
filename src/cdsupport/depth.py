"""Bootstrap clouds, data depth, and depth-based multivariate p-values.

The multivariate p-value combines two fractions over a cloud of bootstrap
replicate estimates: the share of replicates inside the null region, plus
the share of replicates outside it whose depth does not exceed the depth
floor of the region (the least-deep inside replicate, or a deterministic
boundary grid when nothing falls inside).  A boundary-max variant takes the
maximum with singleton p-values at designated corner points.  Both return a
``MultiPValue`` (the corner p-values in ``corner_p``) and are selected by name
through ``MULTI_METHODS``; their ``threads`` reach every depth computation.

``resample_means`` draws, gathers and sums a cloud's indices in blocks of
``max(1, CHUNK_PAIRS // n)`` replicates from one generator, so a cloud of m
replicates of n rows holds one block at a time, not its (m x n) index draw.

``_CheckedCloud`` is the one place that decides how depths are computed.
Simplicial depth runs in chunks of ``max(1, CHUNK_PAIRS // m)`` queries, so
memory stays bounded as the cloud grows for every caller; the chunks may run
on a thread pool and are joined in index order, so the depths do not depend
on the worker count.  Mahalanobis depth needs only O(queries) memory and is
computed in one pass, from the cloud's mean and inverse covariance.

The checks run where input enters: ``depth_of`` and ``_depth_bounds`` check
the cloud and their one query set, and the p-values check the cloud once
and each query set they evaluate (the replicates, the boundary grid, the
corners) once, then evaluate through the same unchecked core.  They reject
non-finite clouds and queries, and coordinates whose range over the cloud
and queries overflows on some axis, where differences, and so depths,
would be wrong.  A p-value derives the Mahalanobis factors once.

Simplicial depth follows the angular sweep of Rousseeuw & Ruts (AS 307,
1996) without any search: each direction from a query is folded into the
upper half-plane by exact negation and sorted as one integer key, the bits of
its folded ``arctan2`` angle with a lower-half flag appended.  A direction and
its exact antipode share an angle and differ only in the flag, so antipodes
and repeated directions are recognised by integer equality, and the number
of triangles missing the query follows in closed form from four row sums of
one running count of the flags (see ``_simplicial_counts``).  Distinct but
nearly collinear directions are still ordered by the float angle.

The p-values never need every replicate's exact depth: only the floor, and
which replicates lie at or below the floor or a corner depth.  So they first
screen with ``_depth_bounds``: each query's directions are counted into
``SECTORS`` sectors of their diamond angle, and triples are counted by
sectors.  A computed diamond angle is a few ulps from the exact one, so a
computed sector is at most one off, the triples that fit in H - 1
consecutive sectors (H = SECTORS / 2, a half-circle) surely miss the query,
and those that miss it surely fit in H + 2; this brackets the kernel's own
count on every input.  When the queries are the cloud itself, as the
replicates are, each unordered pair's sector is computed once, in square
tiles over the upper triangle of the pair matrix, and counted for both of
its points, the reverse direction half a circle on; other query sets are
tiled in chunks of queries against the whole cloud.  Either way the
finished histograms are counted in blocks of ``CHUNK_PAIRS // (2 *
SECTORS)`` queries by one kernel, ``_count_bounds``.  Exact depths are
then computed only for the replicates or grid points whose bounds hold
the floor or a corner depth: 12-22% of the replicates for ``p_multi_max``
at seed 1 of the benchmark, whose corner depths sit in the dense middle of
the depth distribution.

``p_multi`` often needs no screen at all.  Every cloud point has simplicial
depth at least C(m - 1, 2) / C(m, 3), and only vertices of the convex hull
reach it (Liu, Ann. Statist. 18, 1990), so when a hull vertex lies inside
the region that is the floor, and only outside hull vertices can join the
tail.  ``_CheckedCloud.least_bounds`` codes the sectors from the points
extreme along 16 fixed axes (5 to 14 distinct witnesses, about 10) to every
replicate, and certifies a witness at exactly that depth and most other
replicates above it; the screen runs only when no inside witness is
certified.  At seed 1 of the benchmark it decides 209 of the 250 ``p_multi``
replications on the ``run_part2`` regions (m = 500: all 200 of regions a-d,
9 of 50 of the small box), which then compute exact depths for 0-2% of the
replicates, and 6 of 40 of the one-shot library queries (m = 2000).  Every
decision compares depths that are exact or surely on one side of the
threshold, so the p-values equal those from all exact depths, bit for bit.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from functools import cached_property

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

# sectors per direction histogram in ``_depth_bounds``: a power of two, so
# that scaling a diamond angle by SECTORS / 4 is exact
SECTORS = 128

# codes of a direction in ``_sector_histograms``: the sectors, t = 4, at the query
_WIDTH = SECTORS + 2
# code of the reverse direction of a code, once t = 4 is folded into sector 0
_REVERSE = np.r_[(np.arange(SECTORS) + SECTORS // 2) % SECTORS, SECTORS, SECTORS + 1]

# (16 x 2) unit vectors at angles k pi / 16; the points least and most along
# each are the witnesses of ``_CheckedCloud.least_bounds``
_WITNESS_AXES = np.array([[math.cos(k * math.pi / 16), math.sin(k * math.pi / 16)]
                          for k in range(16)])


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


def _check_seed(seed) -> None:
    """Reject a negative integer seed, alone or as an entry of a sequence,
    with a message that names it; generators and other seeds go to numpy."""
    for entry in seed if isinstance(seed, (list, tuple, np.ndarray)) else [seed]:
        if isinstance(entry, (int, np.integer)) and entry < 0:
            raise ValueError(f"seed must be >= 0, got {int(entry)}")


def resample_means(x: np.ndarray, reps: int, seed) -> np.ndarray:
    """Means of ``reps`` resamples, with replacement, of the rows of the
    (n x k) matrix ``x``, as a (reps x k) array; k is 1 or 2.

    The indices equal one ``rng.integers(0, n, size=(reps, n))`` draw, and
    the means equal ``x[idx].mean(axis=1)`` bit for bit.  They are drawn,
    gathered and summed in blocks of ``max(1, CHUNK_PAIRS // n)``
    replicates from the one generator, whose consecutive draws continue one
    stream (an odd-sized block included), so the memory held at once is one
    block rather than the whole draw.  ``np.take`` gathers several times
    faster than fancy indexing.  For k = 1 a block is gathered as (block x n),
    whose contiguous n axis numpy sums pairwise, as it does for
    ``x[idx]``.  For k = 2 numpy sums each replicate in plain order over
    n, and reducing the middle axis of (block x n x 2) is slow, so the
    transposed block is gathered as (n x block x 2) and summed along its
    outer axis, in the same order; a block of one replicate is no
    exception, since its inner axis still holds the 2 columns.
    """
    n, k = x.shape
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    out = np.empty((reps, k))
    step = max(1, CHUNK_PAIRS // n)
    for start in range(0, reps, step):
        idx = rng.integers(0, n, size=(min(step, reps - start), n))
        rows = slice(start, start + step)
        if k == 1:
            out[rows, 0] = np.take(x[:, 0], idx).mean(axis=1)
        else:
            out[rows] = np.take(x, idx.T, axis=0).sum(axis=0) / n
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


def _mahalanobis_factors(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cloud's mean and inverse covariance; a singular, ill-conditioned or
    overflowing covariance is rejected, with no numpy warning first."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = pts.mean(axis=0)
        cov = np.atleast_2d(np.cov(pts.T, ddof=1))
    if not np.isfinite(cov).all() or 1.0 / np.linalg.cond(cov) < 1e-12:
        raise ValueError("degenerate cloud: covariance is singular or ill-conditioned")
    return mu, np.linalg.inv(cov)


def _mahalanobis_batch(mu: np.ndarray, inv_cov: np.ndarray, queries: np.ndarray) -> np.ndarray:
    centered = queries - mu
    q = np.einsum("ij,jk,ik->i", centered, inv_cov, centered)
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
    outcome is independent of the worker count (which must be at least 1).
    The thread pool module loads on the first call with more than one."""
    _check_threads(threads)
    if threads == 1:
        return list(map(fn, range(count)))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


@dataclass(frozen=True, eq=False)
class _CheckedCloud:
    """A cloud that passed the cloud checks of ``depth_of`` for one depth kind
    and worker count.

    ``queries`` runs the checks of one query set against it; ``depths`` and
    ``bounds`` evaluate checked query sets without checking again, and
    ``least_bounds`` bounds the depths of the cloud's own points.  The
    Mahalanobis mean and inverse covariance are derived on first use and
    kept, so a p-value that evaluates several query sets derives them once.
    """

    pts: np.ndarray
    kind: str
    threads: int

    @classmethod
    def check(cls, cloud, kind: str, threads: int) -> _CheckedCloud:
        _check_threads(threads)
        pts = _cloud_points(cloud)
        if not np.isfinite(pts).all():
            raise ValueError("cloud contains non-finite values")
        if kind not in DEPTH_KINDS:
            raise ValueError(f"unknown depth kind {kind!r}; expected one of {DEPTH_KINDS}")
        if kind == "simplicial" and pts.shape[1] != 2:
            raise ValueError("simplicial depth is implemented for 2-D clouds only")
        if pts.shape[0] == 0:
            raise ValueError("cloud has no points")
        if kind == "mahalanobis" and pts.shape[0] < 2:
            raise ValueError(
                f"Mahalanobis depth needs at least 2 cloud points, got {pts.shape[0]}")
        return cls(pts, kind, threads)

    def queries(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """The query points as a float array, and the per-axis range of the
        cloud and queries together, after the checks every query set gets."""
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        if q.shape[1] != self.pts.shape[1]:
            raise ValueError(
                f"query dimension {q.shape[1]} differs from the cloud's {self.pts.shape[1]}")
        if not np.isfinite(q).all():
            raise ValueError("queries contain non-finite values")
        span = _span(self.pts, q)
        if not np.isfinite(span).all():
            axis = int(np.argmin(np.isfinite(span)))
            raise ValueError(
                f"coordinate range overflows: cloud and query values on axis {axis} "
                "differ by more than the largest float")
        return q, span

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        return _mahalanobis_factors(self.pts)

    def depths(self, q: np.ndarray) -> np.ndarray:
        """Exact depths of checked queries: the core of ``depth_of``."""
        if self.kind == "mahalanobis":
            return _mahalanobis_batch(*self.factors, q)
        m = self.pts.shape[0]
        return _in_blocks(lambda rows: _simplicial_counts(self.pts, q[rows]), q.shape[0],
                          max(1, CHUNK_PAIRS // m), self.threads) / math.comb(m, 3)

    def bounds(self, q: np.ndarray, span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds on the depths of checked queries with range ``span``: the
        core of ``_depth_bounds``."""
        if self.kind == "mahalanobis":
            depths = self.depths(q)
            return depths, depths
        m = self.pts.shape[0]
        if m < 3:
            raise ValueError(f"simplicial depth needs at least 3 cloud points, got {m}")
        hist = _sector_histograms(self.pts, q, self.threads)
        lo, hi = _in_blocks(lambda rows: _count_bounds(hist[rows], m), q.shape[0],
                            max(1, CHUNK_PAIRS // (2 * SECTORS)), self.threads).T
        total = math.comb(m, 3)
        with np.errstate(over="ignore"):
            if not np.isfinite(span.sum()):
                # only here can |dx| + |dy| overflow; those rows lose their sectors
                over = [np.isinf(np.abs(self.pts - point).sum(axis=1)).any() for point in q]
                lo[over], hi[over] = 0, total
        return lo / total, hi / total

    def least_bounds(self, inside: np.ndarray, span: np.ndarray):
        """Bounds on the simplicial depths of the cloud's own points that
        certify the least one, or None.

        Every point of the cloud has depth at least C(m - 1, 2) / C(m, 3),
        and only vertices of its convex hull reach it.  The witnesses are the
        points least and most along each of ``_WITNESS_AXES``, so hull
        vertices whenever they are unique.  The ``_sector_codes`` from the
        witnesses to every point, read backwards for the other direction,
        give three kinds of bounds (see ``_depth_bounds`` for why each is
        certified): a witness at a position of its own whose directions fit
        in H - 1 consecutive sectors gets exactly the least depth; a point
        from which three witnesses have cyclic sector gaps of at most H - 2
        each gets at least the next count, C(m - 1, 2) + 1, when a search
        for them from three of the witnesses finds them; every other point
        gets 0 and 1.  The result is None when no witness at the least depth
        is ``inside``, or when some |dx| + |dy| may overflow (per-axis ranges
        ``span``); the full screen, ``bounds``, then decides.  The witnesses
        inside are coded first, so that a failed attempt stops after them.
        Memory is O(witnesses x m).
        """
        pts = self.pts
        m = pts.shape[0]
        if self.kind != "simplicial" or m < 4 or not math.isfinite(sum(span.tolist())):
            return None
        extent = _WITNESS_AXES @ pts.T
        wit = np.zeros(m, dtype=bool)
        wit[extent.argmin(axis=1)] = wit[extent.argmax(axis=1)] = True
        inner = np.flatnonzero(wit & inside)
        if not inner.size:
            return None
        # the witnesses inside first: when none is at the least count, stop there
        work = _tile_buffers(np.count_nonzero(wit) * m)
        codes, least = _least_witnesses(pts, inner, work)
        if not least.any():
            return None
        outer = np.flatnonzero(wit & ~inside)
        more, more_least = _least_witnesses(pts, outer, work[:, codes.size:])
        wit, codes = np.r_[inner, outer], np.vstack([codes, more])
        least = wit[np.r_[least, more_least]]
        half = SECTORS // 2
        # per witness and point, the sector from the point to the witness; a
        # witness at the point's own position gets a copy of another's, which
        # adds no triple
        back = _REVERSE[codes]
        back = np.where(back > SECTORS, back.min(axis=0), back)
        # from each of three witnesses a, the sectors b and c of two others as
        # far on as gaps of at most H - 2 allow; the triple counts when the
        # gap from c back to a is at most H - 2 too
        starts = [0, wit.size // 3, 2 * wit.size // 3]
        ahead = (back[:, None] - back[starts]) & (SECTORS - 1)
        reach = np.where(ahead <= half - 2, ahead, 0).max(axis=0)
        reach = np.where(ahead <= reach + (half - 2), ahead, 0).max(axis=0)
        lo = np.where((reach >= half + 2).any(axis=0), math.comb(m - 1, 2) + 1, 0)
        hi = np.full(m, math.comb(m, 3))
        lo[least] = hi[least] = math.comb(m - 1, 2)
        return lo / math.comb(m, 3), hi / math.comb(m, 3)


def _extent(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis minimum and maximum of the rows of ``a``.  Reducing each
    column alone is several times faster than an axis-0 reduction of a
    narrow (rows x 2) array, and min and max are exact either way."""
    cols = a.T
    return np.array([col.min() for col in cols]), np.array([col.max() for col in cols])


def _span(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per axis, the range (``np.ptp``) of the cloud and queries together."""
    bottom, top = _extent(pts)
    if q.shape[0] and q is not pts:
        q_bottom, q_top = _extent(q)
        top, bottom = np.maximum(top, q_top), np.minimum(bottom, q_bottom)
    with np.errstate(over="ignore"):
        return top - bottom


def _in_blocks(fn, n: int, rows: int, threads: int) -> np.ndarray:
    """fn over slices of ``rows`` of n queries on ``threads`` workers,
    joined in query order."""
    return np.concatenate(parallel_map_indexed(
        lambda i: fn(slice(i * rows, (i + 1) * rows)),
        max(1, -(-n // rows)),  # one empty block for zero queries
        threads,
    ))


def depth_of(cloud, queries, kind: str, threads: int = 1) -> np.ndarray:
    """Depths of many query points with respect to the cloud.

    Simplicial depths are computed in chunks of ``CHUNK_PAIRS // m`` queries
    on ``threads`` workers; the result is the same for any worker count.
    A worker count below 1, a cloud holding NaN or infinity, an unknown
    depth kind, a cloud that is not 2-D for simplicial depth, an empty
    cloud, a one-point cloud for Mahalanobis depth, then queries of another
    dimension than the cloud, queries holding NaN or infinity, and
    coordinates whose range over the cloud and queries overflows on some
    axis are rejected, in that order; simplicial depth of fewer than 3
    cloud points fails when it is computed.  These checks run on every
    call; the p-values run them once for the cloud and once per query set,
    and share the unchecked core, ``_CheckedCloud``.
    """
    checked = _CheckedCloud.check(cloud, kind, threads)
    return checked.depths(checked.queries(queries)[0])


# -- certified bounds on simplicial depth --------------------------------------


def _sector_codes(pts: np.ndarray, queries: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Per (query, cloud point) pair, the sector code of the direction from
    the query to the point, plus the query's row offset ``row * _WIDTH``, as
    a (queries x points) integer array.

    The sector of a direction (dx, dy) is ``floor(t * SECTORS / 4)`` for its
    diamond angle t = 1 - r on and above the x axis and t = 3 + r below it,
    with r = dx / (|dx| + |dy|).  The code is the sector; t = 4, the positive
    x axis approached from below, gets code ``SECTORS`` and counts as sector
    0.  The diamond angle is a continuous increasing function of the angle,
    with the antipode at t + 2.  A point at the query makes r = 0 / 0 = NaN
    and gets code ``SECTORS + 1``.  A direction whose |dx| + |dy| overflows
    gets r = 0 and a wrong sector; ``_depth_bounds`` gives its query trivial
    bounds.

    ``work`` is a (4 x cells) float array with cells >= queries x points,
    which the computation overwrites; the codes are returned in its last row.
    """
    size = queries.shape[0] * pts.shape[0]
    dx, dy, t, codes = (row[:size].reshape(queries.shape[0], pts.shape[0]) for row in work)
    np.subtract(pts[:, 0], queries[:, 0, None], out=dx)
    np.subtract(pts[:, 1], queries[:, 1, None], out=dy)
    np.abs(dx, out=t)
    with np.errstate(over="ignore", invalid="ignore"):
        t += np.abs(dy, out=codes)
        np.divide(dx, t, out=t)  # r, exact up to rounding for any scale
    t *= SECTORS / 4  # a power of two: exact
    t += SECTORS / 4
    np.copysign(t, dy, out=t)  # -0.0 counts as below: t = 4 on the positive x axis
    base = np.arange(queries.shape[0], dtype=float) * _WIDTH
    np.subtract((base + SECTORS / 2)[:, None], t, out=t)  # row offset + t * SECTORS / 4
    np.fmin(t, (base + _WIDTH - 1)[:, None], out=t)  # NaN -> the at-query code
    codes = codes.view(np.intp)
    np.copyto(codes, t, casting="unsafe")  # truncates, as ``astype`` does
    return codes


def _least_witnesses(pts: np.ndarray, wit: np.ndarray, work: np.ndarray):
    """The codes of ``_sector_codes`` from the points ``wit`` of the cloud to
    every point, without their row offsets and with code ``SECTORS`` read as
    sector 0, and which of those points are at the least simplicial count:
    alone at their position, with all their directions in H - 1 consecutive
    sectors (see ``_depth_bounds``)."""
    e, half = wit.size, SECTORS // 2
    codes = _sector_codes(pts, pts[wit], work)
    hist = _tally(codes, e)
    hist[:, 0] += hist[:, SECTORS]
    # running count of the occupied sectors, once round and H + 1 more
    occupied = np.cumsum(np.hstack([hist[:, :SECTORS], hist[:, : half + 1]]) > 0, axis=1)
    # H + 1 empty sectors in a row: the live directions fit in H - 1
    fits = (occupied[:, half + 1:] == occupied[:, :SECTORS]).any(axis=1)
    codes -= np.arange(0, e * _WIDTH, _WIDTH)[:, None]
    codes[codes == SECTORS] = 0
    return codes, fits & (hist[:, SECTORS + 1] == 1)


def _tally(codes: np.ndarray, rows: int) -> np.ndarray:
    """The (rows x _WIDTH) histograms of codes offset by their row."""
    return np.bincount(codes.ravel(), minlength=rows * _WIDTH).reshape(rows, _WIDTH)


@functools.cache  # one side per CHUNK_PAIRS; a fresh array would cost page faults per call
def _column_shift(side: int) -> np.ndarray:
    """(side x side) array whose entry (i, j) moves a code from row i's
    offset to row j's: (j - i) * _WIDTH.  Callers only read it."""
    offsets = np.arange(0, side * _WIDTH, _WIDTH)
    return offsets - offsets[:, None]


# per thread, the kept buffers of ``_tile_buffers``
_KEPT = threading.local()


def _tile_buffers(cells: int) -> np.ndarray:
    """This thread's (4 x cells) buffers for ``_sector_codes``.  Buffers of up
    to ``CHUNK_PAIRS`` cells, which every tile of the self-screen and every
    chunk of a cloud of at most ``CHUNK_PAIRS`` points fits, are kept from
    call to call: a fresh buffer costs a page fault per 4 KiB, about 2.75 us
    on a 2-core virtual machine, as long as the arithmetic on the page."""
    work = getattr(_KEPT, "work", None)
    if work is not None and work.shape[1] >= cells:
        return work
    if cells > CHUNK_PAIRS:
        return np.empty((4, cells))
    work = _KEPT.work = np.empty((4, CHUNK_PAIRS))
    return work


def _sector_histograms(pts: np.ndarray, queries: np.ndarray, threads: int = 1) -> np.ndarray:
    """Per query, the number of cloud directions with each code of
    ``_sector_codes``, as a (queries x _WIDTH) array computed on ``threads``
    workers; code ``SECTORS`` is counted as sector 0, so its column is 0.

    Other query sets are tiled in chunks of ``CHUNK_PAIRS // m`` queries
    against the whole cloud.  When the queries are the cloud itself, the
    upper triangle of the m x m pair matrix is tiled in squares of side
    ``isqrt(CHUNK_PAIRS)``: a tile on the diagonal counts its directions from
    each of its rows, and a tile off it computes the code s of each direction
    i -> j once and counts it for row i, and the reverse code for row j:
    (s + H) mod ``SECTORS`` for a sector (H = SECTORS / 2), H for code
    ``SECTORS``, and itself at the query (see ``_depth_bounds`` for why that
    is certified).

    Each worker takes every ``threads``-th tile and adds its integer counts
    as soon as it has them, under a lock per band of rows, so that memory
    stays one tile per worker and the sums do not depend on the worker
    count.
    """
    n, m = queries.shape[0], pts.shape[0]
    hist = np.zeros((n, _WIDTH), dtype=np.int64)
    if queries is pts:
        side = math.isqrt(CHUNK_PAIRS)
        bands = [slice(start, start + side) for start in range(0, m, side)]
        tiles = [(i, j) for i in range(len(bands)) for j in range(i, len(bands))]
        cells = min(side, m) ** 2
        shift = _column_shift(side)
    else:
        rows = max(1, CHUNK_PAIRS // m)
        bands = [slice(start, start + rows) for start in range(0, n, rows)]
        tiles = [(i, None) for i in range(len(bands))]
        cells = min(rows, n) * m
    locks = [threading.Lock() for _ in bands]
    workers = min(threads, len(tiles))

    def run(worker: int) -> None:
        work = _tile_buffers(cells)
        for i, j in tiles[worker::workers]:
            codes = _sector_codes(pts if j is None else pts[bands[j]], queries[bands[i]], work)
            counts = _tally(codes, codes.shape[0])
            with locks[i]:
                hist[bands[i]] += counts
            if j is None or j == i:
                continue
            codes += shift[: codes.shape[0], : codes.shape[1]]
            counts = _tally(codes, codes.shape[1])
            counts[:, 0] += counts[:, SECTORS]
            counts[:, SECTORS] = 0
            with locks[j]:
                hist[bands[j]] += counts[:, _REVERSE]

    parallel_map_indexed(run, workers, threads)
    hist[:, 0] += hist[:, SECTORS]
    hist[:, SECTORS] = 0
    return hist


def _count_bounds(hist: np.ndarray, m: int) -> np.ndarray:
    """(queries x 2) lower and upper bounds on ``_simplicial_counts`` (see
    ``_depth_bounds``) from the queries' ``_sector_histograms`` over a cloud
    of m points, from the triples of directions whose sectors fit in H + 2,
    and in H - 1, cyclically consecutive sectors (H = SECTORS / 2).

    A triple is counted from each of its own sectors s that starts such a
    run.  With h_s directions in s and R in the next span - 1 sectors, those
    are C(h_s, 3) + C(h_s, 2) R + h_s C(R, 2) triples, six times which is
    h_s (h_s - 1) (h_s - 2) + 3 h_s R (h_s + R - 2).  A triple within H - 1
    sectors has one gap of more than half the circle, and only the sector
    after it starts a run, so that count is exact; the H + 2 count may
    count a triple twice, which keeps it an upper bound on the misses.
    """
    h = hist[:, :SECTORS]
    half = SECTORS // 2
    # running[:, i]: the first i entries of a row of h, h repeated, summed;
    # R = a difference
    running = np.zeros((h.shape[0], SECTORS + half + 2), dtype=np.int64)
    np.cumsum(h, axis=1, out=running[:, 1: SECTORS + 1])
    np.add(running[:, SECTORS, None], running[:, 1: half + 2], out=running[:, SECTORS + 1:])
    h_less_2 = h - 2
    r = h - 1
    r *= h
    six_same = np.einsum("ij,ij->i", r, h_less_2)
    hr = np.empty_like(r)
    misses = []
    for span in (half + 2, half - 1):
        np.subtract(running[:, span: span + SECTORS], running[:, 1: SECTORS + 1], out=r)
        np.multiply(h, r, out=hr)
        r += h_less_2
        misses.append((six_same + 3 * np.einsum("ij,ij->i", hr, r)) // 6)
    live = m - hist[:, SECTORS + 1]
    misses[0] = np.minimum(misses[0], live * (live - 1) * (live - 2) // 6)
    return math.comb(m, 3) - np.stack(misses, axis=1)


def _depth_bounds(cloud, queries, kind: str, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on ``depth_of(cloud, queries, kind, threads)``.

    Mahalanobis depth is cheap, and both bounds are its exact depths.  For
    simplicial depth each query gets a histogram of its directions over
    ``SECTORS`` sectors (``_sector_histograms``), on the workers of
    ``depth_of``, and the misses of ``_simplicial_counts`` are
    bracketed by counting triples of directions by their sectors, with
    H = SECTORS / 2 sectors to a half-circle:

    * The computed sector of a direction is at most one off the exact sector
      of its rounded (dx, dy): the rounding errors of r and of t are some
      ulps, far below a sector.  ``_simplicial_counts`` orders the same
      (dx, dy) by an ``arctan2`` that is also a few ulps from the exact
      angle, and counts a triple as a miss exactly when one of its
      directions sees the other two in its open half-circle of keys.
    * When the queries are the cloud, the direction j -> i gets the reverse
      of the code s that i -> j computed.  The kernel's rounded difference
      for j -> i is fl(a - b) = -fl(b - a), since IEEE subtraction rounds
      symmetrically; only the sign of a zero difference may differ, and it
      moves neither the exact angle nor the kernel's key.  The exact diamond
      angle satisfies t(-d) = t(d) + 2 (mod 4), so the sector of -d is the
      sector of d plus H (mod SECTORS), and (s + H) mod SECTORS is the
      sector of the computed angle of d plus 2, some ulps from the exact
      angle of -d, like any computed sector.  Code ``SECTORS`` (t = 4,
      sector 0) reverses to H, and the at-query code to itself.
    * A triple whose computed sectors fit in H - 1 consecutive sectors
      spans less than 2 - 4 / SECTORS of computed, so of exact, diamond
      angle up to some ulps.  A half-circle adds exactly 2 to t, and the
      angle grows at least as fast as t, so the triple spans less than a
      half-circle less about 4 / SECTORS radians, and the kernel counts it
      as a miss: the lower bound on the misses.
    * A triple the kernel counts as a miss lies, seen from the one direction,
      in a closed half-circle of keys, so its computed diamond angles span at
      most 2 plus some ulps, and its computed sectors fit in H + 2
      consecutive sectors from its first one: the upper bound, capped at
      the C(L, 3) triples of the L directions not at the query.
    * The least count, for ``_CheckedCloud.least_bounds``.  A query that is
      a point of the cloud is a vertex of C(m - 1, 2) triangles, all hits,
      and the kernel counts each triple of its L <= m - 1 live directions
      as a miss at most once, so its count is at least C(m - 1, 2).  When
      the point is alone at its position (L = m - 1) and all its computed
      sectors fit in H - 1 consecutive sectors, every triple fits and is a
      miss by the third point above: the count is exactly C(m - 1, 2).
      When three other points, none at the query, have computed sectors
      whose three cyclic gaps are at most H - 2 each, no gap reaches the
      H - 1 that fitting in H + 2 consecutive sectors needs, so by the
      fourth point that triple is a hit: the count is at least
      C(m - 1, 2) + 1.  The sectors from a point to the witnesses are the
      reverse codes of the second point, so both facts hold per triple
      like the bounds above.

    Both are integer counts, turned into depths by the same division as
    ``depth_of``, which is monotone; so lo <= depth_of <= hi on every input,
    degenerate ones included.  A query for which some |dx| + |dy| overflows
    gets the trivial bounds 0 and 1.
    """
    checked = _CheckedCloud.check(cloud, kind, threads)
    return checked.bounds(*checked.queries(queries))


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
    lo, hi = _extent(pts)
    pad = 0.05 * np.maximum(hi - lo, 1e-12)
    return lo - pad, hi + pad


def check_region_dim(region: RegionND, dim: int) -> None:
    """Reject a region of another dimension than the cloud's; callers check
    before computing any depth."""
    if region.dim != dim:
        raise ValueError(f"region dimension {region.dim} differs from the cloud's {dim}")


def _settle(cloud: _CheckedCloud, queries, lo, hi, mask) -> None:
    """Replace the bounds of the masked queries whose bounds differ by their
    exact depths, in one ``depths`` call; the call is made even when none
    differ, so that the calls a p-value makes do not depend on the data."""
    idx = np.flatnonzero(mask & (lo < hi))
    lo[idx] = hi[idx] = cloud.depths(queries[idx])


def _multi(cloud: _CheckedCloud, region: RegionND, bounds, corners) -> MultiPValue:
    """The one path of ``p_multi`` and ``p_multi_max``, from bounds on the
    replicate depths.

    The replicates, the boundary grid and the corners each get the query
    checks of ``depth_of`` once, against a cloud checked once.  Without
    corners and with replicates inside, the bounds are those of
    ``least_bounds`` when it certifies the least depth, else the screen's.
    The floor is settled exactly among the candidates whose lower bound is
    at most the least upper bound; then every replicate whose bounds
    straddle the floor (outside ones) or a corner depth is settled in one
    more ``depths`` call.  Every comparison then reads a bound that equals
    the exact depth or lies on the same side of the threshold, so the
    result equals the one from all exact depths.
    """
    pts = cloud.pts
    inside = region.contains(pts)
    _, span = cloud.queries(pts)
    if bounds is None and corners is None and inside.any():
        bounds = cloud.least_bounds(inside, span)
    lo, hi = cloud.bounds(pts, span) if bounds is None else bounds
    if inside.any():
        queries, cand_lo, cand_hi, cand = pts, lo, hi, inside
        source = "inside-replicates"
    else:
        queries, grid_span = cloud.queries(region.boundary_grid(*_grid_box(pts)))
        cand_lo, cand_hi = cloud.bounds(queries, grid_span)
        cand = np.ones(queries.shape[0], dtype=bool)
        source = "boundary-grid"
    _settle(cloud, queries, cand_lo, cand_hi, cand & (cand_lo <= cand_hi[cand].min()))
    floor = float(cand_lo[cand].min())
    corner_depths = () if corners is None else cloud.depths(cloud.queries(corners)[0])
    straddle = ~inside & (lo <= floor) & (hi > floor)
    for d in corner_depths:
        straddle |= (lo <= d) & (hi > d)
    _settle(cloud, pts, lo, hi, straddle)
    esp = float(inside.mean())
    tail = float(((~inside) & (hi <= floor)).mean())
    res = MultiPValue(
        p=min(esp + tail, 1.0), esp=esp, tail=tail, depth_floor=floor, floor_source=source
    )
    if corners is None:
        return res
    corner_p = tuple(float((hi <= d).mean()) for d in corner_depths)
    return replace(res, p=max(res.p, *corner_p), corner_p=corner_p)


# _depths: exact replicate depths already computed; the benchmark's traced replay passes them
def p_multi(cloud, kind: str, region: RegionND, threads: int = 1, _depths=None) -> MultiPValue:
    """Inside fraction plus the low-depth outside fraction.

    The depth floor is the smallest depth among replicates inside the
    region; when none falls inside it is the smallest depth over a
    deterministic grid on the region boundary spanning the cloud's bounding
    box.  Outside replicates at or below the floor count into the tail.
    Exact depths are computed only where certified bounds cannot decide
    (see ``_multi``).  For simplicial depth with replicates inside, the
    bounds come first from ``_CheckedCloud.least_bounds``, which certifies
    an inside hull vertex at the least depth C(m - 1, 2) / C(m, 3), and
    so the floor, from the sectors between a few extreme replicates and
    every replicate; only when it cannot does the full screen of
    ``_depth_bounds`` run.  Depths run on ``threads`` workers, with the
    same result for any count.  A region of another dimension than the
    cloud is rejected.
    """
    pts = _cloud_points(cloud)
    check_region_dim(region, pts.shape[1])
    bounds = None if _depths is None else (np.array(_depths, dtype=float),) * 2
    return _multi(_CheckedCloud.check(pts, kind, threads), region, bounds, None)


def p_multi_max(cloud, kind: str, region: RegionND, threads: int = 1) -> MultiPValue:
    """Max of the region p-value and singleton p-values at designated corners."""
    pts = _cloud_points(cloud)
    if region.corners.size == 0:
        raise ValueError("region has no designated corner points")
    check_region_dim(region, pts.shape[1])
    return _multi(_CheckedCloud.check(pts, kind, threads), region, None, region.corners)


# bivariate method name -> depth p-value; univariate methods are support.METHODS
MULTI_METHODS = {"multi": p_multi, "multi-max": p_multi_max}

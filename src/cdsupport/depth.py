"""Bootstrap clouds, data depth, and depth-based multivariate p-values.

The multivariate p-value combines two fractions over a cloud of bootstrap
replicate estimates: the share of replicates inside the null region, plus
the share of replicates outside it whose depth does not exceed the depth
floor of the region (the least-deep inside replicate, or a deterministic
boundary grid when nothing falls inside).  A boundary-max variant takes the
maximum with singleton p-values at designated corner points.  Both return a
``MultiPValue`` (the corner p-values in ``corner_p``) and are selected by name
through ``MULTI_METHODS``.  Every depth computation runs on the calling
thread; concurrent callers, such as the replication workers of
``simulate.run_experiment``, each keep their own buffers (``_kept``).

``resample_means`` draws, gathers and sums a cloud's indices in blocks of
``max(1, CHUNK_PAIRS // n)`` replicates from one generator, so a cloud of m
replicates of n rows holds one block at a time, not its (m x n) index draw.
The indices are numpy's own ``integers(0, n)`` stream.  For a ``PCG64``
generator on a little-endian host and 2 <= n <= 2^32, ``_index_blocks``
computes that stream in whole-array steps from ``random_raw`` words, by the
multiply-shift numpy runs per element (Lemire, ACM TOMACS 29(1), 2019),
rejections and the generator's pending half word included; every other
generator, host and n draws through ``integers`` itself.

``_CheckedCloud`` is the one place that decides how depths are computed.
Every depth loop over pairs takes items of w pairs ``max(1, CHUNK_PAIRS //
w)`` at a time (``_blocks``), so simplicial depth runs in chunks of
``max(1, CHUNK_PAIRS // m)`` queries, and memory stays bounded as the cloud
grows for every caller.  Mahalanobis depth needs only O(queries) memory and
is computed in one pass, from the cloud's mean and inverse covariance.

The checks run where input enters: ``depth_of`` checks the cloud and its
one query set, and the p-values check the cloud once and each query set
they evaluate (the replicates, the boundary grid, the corners) once, then
evaluate through the same unchecked core.  They reject non-finite clouds
and queries, and coordinates whose range over the cloud and queries
overflows on some axis, where differences, and so depths, would be wrong.
A p-value derives the Mahalanobis factors once.

Simplicial depth follows the angular sweep of Rousseeuw & Ruts (AS 307,
1996) without any search: each direction from a query is folded into the
upper half-plane by exact negation and sorted as one integer key, the bits of
its folded ``arctan2`` angle with a lower-half flag appended.  A direction and
its exact antipode share an angle and differ only in the flag, so antipodes
and repeated directions are recognised by integer equality, and the number
of triangles missing the query follows in closed form from four row sums of
one running count of the flags (see ``_simplicial_counts``).  Distinct but
nearly collinear directions are still ordered by the float angle.  Both
this kernel and the screen below take the (queries x points) coordinate
differences from one (queries x 2) by (2 x points) matrix product per
coordinate, [1, -q] times [p; 1], which rounds each difference exactly as
the subtraction does (see ``_differences``).

The p-values never need every replicate's exact depth: only the floor, and
which replicates lie at or below the floor or a corner depth.  So they first
screen the replicates with ``_CheckedCloud.bounds``: each replicate's
directions to the others are counted into ``SECTORS`` sectors of their
diamond angle, and triples are counted by sectors.  A computed diamond angle
is a few ulps from the exact one, so a computed sector is at most one off,
the triples that fit in H - 1 consecutive sectors (H = SECTORS / 2, a
half-circle) surely miss the replicate, and those that miss it surely fit in
H + 2; this brackets the kernel's own count on every input, and no lower
bound is below the least depth C(m - 1, 2) / C(m, 3).  Each unordered
pair's sector is computed once, in square tiles over the upper triangle of
the pair matrix, and counted for both of its points, the reverse direction
half a circle on; one kernel, ``_count_bounds``, counts the finished
histograms.  A replicate whose bounds hold the floor or a corner depth gets
tighter ones, from spans of H and H + 1 sectors of its own histogram row,
when an edge check of its directions (``_edge_clear``) shows every computed
sector of it exact (see ``_CheckedCloud.bounds``); the check and the screen
take a direction's sector position from one step, ``_positions``.  A cloud
whose per-axis ranges sum past the largest float, where some |dx| + |dy|
may overflow, gets no sectors: its exact depths are its bounds, as for
Mahalanobis depth.  Exact depths are then computed
only for the replicates whose bounds, tight or wide, still hold the floor or
a corner depth: 4-8% of the replicates for ``p_multi_max`` at seed 1 of the
benchmark, where the wide bounds alone left 11-22%, since its corner depths
sit in the dense middle of the depth distribution.  The boundary grid, the
floor's source when no replicate lies inside the region, is not screened:
its points, a few hundred for a rectangle, get their exact depths in one
kernel call.

``p_multi`` often needs no screen at all.  Every cloud point has simplicial
depth at least C(m - 1, 2) / C(m, 3), and exactly the strict vertices of the
convex hull, points outside the closed hull of the others, have that depth
(Liu, Ann. Statist. 18, 1990).  So when a strict vertex lies inside the
region it is the floor, and the outside strict vertices are the tail.
``_strict_vertices`` finds them exactly: an Akl-Toussaint octagon of the
cloud's extremes along the axes and diagonals drops the points certainly
inside it in one vectorised pass, and Andrew's monotone chain runs over the
rest, about 20 of 500, with the filtered exact orientation of
``predicates``.  ``_CheckedCloud.least`` turns that into the kernel's own
answer: the kernel orders directions by float angles, and only points within
2^-40 radians of the hull's boundary could be judged differently, so those,
usually none, get their depth from the kernel.  At seed 1 of
the benchmark the hull decides all 224 of the 350 ``run_part2`` p-values
whose floor is the least depth (m = 500), with no bound and no exact depth;
the screen runs for the rest, and both paths give their counts to one
``_result``.  A corner or a boundary-grid floor below the least depth
settles no replicate, since no lower bound is below it.  Every decision
compares depths that are exact or surely on one side of the threshold, so
the p-values equal those from all exact depths, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .predicates import certainly_left, orient2d
from .regions import RegionND

__all__ = [
    "BootstrapCloud",
    "bootstrap_cloud",
    "simplicial_depth",
    "simplicial_depth_brute",
    "depth_of",
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

# sectors per direction histogram of the screen: a power of two, so
# that scaling a diamond angle by SECTORS / 4 is exact
SECTORS = 128

# codes of a direction in ``_sector_histograms``: the sectors, t = 4, at the query
_WIDTH = SECTORS + 2
# code of the reverse direction of a code, once t = 4 is folded into sector 0
_REVERSE = np.r_[(np.arange(SECTORS) + SECTORS // 2) % SECTORS, SECTORS, SECTORS + 1]

# spans of ``_count_bounds``, in sectors: the triples that fit in the first
# include every kernel miss, and those that fit in the second are all misses.
# The wide spans hold on every row, the tight ones on rows that pass the edge
# check of ``_edge_clear`` (see ``_CheckedCloud.bounds``)
_WIDE_SPANS = (SECTORS // 2 + 2, SECTORS // 2 - 1)
_TIGHT_SPANS = (SECTORS // 2 + 1, SECTORS // 2)

# the edge check's margin, in sectors: a row passes when none of its computed
# sector positions t * SECTORS / 4 lies this close to a sector edge
_EDGE_MARGIN = 2.0 ** -30

# the hull shortcut's margin, in radians, on the angle of a direction: the
# kernel's key for a direction is within 2^-48 of its exact angle
_HULL_MARGIN = 2.0 ** -40

# the axes of the octagon prefilter, x, x + y, y and x - y, as rows
_OCTAGON_AXES = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, -1.0]])


@dataclass(frozen=True, eq=False)
class BootstrapCloud:
    """Replicate estimates (m x k), reproducible from the stored seed."""

    points: np.ndarray
    seed: object
    source_shape: tuple[int, int] = (0, 0)

    @property
    def m(self) -> int:
        return self.points.shape[0]


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
    block rather than the whole draw.  ``_index_blocks`` draws each block:
    from a ``PCG64``'s raw words when it can reproduce ``integers`` there,
    and through ``integers`` otherwise; either way a generator passed as
    ``seed`` ends where that one draw would leave it.  ``np.take`` gathers
    several times faster than fancy indexing.  For k = 1 a block is gathered
    as (block x n), whose contiguous n axis numpy sums pairwise, as it does
    for ``x[idx]``.  For k = 2 numpy sums each replicate in plain order over
    n, and reducing the middle axis of (block x n x 2) is slow, so the
    transposed block is gathered as (n x block x 2) and summed along its
    outer axis, in the same order; a block of one replicate is no
    exception, since its inner axis still holds the 2 columns.  The
    transposed indices and the gathered values go to this thread's kept
    buffers (``_kept``), so a block allocates nothing larger than its raw
    words; ``mode="clip"`` lets ``np.take`` write there unbuffered, and
    clips nothing, since every index is below n.
    """
    n, k = x.shape
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    out = np.empty((reps, k))
    step = max(1, CHUNK_PAIRS // n)
    counts = [min(step, reps - start) * n for start in range(0, reps, step)]
    for block, flat in enumerate(_index_blocks(rng, n, counts)):
        idx = flat.reshape(-1, n)
        rows = slice(block * step, block * step + step)
        gathered = _kept("gathered", flat.size * k, np.float64)
        if k == 1:
            gathered = np.take(x[:, 0], idx, out=gathered.reshape(idx.shape), mode="clip")
            out[rows, 0] = gathered.mean(axis=1)
        else:
            idx_t = _kept("transposed", flat.size, np.int64).reshape(n, -1)
            np.copyto(idx_t, idx.T)
            gathered = np.take(x, idx_t, axis=0, out=gathered.reshape(n, -1, 2), mode="clip")
            out[rows] = gathered.sum(axis=0) / n
    return out


def _index_blocks(rng: np.random.Generator, n: int, counts):
    """Per count in ``counts``, in order, the next ``count`` indices of
    ``rng.integers(0, n)`` as an int64 array, leaving ``rng`` where those
    calls would; consume every block, each before the next is drawn.

    numpy draws each index from a uint32 candidate c, taken by the bit
    generator's ``next_uint32``: the index is (c * n) >> 32, unless the low
    word (c * n) mod 2^32 is below (2^32 - n) mod n, when c is dropped and
    the next candidate taken; n = 2^32 takes c itself, which is the same.
    For a ``PCG64`` on a little-endian host the candidates are the uint32
    halves of its ``random_raw`` words in memory order, low half first,
    after the half word the generator may hold pending (``has_uint32``,
    ``uinteger``).  So a block is one ``random_raw`` call and three
    whole-array steps: products, the smallest low word, a shift.  A
    rejection, 96 in 2^32 per index at n = 200, sends the block through the
    exact slow path, which compacts the accepted candidates and draws more.
    A high half left over at a block's end is the next block's first
    candidate, and at the end the pending half word and the last word's
    high half are written to the generator's state, as ``next_uint32``
    leaves them, under the generator's lock, so that a draw of another
    thread is never undone.  The products, shifted in place into the
    indices, live in this thread's kept buffer (``_kept``), and only the
    raw words, half their size, are fresh per block.  Any other bit
    generator, a big-endian host, n = 1 (no draws at all) and n > 2^32 (a
    64-bit draw) go through ``integers`` itself.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64 or sys.byteorder != "little" or not 2 <= n <= 1 << 32:
        for count in counts:
            yield rng.integers(0, n, size=count)
        return
    state = bitgen.state
    half = state["uinteger"] if state["has_uint32"] else None
    last = state["uinteger"]
    threshold, scale = ((1 << 32) - n) % n, np.uint64(n)

    def products(count: int, out: np.ndarray) -> np.ndarray:
        """c * n of the next ``count`` candidates, in ``out[:count]``."""
        nonlocal half, last
        start = 0
        if half is not None and count:
            out[0], half, start = half * n, None, 1
        words = (count - start + 1) // 2
        if words:
            halves = bitgen.random_raw(words).view(np.uint32)
            np.multiply(halves[:count - start], scale, out=out[start:count])
            last = int(halves[-1])
            if 2 * words > count - start:
                half = last
        return out[:count]

    for count in counts:
        prod = products(count, _kept("products", count, np.uint64))
        if threshold and prod.view(np.uint32)[::2].min() < threshold:
            parts = []
            while prod.size:
                keep = prod.view(np.uint32)[::2] >= threshold
                parts.append(prod[keep])
                short = prod.size - parts[-1].size
                prod = products(short, np.empty(short, np.uint64))
            prod = np.concatenate(parts)
        yield np.right_shift(prod, 32, out=prod).view(np.int64)
    with bitgen.lock:
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = int(half is not None), last
        bitgen.state = state


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
    # a sum of finite values can overflow; the cloud then says so by name
    with np.errstate(over="ignore", invalid="ignore"):
        points = resample_means(x, reps, seed)
    if not np.isfinite(points).all():
        raise ValueError("resample means overflow: the data are too large to sum")
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
    """1 / (1 + q) per query, with q its quadratic form in ``inv_cov``.

    The terms of a far query's form can overflow to +inf and -inf, whose sum
    is NaN.  Only the rows whose form is not finite are computed again, from
    their centred coordinates scaled by 2^-e, with 2^e the least power of
    two above the row's largest magnitude, and the form scaled back by
    2^(2 e).  The scaling is exact but for a coordinate pushed below the
    normal range, more than 2^1000 times smaller than the row's largest,
    whose terms lie far below the rounding of the form.  A form that still
    overflows is +inf, depth 0.0; every finite row keeps its value bit for
    bit.
    """
    centered = queries - mu
    q = np.einsum("ij,jk,ik->i", centered, inv_cov, centered)
    far = np.flatnonzero(~np.isfinite(q))
    if far.size:
        e = np.frexp(np.abs(centered[far]).max(axis=1))[1]
        scaled = np.ldexp(centered[far], -e[:, None])
        with np.errstate(over="ignore"):
            q[far] = np.ldexp(np.einsum("ij,jk,ik->i", scaled, inv_cov, scaled), 2 * e)
    return 1.0 / (1.0 + q)


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

    The differences come from ``_differences``: fl(p - q) bit for bit, but
    an exact zero may come out +0.0 where the subtraction gives -0.0.  No
    key sees that sign: the lower flag tests ``dy < 0`` and ``dy == 0``,
    the fold keeps |dy|, and a zero dx only meets a nonzero |dy| in
    ``arctan2``, which gives pi / 2 for either sign.

    Zero queries return at once, before any array work: ``_settle`` makes
    its call whatever the number of rows, and most shortcut p-values have
    none to settle.
    """
    m = pts.shape[0]
    if m < 3:
        raise ValueError(f"simplicial depth needs at least 3 cloud points, got {m}")
    if not queries.shape[0]:
        return np.empty(0, dtype=np.int64)
    dx, dy = _differences(_lefts(queries), _rights(pts), np.empty((2, queries.shape[0], m)))
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
    total = math.comb(m, 3)
    out = np.full(queries.shape[0], total, dtype=np.int64)
    work = dx.view(np.int64)  # the differences are spent; reuse their memory
    for live, rows in _live_groups(key, at_query):
        if live < 3:
            continue  # <=2 usable directions: no triple avoids the query
        k = key[rows, :live]
        c = work[: k.shape[0], :live]  # in turn: neighbour xor, flags, counts
        # an upper key followed by the lower key of the same angle marks a
        # row holding an exact antipodal pair
        np.bitwise_xor(k[:, 1:], k[:, :-1], out=c[:, 1:].view(np.uint64))
        antipodal = c[:, 1:] == 1
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
        if antipodal.any():
            pairs = np.flatnonzero(antipodal.any(axis=1))
            # a lower key's w = n1 + p - 2 c drops by its a antipodes, which
            # changes w (w - 1) / 2 by a (a + 1 - 2 w) / 2
            a = _antipodes(k[pairs])
            w = n1[pairs, None] + pos - 2 * c[pairs]
            miss8[pairs] += 4 * np.einsum("ij,ij->i", a, a + 1 - 2 * w)
        out[rows] = total - miss8 // 8
    return out


def _live_groups(key: np.ndarray, at_query: np.ndarray) -> list:
    """The rows of the sorted keys of ``_simplicial_counts`` grouped by L,
    their number of directions not at the query, as (L, rows) pairs.  When
    every row has the same L, as the rows of a cloud's own distinct points
    do, that is one group of all rows, found from the total count and two
    key columns: a row's at-query keys are its largest, so it has e of them
    exactly when its key at m - e is the at-query key and the one before is
    not; rows is then a slice, and no per-row count is needed."""
    n, m = key.shape
    e = int(np.count_nonzero(at_query)) // n
    if ((e == m or (key[:, m - e - 1] != _KEY_AT_QUERY).all())
            and (e == 0 or (key[:, m - e] == _KEY_AT_QUERY).all())):
        return [(m - e, slice(None))]
    e_counts = np.count_nonzero(at_query, axis=1)
    return [(m - int(e), np.flatnonzero(e_counts == e)) for e in np.unique(e_counts)]


def _lefts(queries: np.ndarray) -> np.ndarray:
    """(2 x queries x 2) left factors of ``_differences``: per coordinate c,
    the rows [1, -q_c]; negation is exact."""
    left = np.ones((2, queries.shape[0], 2))
    left[:, :, 1] = -queries.T
    return left


def _rights(pts: np.ndarray) -> np.ndarray:
    """(2 x 2 x points) right factors of ``_differences``: per coordinate c,
    the rows [p_c; 1]."""
    right = np.ones((2, 2, pts.shape[0]))
    right[:, 0] = pts.T
    return right


def _differences(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The (2 x queries x points) coordinate differences p - q from the
    factors of ``_lefts`` and ``_rights``, as one product per coordinate,
    written to ``out``.

    Entry (i, j) of a product is 1 * p_j + (-q_i) * 1: two exact products,
    rounded once whatever the order of the sum and with or without a fused
    multiply-add, so it is the subtraction's fl(p_j - q_i) bit for bit,
    subnormals and overflow to infinity included.  Only the sign of an exact
    zero may differ, +0.0 where the subtraction gives -0.0 (p = -0.0,
    q = +0.0), when the sum starts from a +0.0 accumulator.  A product is
    (queries x 2) by (2 x points) with at most ``CHUNK_PAIRS`` entries, far
    below where OpenBLAS splits a matrix product across threads, and it
    takes about a third of the time of a broadcast subtraction.
    """
    return np.matmul(left, right, out=out)


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
    """Reference implementation: enumerate all C(m, 3) closed triangles.

    The triples come in ``itertools.combinations`` order, in blocks of at
    most ``CHUNK_PAIRS``, and each block is tested at once by
    ``_triangles_contain``.
    """
    pts = _cloud_points(cloud)
    w = np.asarray(w, dtype=float)
    m = pts.shape[0]
    if m < 3:
        raise ValueError(f"simplicial depth needs at least 3 cloud points, got {m}")
    triples = itertools.combinations(range(m), 3)
    count = 0
    while (block := np.fromiter(itertools.islice(triples, CHUNK_PAIRS), dtype=(np.intp, 3))).size:
        count += int(np.count_nonzero(_triangles_contain(*pts[block.T], w)))
    return count / math.comb(m, 3)


def _cross(o, a, b):
    """The float cross product (a - o) x (b - o) of points along the last
    axis, rounded step by step as written."""
    return ((a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1])
            - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0]))


def _triangles_contain(a, b, c, w) -> np.ndarray:
    """Whether each closed triangle (a, b, c), with vertices as (triangles x
    2) arrays, contains the point w.

    A triangle of nonzero orientation (NaN counts as nonzero) contains w
    when its three edge cross products with w share a sign, zeros
    included.  A degenerate one contains w when w lies on the segment it
    covers: on the line through a and the first of b, c at another
    position, and within the bounding box of the three vertices, whose
    ends are taken as Python's ``min`` and ``max`` take them; when all
    three are at one position, w must be there.
    """
    orient = _cross(a, b, c)
    s1, s2, s3 = _cross(a, b, w), _cross(b, c, w), _cross(c, a, w)
    proper = (((s1 >= 0.0) & (s2 >= 0.0) & (s3 >= 0.0))
              | ((s1 <= 0.0) & (s2 <= 0.0) & (s3 <= 0.0)))
    other = np.where(((a[:, 0] == b[:, 0]) & (a[:, 1] == b[:, 1]))[:, None], c, b)
    single = (a[:, 0] == other[:, 0]) & (a[:, 1] == other[:, 1])
    in_box = np.ones(a.shape[0], dtype=bool)
    for axis in (0, 1):
        low = high = a[:, axis]
        for v in (b[:, axis], c[:, axis]):  # as ``min`` and ``max`` scan, NaN included
            low, high = np.where(v < low, v, low), np.where(v > high, v, high)
        in_box &= (low <= w[axis]) & (w[axis] <= high)
    segment = np.where(single, (w[0] == a[:, 0]) & (w[1] == a[:, 1]),
                       (_cross(a, other, w) == 0.0) & in_box)
    return np.where(orient != 0.0, proper, segment)


@dataclass(frozen=True, eq=False)
class _CheckedCloud:
    """A cloud that passed the cloud checks of ``depth_of`` for one depth kind.

    ``queries`` runs the checks of one query set against it, and ``span``
    the range check of the cloud's own points, once, for ``bounds`` and
    ``least``; ``depths`` evaluates checked query sets without checking
    again, ``bounds`` brackets the depths of the cloud's own points
    (``tight_bounds`` narrows some of them), and ``least`` finds those at
    the least depth.  The Mahalanobis mean and inverse covariance are derived
    on first use and kept, so a p-value that evaluates several query sets
    derives them once.
    """

    pts: np.ndarray
    kind: str

    @classmethod
    def check(cls, cloud, kind: str) -> _CheckedCloud:
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
        return cls(pts, kind)

    def queries(self, queries) -> np.ndarray:
        """The query points as a float array, after the checks every query
        set gets, the range check of the cloud and queries together last."""
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        if q.shape[1] != self.pts.shape[1]:
            raise ValueError(
                f"query dimension {q.shape[1]} differs from the cloud's {self.pts.shape[1]}")
        if not np.isfinite(q).all():
            raise ValueError("queries contain non-finite values")
        _span(self.pts, q)
        return q

    @cached_property
    def span(self) -> np.ndarray:
        """The per-axis range of the cloud's own points, with the check
        ``queries`` makes of a query set's range."""
        return _span(self.pts)

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        return _mahalanobis_factors(self.pts)

    def depths(self, q: np.ndarray) -> np.ndarray:
        """Exact depths of checked queries: the core of ``depth_of``."""
        if self.kind == "mahalanobis":
            return _mahalanobis_batch(*self.factors, q)
        m = self.pts.shape[0]
        counts = [_simplicial_counts(self.pts, q[rows]) for rows in _blocks(q.shape[0], m)]
        return np.concatenate(counts) / math.comb(m, 3)

    def bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Lower and upper bounds on the depths of the cloud's own points,
        ``depths(pts)``, after the range check of ``span``, and the histogram
        rows they come from, as (lo, hi, rows).

        Both bounds are the exact depths, and rows is None, for Mahalanobis
        depth, which is cheap, and for a cloud whose per-axis ranges sum past
        the largest float, where some |dx| + |dy| may overflow; a simplicial
        cloud of fewer than 3 points fails there by name.  Otherwise each
        point gets a histogram of its directions to the others over
        ``SECTORS`` sectors (``_sector_histograms``), and the misses of ``_simplicial_counts``
        are bracketed by counting triples of directions by their sectors
        (``_count_bounds``), with H = SECTORS / 2 sectors to a half-circle:

        * The computed sector of a direction is at most one off the exact
          sector of its rounded (dx, dy): the rounding errors of r and of t
          are some ulps, far below a sector.  ``_simplicial_counts`` orders
          the same (dx, dy) by an ``arctan2`` that is also a few ulps from
          the exact angle, and counts a triple as a miss exactly when one of
          its directions sees the other two in its open half-circle of keys.
        * The direction j -> i gets the reverse of the code s that i -> j
          computed.  The kernel's rounded difference for j -> i is
          fl(a - b) = -fl(b - a), since IEEE subtraction rounds
          symmetrically; only the sign of a zero difference may differ, and
          it moves neither the exact angle nor the kernel's key.  The exact
          diamond angle satisfies t(-d) = t(d) + 2 (mod 4), so the sector of
          -d is the sector of d plus H (mod SECTORS), and (s + H) mod SECTORS
          is the sector of the computed angle of d plus 2, some ulps from the
          exact angle of -d, like any computed sector.  Code ``SECTORS``
          (t = 4, sector 0) reverses to H, and the at-point code to itself.
        * A triple whose computed sectors fit in H - 1 consecutive sectors
          spans less than 2 - 4 / SECTORS of computed, so of exact, diamond
          angle up to some ulps.  A half-circle adds exactly 2 to t, and the
          angle grows at least as fast as t, so the triple spans less than a
          half-circle less about 4 / SECTORS radians, and the kernel counts
          it as a miss: the lower bound on the misses.
        * A triple the kernel counts as a miss lies, seen from the one
          direction, in a closed half-circle of keys, so its computed diamond
          angles span at most 2 plus some ulps, and its computed sectors fit
          in H + 2 consecutive sectors from its first one: the upper bound,
          capped at the C(L, 3) triples of the L directions not at the point.

        Both are integer counts, turned into depths by the same division as
        ``depths``, which is monotone; so lo <= depths(pts) <= hi on every
        input, degenerate ones included.

        These spans allow for any computed diamond angle to be some ulps
        off.  ``tight_bounds`` narrows them to H + 1 and H sectors for the
        points that pass an edge check, from the rows returned here: this
        thread's kept ``rows`` buffer (``_kept``), or a fresh array for a
        cloud too large to keep, so they hold until the next screen on the
        thread.  A point passes the edge check (``_edge_clear``) when, from
        ``_differences`` and ``_positions`` as the screen takes them, none
        of its directions but the one to itself has 32 r, with r = dx /
        (|dx| + |dy|), within eps = ``_EDGE_MARGIN`` = 2^-30 of an integer;
        32 r is the sector position t * SECTORS / 4 up to an integer and a
        sign, in either half-plane.  Measure positions in sectors,
        t * SECTORS / 4 with t the exact diamond angle of a rounded
        difference.  The check's position rounds twice after the exact
        difference, by under 2^-47; the screen's, with its row offset below
        2^15, by under 2^-37; and a kernel key is within 2^-48 radians of
        its exact angle, which the diamond angle follows at a rate of at
        most 1, so within 2^-43.  So:

        * Every computed sector of a passing point is exact, the floor of
          its exact position, which lies more than eps - 2^-47 from every
          edge, further than the screen's rounding.  That holds for the
          reverse codes too: j -> i takes (s + H) mod SECTORS from the code
          s of i -> j, whose difference is the exact negation of j's own,
          and negation moves the position by exactly H.
        * Three directions whose sectors fit in H consecutive sectors have
          exact positions within less than H - 2 (eps - 2^-47), so, as the
          angle grows at least as fast as t, exact angles within a
          half-circle less about 2^-34 radians, and keys, each within 2^-48
          of its angle, within an open half-circle: the kernel counts the
          triple as a miss, and the lower bound on the misses counts it.
        * A triple the kernel counts as a miss has keys within a closed
          half-circle from its first direction, so exact angles within a
          half-circle and 2^-47 of it, exact positions within H + 2^-42 of
          its position, and screen positions within H + 2^-42 + 2^-36.  The
          first lies more than eps - 2^-36 below the end of its sector s,
          so the last lies below s + H + 1: every miss fits in the H + 1
          sectors from s, and the upper bound counts it.

        Axis-aligned directions (r = 0 or +-1), a repeated position (r is
        NaN) and the directions of lattice clouds generally fail; those
        points keep the wide bounds.  The tight counts are
        ``_count_bounds`` with ``_TIGHT_SPANS``, divided as ``depths``
        divides, so they bracket ``depths`` as the wide ones do.
        """
        m = self.pts.shape[0]
        scale = sum(self.span.tolist())  # the range check, for every kind, comes first
        if self.kind == "mahalanobis" or m < 3 or not math.isfinite(scale):
            depths = self.depths(self.pts)
            return depths, depths, None
        hist = _sector_histograms(self.pts, _kept("rows", m * _WIDTH, np.int64).reshape(m, -1))
        counts = _count_bounds(hist, m)
        return counts[:, 0] / math.comb(m, 3), counts[:, 1] / math.comb(m, 3), hist

    def tight_bounds(self, idx: np.ndarray, hist: np.ndarray):
        """The points ``idx`` that pass the edge check, and the bounds on
        their depths from spans of H + 1 and H sectors, as (points, lo, hi);
        the proof is in ``bounds``.  Points that fail keep the bounds of
        ``bounds``.  ``hist`` holds the histogram rows ``bounds`` returned,
        which no screen on this thread has overwritten since.
        """
        m = self.pts.shape[0]
        clear = idx[_edge_clear(self.pts, idx)]
        counts = _count_bounds(hist[clear], m, _TIGHT_SPANS) / math.comb(m, 3)
        return clear, counts[:, 0], counts[:, 1]

    def least(self, inside: np.ndarray):
        """Which points of the cloud have the least simplicial depth
        C(m - 1, 2) / C(m, 3) as ``depths`` computes it, or None when no
        ``inside`` point has it or the hull cannot tell.

        A point has the least exact depth when it is a strict vertex of the
        convex hull (``_strict_vertices``), and so, by the gap argument below,
        does the kernel's depth unless the point lies within the margin
        of the hull's boundary.  Those points, usually none, get their depth
        from one ``depths`` call.  The hull cannot tell for a cloud of fewer
        than 4 points, another depth kind, or per-axis ranges (``span``)
        whose sum overflows; the screen then decides.

        The kernel gives a point alone at its position the least count
        exactly when the keys of its m - 1 directions fit in an open
        half-circle, that is, when the largest angular gap G between
        cyclically consecutive keys exceeds pi; the exact test is the same on
        the exact angles.  A key's angle is within d = 2^-48 of the exact
        angle: the rounded difference moves it by at most 2^-53, numpy's
        ``arctan2`` by at most 4 ulps of pi, 2^-49.  So the two agree unless
        the exact G is within 2 d of pi, and with the margin t =
        ``_HULL_MARGIN`` = 2^-40, far above 2 d:

        * At a strict vertex, G is 2 pi less the angle between its hull
          neighbours, so G - pi is its turn angle u.  With the chord c from
          the next vertex to the previous one, edges of lengths l1 and l2,
          and the vertex at distance h from the chord, sin u = |c| h /
          (l1 l2).  Unless the corner is acute, and u above pi / 2 anyway,
          |c|^2 >= l1^2 + l2^2 >= 2 l1 l2, so sin u >= 2 h / |c| >= 2 h / D.
          A vertex certainly left of its chord by more than t |c|_1 D1 has
          h > t D, so u > 2 t.  An acute corner that fails this costs one
          kernel row, never a wrong answer.
        * A point in the hull of the others has G <= pi, and G >= pi - 2 d
          puts every other point within an angle d of one side of a line
          through it, so within D sin d of that line (D: the cloud's
          diameter, at most the sum of the ranges, D1).  Moving from the
          point across the line leaves the hull within that distance, so the
          point is that close to a hull edge.  A point whose certified
          orientation against every edge (a, b) exceeds t |b - a|_1 D1 is
          farther from every edge line, and the kernel agrees.  The octagon
          of the prefilter lies in the hull, so a point that clears its
          edges by that much clears the hull's too, and is no vertex.

        A point at a repeated position has more than the least count, in
        the kernel, which treats points at the query exactly, as in the
        exact count.  So outside the margin every answer is the exact one.
        A cloud far from unit scale is first scaled by a power of two, when
        that is exact, so that the float bounds neither overflow nor
        underflow; its hull and angles are the same.
        """
        pts = self.pts
        m = pts.shape[0]
        scale = sum(self.span.tolist())
        if self.kind != "simplicial" or m < 4 or not math.isfinite(scale):
            return None
        shift = -math.frexp(float(np.abs(pts).max()))[1]
        if abs(shift) > 64:
            # far from 1 the float bounds would overflow or underflow; the
            # geometry of a cloud scaled exactly by 2^shift is the same
            scaled = np.ldexp(pts, shift)
            if np.array_equal(np.ldexp(scaled, -shift), pts):
                pts, scale = scaled, math.ldexp(scale, shift)
        found = _strict_vertices(pts, _HULL_MARGIN * scale, inside)
        if found is None:
            return None
        strict, keep, hull = found
        k = hull.size
        corners = pts[hull]
        after, prev = corners[np.arange(1 - k, 1)], corners[np.arange(-1, k - 1)]
        near = keep & ~strict
        rest = np.flatnonzero(near)
        # the other survivors against the edges, and each strict vertex
        # against its chord, from the next vertex to the previous one
        left = certainly_left(np.vstack((corners, after)), np.vstack((after, prev)),
                              np.vstack((pts[rest], corners)), float(np.abs(pts).max()),
                              _HULL_MARGIN * scale)
        near[rest] = ~left[:k, :rest.size].all(axis=0)
        near[hull] |= ~left[k:, rest.size:].diagonal() & strict[hull]
        least = strict & ~near
        near = np.flatnonzero(near)
        if near.size:
            least[near] = self.depths(self.pts[near]) == _least_depth(m)
        return least if (least & inside).any() else None


def _least_depth(m: int) -> float:
    """C(m - 1, 2) / C(m, 3), the least simplicial depth of a point of a
    cloud of m points, by the same division as ``_CheckedCloud.depths``, so
    that every depth it computes for a cloud point is at least this."""
    return float((np.array([math.comb(m - 1, 2)]) / math.comb(m, 3))[0])


def _octagon(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges (a, b), as two (edges x 2) arrays, of the polygon through
    the cloud's extreme points along the axes and diagonals in
    counterclockwise order (Akl & Toussaint, IPL 7, 1978), with repeated
    consecutive extremes merged.

    Every point strictly left of every edge of a closed polygon of cloud
    points lies inside the hull of those points, whatever the order of the
    extremes that rounding of x + y or x - y may give: from a point outside,
    or on the boundary, all of them lie in a closed half-plane, in which
    strictly counterclockwise steps cannot close the polygon.  A polygon of
    fewer than 3 points therefore has no interior: its edges go back and
    forth, and no point is left of both.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        along = _OCTAGON_AXES @ pts.T  # x, x + y, y, x - y: exact products, one rounding
    ext = [*along.argmax(axis=1)[:3], along[3].argmin(), *along.argmin(axis=1)[:3],
           along[3].argmax()]
    # one point extreme every way: a zero edge from it to itself, which
    # certifies no point
    ext = [i for k, i in enumerate(ext) if i != ext[k - 1]] or ext[:1]
    return pts[ext], pts[ext[1:] + ext[:1]]


def _chain(pts: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The convex hull of the points ``pts[idx]`` by Andrew's monotone chain
    with exact turns (``orient2d``): its vertices in counterclockwise
    order, as indices into ``pts``, one per position, and whether another of
    the points is at each one's position.  Points on an edge between two
    vertices are not vertices; the positions, when all of them lie on one
    line, give its two ends, and a single position itself."""
    rows = sorted(zip(*pts[idx].T.tolist(), idx.tolist()))  # by x, then y
    at, repeated = [], set()
    for row in rows:
        if at and row[:2] == at[-1][:2]:  # equal as numbers: -0.0 is 0.0
            repeated.add(at[-1][2])
        else:
            at.append(row)

    def half(seq) -> list:
        out = []
        for p in seq:
            while len(out) >= 2 and orient2d(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    ring = [row[2] for row in (half(at) + half(at[::-1]) if len(at) > 1 else at)]
    return np.array(ring, dtype=np.intp), np.array([i in repeated for i in ring], dtype=bool)


def _strict_vertices(pts: np.ndarray, pad: float = 0.0, inside=None):
    """Which points are strict vertices of the cloud's convex hull, not in
    the closed hull of the other points; which points survive the octagon
    prefilter; and the hull's vertices in counterclockwise order, one per
    position, as indices.

    The prefilter drops the points certainly left of every edge of
    ``_octagon`` by more than ``pad`` times the edge's 1-norm, in one
    vectorised pass (``certainly_left``); the chain runs over the rest.  A
    repeated position is never a strict vertex.  With an ``inside`` mask,
    the result is None, and no chain is built, when no inside point
    survives.
    """
    keep = ~certainly_left(*_octagon(pts), pts, float(np.abs(pts).max()), pad).all(axis=0)
    if inside is not None and not (keep & inside).any():
        return None
    hull, repeated = _chain(pts, np.flatnonzero(keep))
    strict = np.zeros(pts.shape[0], dtype=bool)
    strict[hull[~repeated]] = True
    return strict, keep, hull


def _extent(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis minimum and maximum of the rows of ``a``.  One contiguous
    copy of the transposed array and two row reductions are several times
    faster than an axis-0 reduction of a narrow (rows x 2) array, or four
    strided column reductions, and min and max are exact either way.  Only
    the sign of a zero extent depends on the order in which ties of +0.0
    and -0.0 are resolved, and no result depends on it: a range of
    ``_span`` is only checked for finiteness or added to nonnegative terms,
    and ``_grid_box`` pads the box by a positive amount."""
    rows = np.ascontiguousarray(a.T)
    return rows.min(axis=1), rows.max(axis=1)


def _span(pts: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """Per axis, the range (``np.ptp``) of the cloud and the queries, if
    any, together; a range that overflows is rejected."""
    bottom, top = _extent(pts)
    if q is not None and q.shape[0]:
        q_bottom, q_top = _extent(q)
        top, bottom = np.maximum(top, q_top), np.minimum(bottom, q_bottom)
    with np.errstate(over="ignore"):
        span = top - bottom
    if not np.isfinite(span).all():
        axis = int(np.argmin(np.isfinite(span)))
        raise ValueError(
            f"coordinate range overflows: cloud and query values on axis {axis} "
            "differ by more than the largest float")
    return span


def _blocks(count: int, width: int) -> list[slice]:
    """The one block rule: ``count`` items, each of ``width`` pairs, in
    consecutive slices of ``max(1, CHUNK_PAIRS // width)`` items, so that a
    block holds at most ``CHUNK_PAIRS`` pairs unless one item alone holds
    more; zero items make one empty slice."""
    step = max(1, CHUNK_PAIRS // width)
    return [slice(start, min(start + step, count)) for start in range(0, max(count, 1), step)]


def depth_of(cloud, queries, kind: str) -> np.ndarray:
    """Depths of many query points with respect to the cloud.

    Simplicial depths are computed in chunks of ``CHUNK_PAIRS // m`` queries.
    A cloud holding NaN or infinity, an unknown depth kind, a cloud that is
    not 2-D for simplicial depth, an empty cloud, a one-point cloud for
    Mahalanobis depth, then queries of another dimension than the cloud,
    queries holding NaN or infinity, and coordinates whose range over the
    cloud and queries overflows on some axis are rejected, in that order;
    simplicial depth of fewer than 3 cloud points fails when it is computed.
    These checks run on every call; the p-values run them once for the cloud
    and once per query set, and share the unchecked core, ``_CheckedCloud``.
    """
    checked = _CheckedCloud.check(cloud, kind)
    return checked.depths(checked.queries(queries))


# -- certified bounds on simplicial depth --------------------------------------


def _sector_codes(left: np.ndarray, right: np.ndarray, offsets: np.ndarray,
                  work: np.ndarray) -> np.ndarray:
    """Per (query, cloud point) pair, the sector code of the direction from
    the query to the point, plus the query's row offset ``row * _WIDTH``, as
    a (queries x points) integer array.  The queries and points come as the
    factors ``left`` and ``right`` of ``_differences``; ``offsets`` holds
    ``row * _WIDTH + H`` (H = SECTORS / 2) per pair.

    The sector of a direction (dx, dy) is ``floor(t * SECTORS / 4)`` for its
    diamond angle t = 1 - r on and above the x axis and t = 3 + r below it,
    with r = dx / (|dx| + |dy|).  The code is the sector; t = 4, the positive
    x axis approached from below, gets code ``SECTORS`` and counts as sector
    0.  The diamond angle is a continuous increasing function of the angle,
    with the antipode at t + 2.  A point at the query makes r = 0 / 0 = NaN
    and gets code ``SECTORS + 1``.  The position r * SECTORS / 4 comes from
    ``_positions``, the edge check's own step.

    The differences are the subtraction's bit for bit, up to the sign of an
    exact zero (see ``_differences``).  A zero dx gives r = 0 and t = 1 or
    3 whatever its sign, and a zero dy with dx < 0 gives t = 2; only a zero
    dy with dx > 0 depends on the sign, t = 0 (code 0) for +0.0 and t = 4
    (code ``SECTORS``) for -0.0, and the histograms count code ``SECTORS``
    as sector 0.  So no count moves.  A code is the truncation of
    ``offsets`` less (r + 1) H, signed as dy, rounded once; the NaN at the
    query becomes -(H + 1) first, which lands on ``SECTORS + 1``.  Every
    pass takes a scalar or an array of the same shape.

    ``work`` is a (4 x cells) float array with cells >= queries x points,
    which the computation overwrites; the codes are returned in its last row.
    """
    rows, cols = left.shape[1], right.shape[2]
    size = rows * cols
    dx, dy = _differences(left, right, work[:2, :size].reshape(2, rows, cols))
    t, codes = (row[:size].reshape(rows, cols) for row in work[2:])
    _positions(dx, dy, t, codes)
    t += SECTORS / 4
    np.copysign(t, dy, out=t)  # -0.0 counts as below: t = 4 on the positive x axis
    np.fmax(t, -(SECTORS // 2 + 1), out=t)  # NaN -> the at-query code, below
    np.subtract(offsets, t, out=t)  # row offset + t * SECTORS / 4
    codes = codes.view(np.intp)
    np.copyto(codes, t, casting="unsafe")  # truncates, as ``astype`` does
    return codes


def _positions(dx: np.ndarray, dy: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """r * SECTORS / 4, with r = dx / (|dx| + |dy|), per direction, into
    ``out``, using ``work`` of the same shape; NaN at a zero direction.  The
    one position step of the screen (``_sector_codes``) and the edge check
    (``_edge_clear``), so both see the same rounded position."""
    np.abs(dx, out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        out += np.abs(dy, out=work)
        np.divide(dx, out, out=out)  # r, exact up to rounding for any scale
    out *= SECTORS / 4  # a power of two: exact
    return out


def _tally(codes: np.ndarray, rows: int) -> np.ndarray:
    """The (rows x _WIDTH) histograms of codes offset by their row."""
    return np.bincount(codes.ravel(), minlength=rows * _WIDTH).reshape(rows, _WIDTH)


@functools.cache  # one side per CHUNK_PAIRS; a fresh array would cost page faults per call
def _tile_offsets(side: int) -> tuple[np.ndarray, np.ndarray]:
    """Two (side x side) arrays for the square tiles of the self-screen:
    the ``offsets`` of ``_sector_codes``, i * _WIDTH + H at entry (i, j),
    and the shift (j - i) * _WIDTH that moves a code from row i's offset to
    row j's.  Added in full rather than broadcast from a column, they cost
    a third as much.  Callers only read them."""
    offsets = np.arange(0, side * _WIDTH, _WIDTH)
    rows = np.repeat(offsets[:, None] + float(SECTORS // 2), side, axis=1)
    return rows, offsets - offsets[:, None]


# per thread, the kept buffers of ``_kept``.
# They stay per thread rather than per process: the replication workers of
# ``simulate.run_experiment`` are threads, and ``p_multi``, ``p_multi_max``,
# ``depth_of`` and ``bootstrap_cloud`` are public, so a caller's own threads
# may screen or resample clouds at the same time, and one shared buffer would
# race
_KEPT = threading.local()

# the largest kept buffer, in bytes: the histogram rows of a screen of 4,096
# points (4.26 MB), past every cloud size the benchmark runs
_KEPT_MAX = (1 << 12) * _WIDTH * 8


def _kept(name: str, count: int, dtype) -> np.ndarray:
    """``count`` items of ``dtype`` from this thread's kept buffer ``name``,
    the one place a thread keeps arrays between calls.  The buffer holds
    ``2 * CHUNK_PAIRS`` items on first use and grows to the largest count
    asked for, up to ``_KEPT_MAX`` bytes; a larger request gets a fresh
    array, so a thread keeps at most ``_KEPT_MAX`` bytes per name.  A fresh
    buffer costs a page fault per 4 KiB, about 2.75 us on a 2-core virtual
    machine: in the ``mc_biv`` battery, fresh gathers took about 1,560 minor
    faults per pass, and a fresh histogram array about 134 per screen at
    m = 500; kept buffers take none."""
    buf = getattr(_KEPT, name, None)
    if buf is None or buf.size < count:
        if count * np.dtype(dtype).itemsize > _KEPT_MAX:
            return np.empty(count, dtype)
        buf = np.empty(max(count, 2 * CHUNK_PAIRS), dtype)
        setattr(_KEPT, name, buf)
    return buf[:count]


def _sector_histograms(pts: np.ndarray, hist: np.ndarray | None = None) -> np.ndarray:
    """Per cloud point, the number of directions to the cloud's points with
    each code of ``_sector_codes``, as a (points x _WIDTH) array; code
    ``SECTORS`` is counted as sector 0, so its column is 0.

    The upper triangle of the m x m pair matrix is tiled in squares of side
    ``isqrt(CHUNK_PAIRS)``: a tile on the diagonal counts its directions from
    each of its rows, and a tile off it computes the code s of each direction
    i -> j once and counts it for row i, and the reverse code for row j:
    (s + H) mod ``SECTORS`` for a sector (H = SECTORS / 2), H for code
    ``SECTORS``, and itself at the point (see ``_CheckedCloud.bounds`` for
    why that is certified).  Each tile's integer counts are added as soon as
    they are known, so memory stays one tile.  They go into ``hist``, an
    (m x _WIDTH) int64 array, when given, and into a fresh one otherwise.
    """
    m = pts.shape[0]
    if hist is None:
        hist = np.zeros((m, _WIDTH), dtype=np.int64)
    else:
        hist.fill(0)
    left, right = _lefts(pts), _rights(pts)
    # square tiles of side isqrt(CHUNK_PAIRS) points: for any N and s =
    # isqrt(N), N // (N // s) == s, so items of N // s pairs make such bands
    side = math.isqrt(CHUNK_PAIRS)
    bands = _blocks(m, CHUNK_PAIRS // side)
    offsets, shift = _tile_offsets(side)
    work = _kept("work", 4 * CHUNK_PAIRS, np.float64).reshape(4, -1)
    for i, j in itertools.combinations_with_replacement(range(len(bands)), 2):
        q, p = left[:, bands[i]], right[:, :, bands[j]]
        codes = _sector_codes(q, p, offsets[: q.shape[1], : p.shape[2]], work)
        hist[bands[i]] += _tally(codes, codes.shape[0])
        if j == i:
            continue
        codes += shift[: codes.shape[0], : codes.shape[1]]
        counts = _tally(codes, codes.shape[1])
        counts[:, 0] += counts[:, SECTORS]
        counts[:, SECTORS] = 0
        hist[bands[j]] += counts[:, _REVERSE]
    hist[:, 0] += hist[:, SECTORS]
    hist[:, SECTORS] = 0
    return hist


def _count_bounds(hist: np.ndarray, m: int, spans=_WIDE_SPANS) -> np.ndarray:
    """(points x 2) lower and upper bounds on ``_simplicial_counts`` (see
    ``_CheckedCloud.bounds``) from rows of the ``_sector_histograms`` of a
    cloud of m points, from the triples of directions whose sectors fit in
    the first and in the second of ``spans`` cyclically consecutive
    sectors: H + 2 and H - 1 (``_WIDE_SPANS``, H = SECTORS / 2) on any row,
    H + 1 and H (``_TIGHT_SPANS``) on a row that passes the edge check of
    ``_CheckedCloud.tight_bounds``.

    A triple is counted from each of its own sectors s that starts such a
    run.  With h_s directions in s and R in the next span - 1 sectors, those
    are C(h_s, 3) + C(h_s, 2) R + h_s C(R, 2) triples, six times which is
    h_s (h_s - 1) (h_s - 2) + 3 h_s R (h_s + R - 2).  A triple within H
    sectors leaves a gap of more than H sectors before its first one, and
    only the sector after that gap starts a run, so the second count is
    exact; the first may count a triple twice, which keeps it an upper bound
    on the misses.  The upper bound is capped at the C(L, 3) triples of the
    L directions not at the point; L <= m - 1, since a row counts its own
    point at it, so the lower count is at least C(m, 3) - C(m - 1, 3) =
    C(m - 1, 2), the least count of a cloud point.  The rows are counted in
    blocks of 2 * SECTORS pairs (``_blocks``), so the work arrays stay a
    block's.
    """
    half = SECTORS // 2
    misses = np.empty((hist.shape[0], 2), dtype=np.int64)
    for block in _blocks(hist.shape[0], 2 * SECTORS):
        h = hist[block, :SECTORS]
        # running[:, i]: the first i entries of a row of h, h repeated,
        # summed; R = a difference
        running = np.zeros((h.shape[0], SECTORS + half + 2), dtype=np.int64)
        np.cumsum(h, axis=1, out=running[:, 1: SECTORS + 1])
        np.add(running[:, SECTORS, None], running[:, 1: half + 2], out=running[:, SECTORS + 1:])
        h_less_2 = h - 2
        r = h - 1
        r *= h
        six_same = np.einsum("ij,ij->i", r, h_less_2)
        hr = np.empty_like(r)
        for k, span in enumerate(spans):
            np.subtract(running[:, span: span + SECTORS], running[:, 1: SECTORS + 1], out=r)
            np.multiply(h, r, out=hr)
            r += h_less_2
            misses[block, k] = (six_same + 3 * np.einsum("ij,ij->i", hr, r)) // 6
    live = m - hist[:, SECTORS + 1]
    np.minimum(misses[:, 0], live * (live - 1) * (live - 2) // 6, out=misses[:, 0])
    return math.comb(m, 3) - misses


def _edge_clear(pts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Whether each point ``pts[idx]`` passes the edge check of
    ``_CheckedCloud.tight_bounds``: no direction from it, but the one to its
    own position, has 32 dx / (|dx| + |dy|) within ``_EDGE_MARGIN`` of an
    integer; a NaN, at a repeated position, fails.

    The points go in blocks of m pairs each (``_blocks``), whose
    differences come from ``_differences`` as in the screen, and whose
    positions from the screen's own step, ``_positions``, into this
    thread's kept ``work`` buffer (``_kept``), as four rows of a block's
    pairs, so no block allocates more than its flags.
    """
    m = pts.shape[0]
    right = _rights(pts)
    clear = np.empty(idx.size, dtype=bool)
    for block in _blocks(idx.size, m):
        rows = idx[block]
        work = _kept("work", 4 * rows.size * m, np.float64).reshape(4, rows.size, m)
        dx, dy = _differences(_lefts(pts[rows]), right, work[:2])
        pos = _positions(dx, dy, work[2], work[3])
        pos -= np.rint(pos, out=work[3])
        np.abs(pos, out=pos)
        pos[np.arange(rows.size), rows] = 1.0  # the point itself
        clear[block] = pos.min(axis=1) >= _EDGE_MARGIN  # NaN fails
    return clear


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


def _settle(cloud: _CheckedCloud, lo, hi, mask) -> None:
    """Replace the bounds of the masked replicates whose bounds differ by
    their exact depths, in one ``depths`` call; the call is made even when
    none differ, so that the calls a p-value makes do not depend on the
    data."""
    idx = np.flatnonzero(mask & (lo < hi))
    lo[idx] = hi[idx] = cloud.depths(cloud.pts[idx])


def _straddles(lo, hi, outside, floor: float, corner_depths) -> np.ndarray:
    """Which bounds hold the floor, of outside replicates only, or a corner
    depth, with the depth at or below it on one side and above it on the
    other."""
    straddle = outside & (lo <= floor) & (hi > floor)
    for d in corner_depths:
        straddle |= (lo <= d) & (hi > d)
    return straddle


def _multi(cloud: _CheckedCloud, region: RegionND, bounds, corners) -> MultiPValue:
    """The one path of ``p_multi`` and ``p_multi_max``, from bounds on the
    replicate depths.

    The boundary grid and the corners each get the query checks of
    ``depth_of`` once, against a cloud checked once; the replicates, which
    are the cloud, get only its range check (``_CheckedCloud.span``).  Without
    corners and with replicates inside, the convex hull comes first
    (``_CheckedCloud.least``): when it finds an inside replicate at the
    least depth C(m - 1, 2) / C(m, 3), that is the floor, and the tail is
    the share of outside replicates at the least depth.  No bound is
    computed and, unless a replicate lies within the hull's margin of 2^-40
    radians, no exact depth either.  Otherwise the bounds are the screen's,
    whose simplicial lower bounds are all at least ``_least_depth(m)``, as
    every computed depth of a cloud point is (Liu 1990; the kernel's own
    division).

    With replicates inside, the floor is settled exactly among the inside
    replicates whose lower bound is below their least upper bound, min hi.
    That keeps the floor F: F <= min hi, and a candidate with lo >= min hi
    has depth >= F, so the minimum over the settled depths, the certified
    ones (lo == hi) and the lower bounds left is still F.  Without, the
    floor is the least exact depth over the boundary grid, computed in one
    ``depths`` call.  Then the replicates whose screen bounds straddle the
    floor (outside ones) or a corner depth get the tight bounds of
    ``_CheckedCloud.tight_bounds`` where the edge check allows, from the
    screen's histogram rows of those replicates alone, and the ones that
    still straddle are settled in one more ``depths`` call.  Every
    comparison then reads a bound that equals the exact depth or lies on the
    same side of the threshold, so the result equals the one from all exact
    depths, bit for bit.  Both paths end in ``_result``.

    A corner below the least depth straddles no bound and gets
    ``corner_p`` 0.  When all corners are that shallow, the hull may decide
    too; see ``p_multi_max``.  Their depths are then computed first, where,
    with replicates inside and m >= 4, no other check of a simplicial
    p-value can fail before them.
    """
    pts = cloud.pts
    m = pts.shape[0]
    inside = region.contains(pts)
    corner_depths = None
    if corners is not None and cloud.kind == "simplicial" and m >= 4 and inside.any():
        corner_depths = cloud.depths(cloud.queries(corners))
    shallow = corner_depths is not None and bool((corner_depths < _least_depth(m)).all())
    if bounds is None and (corners is None or shallow) and inside.any():
        least = cloud.least(inside)
        if least is not None:
            return _result(m, np.count_nonzero(inside), np.count_nonzero(least & ~inside),
                           _least_depth(m), "inside-replicates",
                           [0] * (0 if corners is None else len(corners)))
    lo, hi, hist = cloud.bounds() if bounds is None else bounds
    if inside.any():
        _settle(cloud, lo, hi, inside & (lo < hi[inside].min()))
        floor, source = float(lo[inside].min()), "inside-replicates"
    else:
        grid = cloud.queries(region.boundary_grid(*_grid_box(pts)))
        floor, source = float(cloud.depths(grid).min()), "boundary-grid"
    if corners is not None and corner_depths is None:
        corner_depths = cloud.depths(cloud.queries(corners))
    thresholds = () if corners is None else corner_depths
    straddle = _straddles(lo, hi, ~inside, floor, thresholds)
    idx = np.flatnonzero(straddle)
    if hist is not None and idx.size:
        idx, lo_t, hi_t = cloud.tight_bounds(idx, hist)
        lo[idx], hi[idx] = lo_t, hi_t
        straddle[idx] = _straddles(lo[idx], hi[idx], ~inside[idx], floor, thresholds)
    _settle(cloud, lo, hi, straddle)
    return _result(m, np.count_nonzero(inside), np.count_nonzero(~inside & (hi <= floor)),
                   floor, source, [np.count_nonzero(hi <= d) for d in thresholds])


def _result(m: int, inside: int, tail: int, floor: float, source: str,
            corners) -> MultiPValue:
    """The ``MultiPValue`` of a cloud of m replicates, from the counts of
    those inside the region and of those in the tail, the depth floor and
    its source, and per corner the count at or below its depth.  Each share
    is the count, as a Python int, divided by m: the correctly rounded
    quotient that ``mean`` gives too, as a Python float.  p is the base
    p-value, or the largest corner p-value when one is larger."""
    esp, tail = int(inside) / m, int(tail) / m
    corner_p = tuple(int(count) / m for count in corners)
    return MultiPValue(p=max((min(esp + tail, 1.0), *corner_p)), esp=esp, tail=tail,
                       depth_floor=floor, floor_source=source, corner_p=corner_p)


# _depths: exact replicate depths already computed; the benchmark's traced replay passes them
def p_multi(cloud, kind: str, region: RegionND, _depths=None) -> MultiPValue:
    """Inside fraction plus the low-depth outside fraction.

    The depth floor is the smallest depth among replicates inside the
    region; when none falls inside it is the smallest depth over a
    deterministic grid on the region boundary spanning the cloud's bounding
    box.  Outside replicates at or below the floor count into the tail.
    Exact depths are computed only where certified bounds cannot decide
    (see ``_multi``).  For simplicial depth with replicates inside, the
    exact convex hull of the cloud comes first: a strict hull vertex has
    the least depth C(m - 1, 2) / C(m, 3) and every other replicate more,
    so an inside strict vertex is the floor and the outside strict vertices
    are the tail.  Only the replicates within 2^-40 radians of the hull's
    boundary, where the kernel's float angles could disagree with the exact
    geometry, get exact depths; that margin is 128 times the kernel's
    largest angle error, 2 * 2^-48 (see ``_CheckedCloud.least``).  Only when
    no inside replicate is at the least depth does the full screen of
    ``_CheckedCloud.bounds`` run.  A region of another dimension than the cloud is
    rejected.
    """
    pts = _cloud_points(cloud)
    check_region_dim(region, pts.shape[1])
    bounds = None if _depths is None else (d := np.array(_depths, dtype=float), d, None)
    return _multi(_CheckedCloud.check(pts, kind), region, bounds, None)


def p_multi_max(cloud, kind: str, region: RegionND) -> MultiPValue:
    """Max of the region p-value and singleton p-values at designated corners.

    A corner's p-value is the share of replicates at or below its depth.
    Every cloud point has simplicial depth at least C(m - 1, 2) / C(m, 3),
    so a corner below that depth has p-value 0 exactly.  When every corner
    is that shallow the result is the ``p_multi`` one with zero corner
    p-values, and it is computed that way, from the exact corner depths
    computed first: through the convex hull of ``p_multi`` whenever an
    inside replicate has the least depth.
    """
    pts = _cloud_points(cloud)
    if region.corners.size == 0:
        raise ValueError("region has no designated corner points")
    check_region_dim(region, pts.shape[1])
    return _multi(_CheckedCloud.check(pts, kind), region, None, region.corners)


# bivariate method name -> depth p-value; univariate methods are support.METHODS
MULTI_METHODS = {"multi": p_multi, "multi-max": p_multi_max}

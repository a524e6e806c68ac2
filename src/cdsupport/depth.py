"""Bootstrap clouds, data depth, and depth-based multivariate p-values.

The multivariate p-value combines two fractions over a cloud of bootstrap
replicate estimates: the share of replicates inside the null region, plus
the share of replicates outside it whose depth does not exceed the depth
floor of the region (the least-deep inside replicate, or a deterministic
boundary grid when nothing falls inside).  A boundary-max variant takes the
maximum with singleton p-values at designated corner points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regions import RegionND

__all__ = [
    "BootstrapCloud",
    "bootstrap_cloud",
    "mahalanobis_depth",
    "simplicial_depth",
    "simplicial_depth_brute",
    "depth_of",
    "MultiPValue",
    "MaxMultiPValue",
    "p_multi",
    "p_multi_max",
]

DEPTH_KINDS = ("mahalanobis", "simplicial")


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


def bootstrap_cloud(data, reps: int, seed) -> BootstrapCloud:
    """Resample rows with replacement and collect the replicate mean vectors."""
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
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(reps, n))
    points = x[idx].mean(axis=1)
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
    pts = _cloud_points(cloud)
    return float(_mahalanobis_batch(pts, np.atleast_2d(np.asarray(w, dtype=float)))[0])


# -- simplicial depth (2-D, exact) -------------------------------------------


def _simplicial_counts(pts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Number of closed cloud-point triangles containing each query point.

    Counting is by complement: a closed triangle misses the query exactly
    when all three direction angles fit in an open half-plane through it.
    Points coinciding with the query make every triangle through them a hit,
    ties in angle resolve by sort position, and exactly antipodal directions
    are excluded from the open arc, so degenerate configurations (collinear
    triples, duplicated points, query on a cloud point) count the same way a
    full triangle enumeration does.
    """
    m = pts.shape[0]
    if m < 3:
        raise ValueError(f"simplicial depth needs at least 3 cloud points, got {m}")
    dx = pts[:, 0][None, :] - queries[:, 0][:, None]
    dy = pts[:, 1][None, :] - queries[:, 1][:, None]
    at_query = (dx == 0.0) & (dy == 0.0)
    e_counts = at_query.sum(axis=1)
    ang = np.arctan2(dy, dx)
    ang[at_query] = np.inf  # pushed past every finite angle by the row sort
    ang.sort(axis=1)
    total = math.comb(m, 3)
    out = np.full(queries.shape[0], total, dtype=np.int64)
    for e in np.unique(e_counts):
        live = m - int(e)
        if live < 3:
            continue  # <=2 usable directions: no triple avoids the query
        rows = np.nonzero(e_counts == e)[0]
        a = ang[rows, :live]
        ext = np.concatenate([a, a + 2.0 * np.pi], axis=1)
        # per-row searchsorted via disjoint row offsets on the flattened array
        offset = (16.0 + 4.0 * np.pi) * np.arange(len(rows))[:, None]
        hits = np.searchsorted((ext + offset).ravel(), (a + np.pi + offset).ravel(), side="left")
        hits = hits.reshape(len(rows), live) - 2 * live * np.arange(len(rows))[:, None]
        within = hits - np.arange(1, live + 1)[None, :]
        out[rows] = total - (within * (within - 1) // 2).sum(axis=1)
    return out


def simplicial_depth(cloud, w) -> float:
    """Exact sample simplicial depth of a 2-vector: the fraction of closed
    cloud triangles containing it."""
    pts = _cloud_points(cloud)
    if pts.shape[1] != 2:
        raise ValueError("simplicial depth is implemented for 2-D clouds only")
    q = np.atleast_2d(np.asarray(w, dtype=float))
    return float(_simplicial_counts(pts, q)[0]) / math.comb(pts.shape[0], 3)


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


def depth_of(cloud, queries, kind: str) -> np.ndarray:
    """Depths of many query points with respect to the cloud."""
    pts = _cloud_points(cloud)
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if kind == "mahalanobis":
        return _mahalanobis_batch(pts, q)
    if kind == "simplicial":
        if pts.shape[1] != 2:
            raise ValueError("simplicial depth is implemented for 2-D clouds only")
        return _simplicial_counts(pts, q) / math.comb(pts.shape[0], 3)
    raise ValueError(f"unknown depth kind {kind!r}; expected one of {DEPTH_KINDS}")


# -- depth-based p-values -----------------------------------------------------


@dataclass(frozen=True)
class MultiPValue:
    """Region p-value split into its inside share and low-depth tail share."""

    p: float
    esp: float          # fraction of replicates inside the region
    tail: float         # fraction outside with depth <= the floor
    depth_floor: float
    floor_source: str   # "inside-replicates" | "boundary-grid"


@dataclass(frozen=True)
class MaxMultiPValue:
    p: float
    base: MultiPValue
    corner_p: tuple[float, ...]


def _grid_box(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.05 * np.maximum(hi - lo, 1e-12)
    return lo - pad, hi + pad


def p_multi(cloud, kind: str, region: RegionND, _depths: np.ndarray | None = None) -> MultiPValue:
    """Inside fraction plus the low-depth outside fraction.

    The depth floor is the smallest depth among replicates inside the
    region; when none falls inside it is the smallest depth over a
    deterministic grid on the region boundary spanning the cloud's bounding
    box.  Outside replicates at or below the floor count into the tail.
    """
    pts = _cloud_points(cloud)
    inside = region.contains(pts)
    depths = depth_of(pts, pts, kind) if _depths is None else _depths
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


def p_multi_max(cloud, kind: str, region: RegionND) -> MaxMultiPValue:
    """Max of the region p-value and singleton p-values at designated corners."""
    pts = _cloud_points(cloud)
    if region.corners.size == 0:
        raise ValueError("region has no designated corner points")
    all_depths = depth_of(pts, np.vstack([pts, region.corners]), kind)
    replicate_depths = all_depths[: pts.shape[0]]
    corner_depths = all_depths[pts.shape[0]:]
    base = p_multi(pts, kind, region, _depths=replicate_depths)
    corner_p = tuple(float((replicate_depths <= d).mean()) for d in corner_depths)
    return MaxMultiPValue(p=max(base.p, *corner_p), base=base, corner_p=corner_p)

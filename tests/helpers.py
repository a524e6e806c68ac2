"""Scalar readings of univariate regions and support reports that only the
tests use; the library reads regions through ``support.support_table``.
Also the plain subtraction that the depth kernels' matrix products must
reproduce, and the triangle-at-a-time loop that the blocks of
``simplicial_depth_brute`` must reproduce."""

import contextlib
import math

import numpy as np
import pytest

from cdsupport import depth


def region_contains(region, theta: float) -> bool:
    """Whether some closed piece of a ``NullRegion`` holds ``theta``."""
    return any(piece.lo <= theta <= piece.hi for piece in region.pieces)


def boundary_points(region) -> list[float]:
    """All finite piece endpoints of a ``NullRegion``, ascending."""
    out: list[float] = []
    for piece in region.pieces:
        for end in (piece.lo, piece.hi):
            if math.isfinite(end) and end not in out:
                out.append(end)
    return out


def piece_full(report) -> list[float]:
    """The full support of each piece of a ``SupportReport``."""
    return [ps.full for ps in report.pieces]


def subtract_directly(left, right, out):
    """``depth._differences`` as one broadcast subtraction of the queries
    from the points: the reference for its matrix products.  Negating
    ``left[:, :, 1]`` restores the queries exactly, signed zeros included."""
    return np.subtract(right[:, 0, None, :], -left[:, :, 1, None], out=out)


@contextlib.contextmanager
def subtracting_directly():
    """Run the depth module with ``subtract_directly`` for its differences."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(depth, "_differences", subtract_directly)
        yield


def simplicial_depth_loop(cloud, w) -> float:
    """``depth.simplicial_depth_brute`` as one Python loop over the C(m, 3)
    triples, a triangle at a time: the reference for its blocks."""
    pts = depth._cloud_points(cloud)
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

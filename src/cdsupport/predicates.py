"""Exact signs of small determinants of floats.

``orient2d(a, b, c)`` is the sign of (a - c) x (b - c): positive when a, b
and c turn counterclockwise, zero when they are collinear.  It is computed
in floats and certified by a static error bound in the manner of Shewchuk
("Adaptive precision floating-point arithmetic and fast robust geometric
predicates", DCG 18, 1997); only a triple that bound leaves open is
recomputed in rational arithmetic.  ``certainly_left`` tests many points
against a few edges at once, with one bound per edge, and answers only
where the floats are sure.  ``dot_sign`` is the exact sign of
x . normal - offset.  ``fractions`` is imported only by the exact
fallbacks, so inputs the filter certifies never load it.
"""

from __future__ import annotations

import numpy as np

_EPS = 2.0 ** -53

# Shewchuk's ccwerrboundA, (3 + 16 eps) eps, bounds |fl(det) - det| by its
# product with |left| + |right| when no product underflows; one more eps
# covers the 2^-1074 at most that each underflowing product loses, since the
# filter certifies only rows with |left| + |right| >= _FILTER_FLOOR
_ORIENT_BOUND = (4.0 + 16.0 * _EPS) * _EPS
_FILTER_FLOOR = 2.0 ** -960

# the error of ``certainly_left``'s determinant per unit of edge 1-norm and
# of reach: 6 eps (1 + 2 eps) at most, with room to spare
_EDGE_BOUND = 8.0 * _EPS
_TURN = np.array([-1.0, 1.0])


def orient2d(a, b, c) -> int:
    """Exact sign of (a - c) x (b - c) for points given as sequences whose
    first two entries are Python floats.  The float determinant decides when
    it exceeds the static bound; an overflow gives inf or NaN, never an
    exception, and leaves the triple to the rational fallback."""
    left = (a[0] - c[0]) * (b[1] - c[1])
    right = (a[1] - c[1]) * (b[0] - c[0])
    det, total = left - right, abs(left) + abs(right)
    if total >= _FILTER_FLOOR:
        bound = _ORIENT_BOUND * total
        if det > bound:
            return 1
        if det < -bound:
            return -1
    return _exact_orient(a[0], a[1], b[0], b[1], c[0], c[1])


def certainly_left(a: np.ndarray, b: np.ndarray, q: np.ndarray, reach: float,
                   pad: float = 0.0) -> np.ndarray:
    """Per edge a -> b, the rows of the (edges x 2) arrays a and b, and per
    point of q, as an (edges x points) array: whether (b - a) x (q - a) is
    certainly above ``pad`` times the edge's 1-norm, so that the point lies
    left of the edge's line.  ``reach`` is at least every |coordinate| of
    a, b and q.

    The determinant is taken as (ex qy - ey qx) - (ex ay - ey ax), one
    (edges x 2) by (2 x points) matrix product and a column, with e the
    rounded b - a.  Each two-term sum is within 2 eps (1 + eps) of its
    terms' magnitudes, at most |e|_1 reach, whatever the order or fused
    multiply-adds, and rounding e moves the determinant by at most
    eps |e|_1 times a range, at most 2 reach; the last subtraction is
    compared with a float bound, so its rounding cannot cross it.  So one
    bound per edge, |e|_1 (_EDGE_BOUND reach + pad), certifies every pair,
    with room for the 2^-1074 that an underflowing product may lose once
    that bound is above the filter's floor; below the floor, or not
    finite, the edge certifies no point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        edge = b - a
        turned = edge[:, ::-1] * _TURN  # (-ey, ex)
        limit = np.abs(edge).sum(axis=1) * (_EDGE_BOUND * reach + pad)
        det = turned @ q.T
        det -= (turned * a).sum(axis=1, keepdims=True)
        return det > np.where(limit >= _FILTER_FLOOR, limit, np.inf)[:, None]


def _exact_orient(ax, ay, bx, by, cx, cy) -> int:
    from fractions import Fraction

    ax, ay, bx, by, cx, cy = map(Fraction, (ax, ay, bx, by, cx, cy))
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)


def dot_sign(x, normal, offset) -> int:
    """Exact sign of x . normal - offset for finite floats."""
    from fractions import Fraction

    total = sum(Fraction(float(u)) * Fraction(float(v)) for u, v in zip(x, normal))
    total -= Fraction(float(offset))
    return (total > 0) - (total < 0)

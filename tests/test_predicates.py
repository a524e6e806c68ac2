"""Exact orientation signs, and the strict vertices of a cloud's convex hull,
against rational arithmetic.

``fractions.Fraction`` holds every float exactly, so the oracles below
decide with no rounding at all.  Scipy's qhull, in floats, is an oracle only
for clouds in general position.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdsupport.depth import _strict_vertices
from cdsupport.predicates import certainly_left, orient2d


def exact_orient(a, b, c) -> int:
    """Sign of (a - c) x (b - c) in rationals."""
    (ax, ay), (bx, by), (cx, cy) = ([Fraction(v) for v in p] for p in (a, b, c))
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)


def brute_strict_vertices(pts: np.ndarray) -> np.ndarray:
    """Which points lie outside the closed hull of the others, in rationals.

    Such a point is alone at its position, and its directions to the others
    lie in an open half-plane: one of them, d, has every other direction e
    strictly counterclockwise of it within a half-turn (d x e > 0) or along
    it (d x e = 0 < d . e).
    """
    exact = [(Fraction(x), Fraction(y)) for x, y in pts.tolist()]
    out = []
    for i, (px, py) in enumerate(exact):
        dirs = [(qx - px, qy - py) for j, (qx, qy) in enumerate(exact) if j != i]
        if any(dx == 0 and dy == 0 for dx, dy in dirs):
            out.append(False)
            continue
        out.append(not dirs or any(
            all(dx * ey - dy * ex > 0 or (dx * ey == dy * ex and dx * ex + dy * ey > 0)
                for ex, ey in dirs)
            for dx, dy in dirs))
    return np.array(out, dtype=bool)


FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def triples(draw):
    """Rows of point triples (a, b, c): any finite floats; nearly collinear,
    c rounded from a point of the segment ab; exactly collinear on a
    lattice; Gaussian at 1e300 or at 1e-310 (subnormal differences)."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["any", "near-collinear", "lattice", "huge", "subnormal"]))
    if shape == "any":
        rows = draw(st.lists(st.lists(FLOATS, min_size=6, max_size=6), min_size=n, max_size=n))
        a, b, c = np.array(rows).reshape(n, 3, 2).transpose(1, 0, 2)
        return a, b, c
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "lattice":
        a, d = rng.integers(-5, 6, size=(2, n, 2)).astype(float)
        return a, a + 3 * d, a - 2 * d
    scale = {"near-collinear": 1.0, "huge": 1e300, "subnormal": 1e-310}[shape]
    a, b = rng.standard_normal((2, n, 2)) * scale
    t = rng.uniform(-2.0, 3.0, size=(n, 1))
    return a, b, a + t * (b - a)


@given(triples())
@settings(max_examples=300, deadline=None)
@example((np.array([[1e300, 1e300]]), np.array([[-1e300, -1e300]]), np.array([[0.0, 0.0]])))
def test_orient_signs_are_exact(case):
    a, b, c = case
    rows = list(zip(a.tolist(), b.tolist(), c.tolist()))
    assert [orient2d(*row) for row in rows] == [exact_orient(*row) for row in rows]


@given(triples(), st.sampled_from([0.0, 2.0 ** -40, 1.0]))
@settings(max_examples=300, deadline=None)
def test_certainly_left_is_never_wrong(case, pad):
    a, b, q = case
    reach = float(np.abs(np.vstack([a, b, q])).max())
    left = certainly_left(a, b, q, reach, pad)
    for i, j in zip(*np.nonzero(left)):
        # (b - a) x (q - a) > pad |b - a|_1, in rationals
        (ax, ay), (bx, by), (qx, qy) = ([Fraction(v) for v in p] for p in (a[i], b[i], q[j]))
        det = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
        assert det > Fraction(pad) * (abs(bx - ax) + abs(by - ay))


def test_overflowing_edges_raise_no_warning_and_certify_no_point():
    # every b - a overflows on some axis
    a = np.array([[-1.7e308, -1.7e308], [-1.7e308, 1.7e308], [0.0, -1.7e308]])
    b = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308], [1.0, 1.7e308]])
    q = np.array([[0.0, 0.0], [-1.0, 1e308], [1.7e308, -1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        left = certainly_left(a, b, q, 1.7e308)
    assert not left.any()


@st.composite
def hull_clouds(draw):
    """A cloud of 1..40 points: Gaussian; integer lattice; few positions,
    many repeated; exactly collinear; collinear in decimal steps, so nearly
    collinear once rounded; near-collinear with 1e-15 jitter; Gaussian at
    1e300, at 1e-310, or offset by 1e15."""
    m = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["gaussian", "lattice", "duplicates", "collinear",
                                  "decimal-line", "jittered-line", "huge", "tiny", "offset"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "lattice":
        return rng.integers(-3, 4, size=(m, 2)).astype(float)
    if shape == "duplicates":
        base = rng.standard_normal((max(1, m // 6), 2))
        return base[rng.integers(0, base.shape[0], size=m)]
    if shape == "collinear":
        return np.outer(rng.integers(-20, 21, size=m), [3.0, -2.0]) + [1.0, 4.0]
    if shape == "decimal-line":
        return np.outer(rng.integers(-20, 21, size=m) * 0.1, [0.3, 0.7]) + [0.1, 0.2]
    if shape == "jittered-line":
        line = np.outer(rng.standard_normal(m), rng.standard_normal(2))
        return line + 1e-15 * rng.standard_normal((m, 2))
    scale = {"gaussian": 1.0, "huge": 1e300, "tiny": 1e-310, "offset": 1.0}[shape]
    pts = rng.standard_normal((m, 2)) * scale
    return pts + 1e15 if shape == "offset" else pts


@given(hull_clouds())
@settings(max_examples=300, deadline=None)
def test_strict_vertices_equal_the_rational_extreme_points(pts):
    assert np.array_equal(_strict_vertices(pts)[0], brute_strict_vertices(pts))


@pytest.mark.parametrize("m", [50, 500, 2000])
def test_strict_vertices_equal_qhull_in_general_position(m):
    from scipy.spatial import ConvexHull

    for seed in range(10):
        pts = np.random.default_rng([20, seed]).standard_normal((m, 2)) * [1.0, 2.0]
        assert np.array_equal(np.flatnonzero(_strict_vertices(pts)[0]),
                              np.sort(ConvexHull(pts).vertices))

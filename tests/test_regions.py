import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsupport import (
    Halfspace,
    Interval,
    NullRegion,
    PointSet,
    QuadrantComplement,
    Rectangle,
    format_region,
    parse_region,
)


class TestParse:
    def test_single_interval(self):
        r = parse_region("[-0.01,0.01]")
        assert r.pieces == (Interval(-0.01, 0.01),)

    def test_singletons(self):
        r = parse_region("0;1")
        assert r.pieces == (Interval(0.0, 0.0), Interval(1.0, 1.0))

    def test_overlap_merges(self):
        r = parse_region("[0,2];[1,3]")
        assert r.pieces == (Interval(0.0, 3.0),)

    def test_touching_merges(self):
        r = parse_region("[0,1];[1,2]")
        assert r.pieces == (Interval(0.0, 2.0),)

    def test_half_lines(self):
        r = parse_region("(-inf,0];[0.5,inf)")
        assert r.pieces == (Interval(-math.inf, 0.0), Interval(0.5, math.inf))

    def test_malformed_tokens(self):
        with pytest.raises(ValueError, match=r"\{0.3\}"):
            parse_region("{0.3}")
        with pytest.raises(ValueError, match="lo > hi"):
            parse_region("[2,1]")
        with pytest.raises(ValueError, match="empty"):
            parse_region("")
        with pytest.raises(ValueError, match="finite"):
            parse_region("[1,inf]")
        with pytest.raises(ValueError):
            parse_region("[1,2,3]")


class TestNullRegion:
    def test_contains_closed_endpoints(self):
        r = parse_region("[0,1]")
        assert r.contains(1.0) and r.contains(0.0) and r.contains(0.5)
        assert not r.contains(1.0000001)

    def test_contains_singleton_union(self):
        r = parse_region("0;1")
        assert r.contains(0.0) and r.contains(1.0)
        assert not r.contains(0.5)

    def test_boundary_points(self):
        r = parse_region("(-inf,0];[0.5,inf)")
        assert r.boundary_points() == [0.0, 0.5]

    def test_strict_gaps_after_normalize(self):
        r = parse_region("[0,0.1];[0.5,0.6];[1,1.1]")
        for first, second in zip(r.pieces, r.pieces[1:]):
            assert first.hi < second.lo

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NullRegion(())


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def regions(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    pieces = []
    for _ in range(k):
        a = draw(finite)
        if draw(st.booleans()):
            pieces.append(Interval(a, a))
        else:
            b = draw(finite)
            lo, hi = sorted((a, b))
            pieces.append(Interval(lo, hi))
    if draw(st.booleans()):
        pieces.append(Interval(-math.inf, draw(finite)))
    return NullRegion(tuple(pieces))


@given(regions())
@settings(max_examples=120, deadline=None)
def test_parse_format_round_trip(region):
    assert parse_region(format_region(region)) == region


@st.composite
def unbounded_regions(draw):
    """Regions with an upper half-line or the whole line; a lower half-line
    drawn by ``regions`` may merge with the upper one into the whole line."""
    pieces = list(draw(regions()).pieces)
    if draw(st.booleans()):
        pieces.append(Interval(-math.inf, math.inf))
    else:
        pieces.append(Interval(draw(finite), math.inf))
    return NullRegion(tuple(pieces))


@given(unbounded_regions())
@settings(max_examples=120, deadline=None)
def test_parse_format_round_trip_unbounded(region):
    assert parse_region(format_region(region)) == region


def test_whole_line_parses_with_spaces():
    whole = NullRegion((Interval(-math.inf, math.inf),))
    assert parse_region("( -inf , inf )") == parse_region("(-inf,inf)") == whole
    assert parse_region("(-inf,inf);0.5") == whole


@given(regions())
@settings(max_examples=120, deadline=None)
def test_normalized_pieces_disjoint_sorted(region):
    for first, second in zip(region.pieces, region.pieces[1:]):
        assert first.hi < second.lo


class TestRectangle:
    def test_contains_and_default_corners(self):
        r = Rectangle(lower=[-1, -4], upper=[0, 4])
        inside = r.contains(np.array([[-0.5, 0.0], [0.0, 4.0], [0.1, 0.0]]))
        assert inside.tolist() == [True, True, False]
        assert sorted(map(tuple, r.corners.tolist())) == [
            (-1, -4), (-1, 4), (0, -4), (0, 4),
        ]

    def test_infinite_bounds_have_no_default_corners(self):
        r = Rectangle(lower=[-1, -math.inf], upper=[0, math.inf])
        assert r.corners.size == 0
        assert r.contains(np.array([[-0.5, 1e9]])).all()

    def test_boundary_grid_lies_on_boundary(self):
        r = Rectangle(lower=[-1, -4], upper=[0, 4])
        grid = r.boundary_grid(np.array([-2.0, -5.0]), np.array([2.0, 5.0]))
        on_edge = (
            np.isclose(grid[:, 0], -1) | np.isclose(grid[:, 0], 0)
            | np.isclose(grid[:, 1], -4) | np.isclose(grid[:, 1], 4)
        )
        assert on_edge.all()
        assert grid.shape[0] >= 4 * 64

    def test_validation(self):
        with pytest.raises(ValueError):
            Rectangle(lower=[1, 0], upper=[0, 1])
        with pytest.raises(ValueError):
            Rectangle(lower=[0], upper=[1, 2])

    def test_one_dimensional(self):
        r = Rectangle(lower=[0.0], upper=[1.0])
        assert r.contains(np.array([[0.5], [1.5]])).tolist() == [True, False]
        assert r.boundary_grid(np.array([-1.0]), np.array([2.0])).shape == (2, 1)


class TestHalfspace:
    def test_contains(self):
        h = Halfspace(normal=[1.0, 0.0], offset=0.0)
        assert h.contains(np.array([[-1, 9], [0, 0], [0.1, -5]])).tolist() == [
            True, True, False,
        ]

    def test_grid_on_boundary_line(self):
        h = Halfspace(normal=[1.0, 1.0], offset=1.0)
        grid = h.boundary_grid(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
        assert grid.shape == (129, 2)
        assert np.allclose(grid @ np.array([1.0, 1.0]), 1.0)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace(normal=[0.0, 0.0], offset=1.0)


class TestQuadrantComplement:
    def test_contains(self):
        q = QuadrantComplement(corner=[0.0, 0.0])
        pts = np.array([[1, 1], [0, 0], [-1, 5], [5, -1], [0, 7], [1e-9, 1e-9]])
        assert q.contains(pts).tolist() == [False, True, True, True, True, False]

    def test_grid_contains_corner_and_rays(self):
        q = QuadrantComplement(corner=[0.0, 0.0])
        grid = q.boundary_grid(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
        assert (grid[0] == np.array([0.0, 0.0])).all()
        on_rays = ((grid[:, 1] == 0.0) & (grid[:, 0] >= 0.0)) | (
            (grid[:, 0] == 0.0) & (grid[:, 1] >= 0.0)
        )
        assert on_rays.all()


class TestPointSet:
    def test_contains_exact_members_only(self):
        p = PointSet(points=[[0.0, 0.0], [1.0, 1.0]])
        assert p.contains(np.array([[0, 0], [0.5, 0.5], [1, 1]])).tolist() == [
            True, False, True,
        ]

    def test_corners_default_to_points(self):
        p = PointSet(points=[[0.0, 0.0], [1.0, 1.0]])
        assert p.corners.tolist() == [[0.0, 0.0], [1.0, 1.0]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PointSet(points=np.empty((0, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda c: Rectangle(lower=[-1, -1], upper=[1, 1], corners=c),
        lambda c: Halfspace(normal=[1.0, 0.0], offset=0.0, corners=c),
        lambda c: QuadrantComplement(corner=[0.0, 0.0], corners=c),
        lambda c: PointSet(points=[[0.0, 0.0]], corners=c),
    ],
    ids=["rectangle", "halfspace", "quadrant-complement", "points"],
)
def test_non_finite_corners_rejected(make, bad):
    with pytest.raises(ValueError, match="corner points must be finite"):
        make([[0.0, 0.0], [bad, 0.0]])

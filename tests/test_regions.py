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
from helpers import boundary_points, region_contains


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
        assert region_contains(r, 1.0) and region_contains(r, 0.0) and region_contains(r, 0.5)
        assert not region_contains(r, 1.0000001)

    def test_contains_singleton_union(self):
        r = parse_region("0;1")
        assert region_contains(r, 0.0) and region_contains(r, 1.0)
        assert not region_contains(r, 0.5)

    def test_boundary_points(self):
        r = parse_region("(-inf,0];[0.5,inf)")
        assert boundary_points(r) == [0.0, 0.5]

    def test_strict_gaps_after_normalize(self):
        r = parse_region("[0,0.1];[0.5,0.6];[1,1.1]")
        for first, second in zip(r.pieces, r.pieces[1:]):
            assert first.hi < second.lo

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NullRegion(())


class TestPointsAtInfinity:
    """{-inf} and {+inf} are closed intervals of the extended reals; text
    input cannot name them."""

    def test_they_construct(self):
        for end in (-math.inf, math.inf):
            assert Interval(end, end).is_singleton

    def test_out_of_order_still_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            Interval(math.inf, 1.0)

    def test_a_half_line_absorbs_its_point(self):
        lower, upper = Interval(-math.inf, 0.0), Interval(1.0, math.inf)
        points = (Interval(-math.inf, -math.inf), Interval(math.inf, math.inf))
        assert NullRegion((lower, upper) + points) == NullRegion((lower, upper))
        assert NullRegion((Interval(0.0, 1.0),) + points).pieces == (
            points[0], Interval(0.0, 1.0), points[1])

    @pytest.mark.parametrize("text,message", [
        ("inf", "malformed region piece 'inf': singleton must be finite"),
        ("-inf", "malformed region piece '-inf': singleton must be finite"),
        ("[inf,inf]", "malformed region piece '[inf,inf]': endpoint must be finite"),
        ("(-inf,-inf]", "malformed region piece '(-inf,-inf]': endpoint must be finite"),
    ])
    def test_text_cannot_name_them(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_region(text)
        assert str(info.value) == message


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
        # 1-D and 3-D boxes: signed zeros compare equal and NaN is in no box,
        # as in the np.all form over all columns at once
        boxes = [
            ([0.0], [1.0], [[0.5], [-0.0], [np.nan], [1.0], [1.5]],
             [True, True, False, True, False]),
            ([-0.0, -1.0, 0.0], [0.0, 1.0, np.inf],
             [[0.0, 0.0, 0.0], [-0.0, 1.0, 1e308], [np.nan, 0.0, 0.0], [0.0, 0.0, -0.0],
              [0.0, 0.0, -5e-324], [0.0, -1.0, np.inf], [0.0, np.nan, np.nan]],
             [True, True, False, True, False, True, False]),
        ]
        for lower, upper, points, want in boxes:
            box, pts = Rectangle(lower=lower, upper=upper), np.array(points)
            assert box.contains(pts).tolist() == want
            assert want == np.all((pts >= box.lower) & (pts <= box.upper), axis=1).tolist()

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_of_a_normal_whose_squared_length_overflows(self):
        # normal . normal is inf, so normal and offset are first divided by
        # 2^665, and the foot is the true boundary x = 1e-200
        h = Halfspace(normal=[1e200, 0.0], offset=1.0)
        grid = h.boundary_grid(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
        assert grid.shape == (129, 2)
        assert (grid[:, 0] == 1e-200).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_of_a_normal_whose_squared_length_underflows(self):
        h = Halfspace(normal=[0.0, 2.8345852743287677e-165], offset=0.0)
        assert h.contains(np.array([[5.0, -1.0], [5.0, 1.0]])).tolist() == [True, False]
        grid = h.boundary_grid(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
        assert grid.shape == (129, 2) and (grid[:, 1] == 0.0).all()
        assert grid[:, 0].min() == -3.3 and grid[:, 0].max() == 3.3
        # an offset whose foot overflows is still rejected
        with pytest.raises(ValueError, match="boundary point .* is not finite"):
            Halfspace(normal=[0.0, 2.8345852743287677e-165], offset=1e300).boundary_grid(
                np.array([-3.0, -3.0]), np.array([3.0, 3.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("normal,offset", [([1.0, 0.7], 0.3), ([1e-3, 1e-3], 1e-3),
                                               ([2.0, -1.0], -5.0)])
    def test_grid_foot_is_unchanged_where_the_squared_length_is_normal(self, normal, offset):
        a = np.array(normal)
        grid = Halfspace(normal=normal, offset=offset).boundary_grid(
            np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
        direction = np.array([-a[1], a[0]]) / math.hypot(a[0], a[1])
        corners = np.array([[-3.0, -3.0], [-3.0, 3.0], [3.0, -3.0], [3.0, 3.0]])
        foot = a * offset / (a @ a)
        t = (corners - foot) @ direction
        pad = 0.05 * (t.max() - t.min())
        assert np.array_equal(grid[0], foot + (t.min() - pad) * direction)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_contains_decides_an_overflowing_product_exactly(self):
        h = Halfspace(normal=[1e10, 1e10], offset=0.0)
        assert h.contains([[1e300, -1e300]]).tolist() == [True]
        pts = np.array([[1e300, -1e300 * (1 - 2.0 ** -52)], [1e300, -1e300 * (1 + 2.0 ** -52)],
                        [1e300, 1.0], [-1e300, -1.0], [0.5, -0.5]])
        assert h.contains(pts).tolist() == [False, True, False, True, True]


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

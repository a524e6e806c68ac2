"""Null regions: unions of closed generalized intervals, and 2-D shapes.

The univariate grammar accepts semicolon-separated pieces::

    [a,b]        closed interval with finite endpoints
    a            singleton {a}
    (-inf,a]     lower half-line
    [b,inf)      upper half-line
    (-inf,inf)   the whole line

Every number is read by ``number``, the one rule for each number the
package reads from text: region pieces, the CLI's tables, configs and flags.

Pieces are normalized on construction: sorted ascending, with overlapping or
touching pieces merged, so consecutive pieces always have a strict gap.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .predicates import dot_sign

__all__ = [
    "Interval",
    "NullRegion",
    "parse_region",
    "format_region",
    "RegionND",
    "Rectangle",
    "Halfspace",
    "QuadrantComplement",
    "PointSet",
]


@dataclass(frozen=True, order=True)
class Interval:
    """Closed interval [lo, hi] on the extended reals; lo == hi is a singleton.

    The points at infinity, {-inf} and {+inf}, are singletons too, and carry
    zero support under every CD; text input stays finite, because
    ``parse_region`` reads only finite endpoints and singletons.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class NullRegion:
    """Nonempty union of pairwise-disjoint closed intervals, sorted ascending."""

    pieces: tuple[Interval, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a null region needs at least one piece")
        object.__setattr__(self, "pieces", _normalize(self.pieces))

    def describe(self) -> str:
        """Report form: the region grammar text, as :class:`RegionND` gives a dict."""
        return format_region(self)


def _normalize(pieces) -> tuple[Interval, ...]:
    merged: list[Interval] = []
    for piece in sorted(pieces):
        if merged and piece.lo <= merged[-1].hi:
            last = merged.pop()
            merged.append(Interval(last.lo, max(last.hi, piece.hi)))
        else:
            merged.append(piece)
    return tuple(merged)


_INTERVAL = re.compile(r"^\[([^,\]]+),([^,\]]+)\]$")
_LOWER = re.compile(r"^\(\s*-inf\s*,([^,\]]+)\]$")
_UPPER = re.compile(r"^\[([^,\)]+),\s*inf\s*\)$")
_WHOLE = re.compile(r"^\(\s*-inf\s*,\s*inf\s*\)$")


def number(token: str, kind: type = float):
    """``kind(token)`` for ``kind`` ``float`` or ``int``, when ``token`` is a
    number: it is ASCII, holds no ``_``, and ``kind`` parses it.  ``kind``
    alone would also read ``1_0`` as 10 and the Arabic-Indic digit
    ``\u0661`` as 1.  Anything else raises ``ValueError``; a value that is
    not finite is left to the caller."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a number: {token!r}")
    return kind(token)


def _number(tok: str, piece: str, what: str = "endpoint") -> float:
    """The finite number ``tok`` of region piece ``piece``; a singleton
    piece is its own token."""
    try:
        v = number(tok)
    except ValueError:
        bad = "" if what == "singleton" else f": bad number {tok.strip()!r}"
        raise ValueError(f"malformed region piece {piece!r}{bad}") from None
    if not math.isfinite(v):
        raise ValueError(f"malformed region piece {piece!r}: {what} must be finite")
    return v


def parse_region(text: str) -> NullRegion:
    """Parse the region grammar into a normalized :class:`NullRegion`."""
    if not text or not text.strip():
        raise ValueError("empty region specification")
    pieces = []
    for raw in text.split(";"):
        tok = raw.strip()
        if not tok:
            raise ValueError("empty region piece")
        if _WHOLE.match(tok):
            pieces.append(Interval(-math.inf, math.inf))
        elif m := _LOWER.match(tok):
            pieces.append(Interval(-math.inf, _number(m.group(1), tok)))
        elif m := _UPPER.match(tok):
            pieces.append(Interval(_number(m.group(1), tok), math.inf))
        elif m := _INTERVAL.match(tok):
            lo, hi = _number(m.group(1), tok), _number(m.group(2), tok)
            if lo > hi:
                raise ValueError(f"malformed region piece {tok!r}: lo > hi")
            pieces.append(Interval(lo, hi))
        else:
            v = _number(tok, tok, "singleton")
            pieces.append(Interval(v, v))
    return NullRegion(tuple(pieces))


def format_region(region: NullRegion) -> str:
    out = []
    for p in region.pieces:
        if p.is_singleton:
            out.append(repr(p.lo))
        elif math.isinf(p.lo) and math.isinf(p.hi):
            out.append("(-inf,inf)")
        elif math.isinf(p.lo):
            out.append(f"(-inf,{p.hi!r}]")
        elif math.isinf(p.hi):
            out.append(f"[{p.lo!r},inf)")
        else:
            out.append(f"[{p.lo!r},{p.hi!r}]")
    return ";".join(out)


# -- multivariate regions ---------------------------------------------------


class RegionND:
    """Closed region of R^k with optional designated boundary corner points.

    Subclasses are dataclasses that name their ``shape`` and provide
    vectorized membership and a deterministic boundary grid (used when no
    bootstrap replicate falls inside the region); ``describe`` gives the
    dict form for report embedding.
    """

    shape: ClassVar[str]
    dim: int
    corners: np.ndarray  # (c, dim); may be empty

    def contains(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def boundary_grid(self, box_lo: np.ndarray, box_hi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        """Report form: the shape, then each field in order, as (nested)
        lists of floats or a float, written by ``json_bound``."""
        return {"shape": self.shape,
                **{f.name: _json_numbers(np.asarray(getattr(self, f.name), dtype=float).tolist())
                   for f in fields(self)}}


def _as_corners(corners, dim: int) -> np.ndarray:
    if corners is None:
        return np.empty((0, dim))
    arr = np.atleast_2d(np.asarray(corners, dtype=float))
    if arr.shape[1] != dim:
        raise ValueError(f"corner points must have dimension {dim}")
    if not np.isfinite(arr).all():
        raise ValueError("corner points must be finite")
    return arr


def json_bound(value: float):
    """A bound as a report value: strict JSON has no infinity, so an infinite
    bound is written as the text the region grammar reads, "inf" or "-inf"."""
    return ("inf" if value > 0 else "-inf") if math.isinf(value) else value


def _json_numbers(value):
    """``json_bound`` over a float or a nested list of floats."""
    return [_json_numbers(v) for v in value] if isinstance(value, list) else json_bound(value)


def _edge_points(a, b, count: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, count)[:, None]
    return np.asarray(a) * (1.0 - t) + np.asarray(b) * t


@dataclass(frozen=True, eq=False)
class Rectangle(RegionND):
    """Axis-aligned box; bounds may be infinite. Corners default to the
    finite vertices."""

    shape: ClassVar[str] = "rectangle"
    lower: np.ndarray
    upper: np.ndarray
    corners: np.ndarray = field(default=None)

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).ravel()
        hi = np.asarray(self.upper, dtype=float).ravel()
        if lo.shape != hi.shape or lo.size == 0:
            raise ValueError("rectangle bounds must be equal-length vectors")
        if np.isnan(lo).any() or np.isnan(hi).any() or np.any(lo > hi):
            raise ValueError("rectangle bounds must satisfy lo <= hi per axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "dim", lo.size)
        if self.corners is None and np.isfinite(lo).all() and np.isfinite(hi).all():
            verts = list(itertools.product(*zip(lo, hi)))
            object.__setattr__(self, "corners", np.array(verts, dtype=float))
        else:
            object.__setattr__(self, "corners", _as_corners(self.corners, self.dim))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        # one column at a time: an axis-1 ``np.all`` over the (m x k)
        # booleans costs about as much as all the comparisons
        inside = None
        for col, lo, hi in zip(pts.T, self.lower, self.upper, strict=True):
            within = (col >= lo) & (col <= hi)
            inside = within if inside is None else inside & within
        return inside

    def boundary_grid(self, box_lo, box_hi) -> np.ndarray:
        # 64 points per edge plus the finite vertices; infinite bounds are
        # clipped to the reference box
        if self.dim == 1:
            pts = [e for e in (self.lower[0], self.upper[0]) if math.isfinite(e)]
            return np.array(pts, dtype=float).reshape(-1, 1)
        if self.dim != 2:
            raise ValueError("boundary grid implemented for 1-D and 2-D rectangles only")
        lo = np.maximum(self.lower, np.asarray(box_lo, dtype=float))
        hi = np.minimum(self.upper, np.asarray(box_hi, dtype=float))
        hi = np.maximum(hi, lo)
        (x0, y0), (x1, y1) = lo, hi
        sides = []
        if math.isfinite(self.lower[1]):
            sides.append(_edge_points((x0, self.lower[1]), (x1, self.lower[1]), 64))
        if math.isfinite(self.upper[1]):
            sides.append(_edge_points((x0, self.upper[1]), (x1, self.upper[1]), 64))
        if math.isfinite(self.lower[0]):
            sides.append(_edge_points((self.lower[0], y0), (self.lower[0], y1), 64))
        if math.isfinite(self.upper[0]):
            sides.append(_edge_points((self.upper[0], y0), (self.upper[0], y1), 64))
        if self.corners.size:
            sides.append(self.corners)
        if not sides:
            raise ValueError("rectangle has no finite boundary to grid")
        return np.vstack(sides)


@dataclass(frozen=True, eq=False)
class Halfspace(RegionND):
    """Closed halfspace {x : normal . x <= offset}."""

    shape: ClassVar[str] = "halfspace"
    normal: np.ndarray
    offset: float
    corners: np.ndarray = field(default=None)

    def __post_init__(self):
        a = np.asarray(self.normal, dtype=float).ravel()
        if a.size == 0 or not np.isfinite(a).all() or not np.any(a != 0.0):
            raise ValueError("halfspace normal must be a finite nonzero vector")
        if not math.isfinite(self.offset):
            raise ValueError("halfspace offset must be finite")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "dim", a.size)
        object.__setattr__(self, "corners", _as_corners(self.corners, self.dim))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        with np.errstate(over="ignore", invalid="ignore"):
            dots = pts @ self.normal
        out = dots <= self.offset
        # a finite point whose float product overflows is decided exactly
        for i in np.flatnonzero(~np.isfinite(dots)):
            if np.isfinite(pts[i]).all():
                out[i] = dot_sign(pts[i], self.normal, self.offset) <= 0
        return out

    def boundary_grid(self, box_lo, box_hi) -> np.ndarray:
        # 129 points on the boundary-line segment spanning the reference box:
        # project the box corners onto the line and cover their extent
        if self.dim != 2:
            raise ValueError("halfspace boundary grid implemented for 2-D only")
        a, b = self.normal, self.offset
        # normal . normal can underflow or overflow; then normal and offset
        # are first divided by the power of two of max |normal|, which keeps
        # the foot's value.  Where normal . normal is a normal float the foot
        # is the plain quotient, and only a foot that is not finite is an error
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            if np.finfo(float).tiny <= a @ a < np.inf:
                foot = a * b / (a @ a)
            else:
                shift = -int(np.frexp(np.abs(a).max())[1])
                scaled = np.ldexp(a, shift)
                foot = scaled * np.ldexp(b, shift) / (scaled @ scaled)
        if not np.isfinite(foot).all():
            raise ValueError("halfspace boundary point offset * normal / (normal . normal) "
                             "is not finite")
        direction = np.array([-a[1], a[0]]) / math.hypot(a[0], a[1])
        lo, hi = np.asarray(box_lo, dtype=float), np.asarray(box_hi, dtype=float)
        corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
        t = (corners - foot) @ direction
        pad = 0.05 * max(t.max() - t.min(), 1e-12)
        return _edge_points(
            foot + (t.min() - pad) * direction, foot + (t.max() + pad) * direction, 129
        )


@dataclass(frozen=True, eq=False)
class QuadrantComplement(RegionND):
    """Complement of the open quadrant above a corner: {x1 <= c1 or x2 <= c2}."""

    shape: ClassVar[str] = "quadrant-complement"
    corner: np.ndarray
    corners: np.ndarray = field(default=None)

    def __post_init__(self):
        c = np.asarray(self.corner, dtype=float).ravel()
        if c.size != 2 or not np.isfinite(c).all():
            raise ValueError("quadrant-complement corner must be a finite 2-vector")
        object.__setattr__(self, "corner", c)
        object.__setattr__(self, "dim", 2)
        object.__setattr__(self, "corners", _as_corners(self.corners, 2))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return ~((pts[:, 0] > self.corner[0]) & (pts[:, 1] > self.corner[1]))

    def boundary_grid(self, box_lo, box_hi) -> np.ndarray:
        # two rays out of the concave corner, 64 points each, clipped to the box
        c = self.corner
        x_end = max(float(box_hi[0]), c[0])
        y_end = max(float(box_hi[1]), c[1])
        return np.vstack(
            [
                c[None, :],
                _edge_points((c[0], c[1]), (x_end, c[1]), 65)[1:],
                _edge_points((c[0], c[1]), (c[0], y_end), 65)[1:],
            ]
        )


@dataclass(frozen=True, eq=False)
class PointSet(RegionND):
    """Finite set of points; its own points serve as boundary and corners."""

    shape: ClassVar[str] = "points"
    points: np.ndarray
    corners: np.ndarray = field(default=None)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0 or not np.isfinite(pts).all():
            raise ValueError("point region needs at least one finite point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dim", pts.shape[1])
        if self.corners is None:
            object.__setattr__(self, "corners", pts.copy())
        else:
            object.__setattr__(self, "corners", _as_corners(self.corners, self.dim))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return (pts[:, None, :] == self.points[None, :, :]).all(axis=2).any(axis=1)

    def boundary_grid(self, box_lo, box_hi) -> np.ndarray:
        return self.points.copy()

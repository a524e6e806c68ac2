"""Scalar readings of univariate regions and support reports that only the
tests use; the library reads regions through ``support.support_table``."""

import math


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

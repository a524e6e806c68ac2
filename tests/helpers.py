"""Scalar readings of univariate regions and support reports that only the
tests use; the library reads regions through ``support.support_table``.
Also the plain subtraction that the depth kernels' matrix products must
reproduce."""

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

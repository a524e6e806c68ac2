"""Evidence supports under a scalar CD and the p-value mappings built from them.

For a null region that is a union of disjoint closed intervals, each piece
gets a direct support (CD mass on the piece), an indirect support (smallest
doubled tail mass over the piece), and their clamped sum, the full support.
Every mapping reads one :class:`SupportTable`, built from a single ``cdf``
call on the vector of piece endpoints; ``METHODS`` names them for the CLI
and the harness, trading size control against power:

* ``full``       -- max over pieces of the full support, the union p-value
                    (``p_value``),
* ``direct``     -- CD mass on the whole region (``direct_support``),
* ``max-direct`` -- max over pieces of the direct support alone,
* ``p-star``     -- largest minus second-largest per-piece full support,
* ``p-max``      -- max of the whole-region direct support and the
                    indirect supports at the finite boundary points.

A CD whose center and scale are arrays stands for a block of CDs; its table
has one column per CD, so the Monte Carlo harness and the scalar calls share
this one code path.  ``weighted_indirect`` and
``extended_indirect_support`` are the paper's other singleton and region
supports, and ``bioeq_cd``, ``bioeq_tails`` and ``bioeq_p`` its two
one-sided equivalence test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cd import ConfidenceDistribution
from .regions import Interval, NullRegion

__all__ = [
    "PieceSupport",
    "SupportReport",
    "SupportTable",
    "METHODS",
    "support_table",
    "direct_support",
    "weighted_indirect",
    "extended_indirect_support",
    "p_value",
    "bioeq_cd",
    "bioeq_tails",
    "bioeq_p",
]


@dataclass(frozen=True)
class PieceSupport:
    piece: Interval
    direct: float
    indirect: float
    full: float


@dataclass(frozen=True)
class SupportReport:
    """Per-piece supports plus the union p-value, the largest full support."""

    pieces: tuple[PieceSupport, ...]
    p: float


def _clamp01(x):
    return np.minimum(np.maximum(x, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class SupportTable:
    """Per-piece supports of a region under a CD or a block of CDs.

    Arrays have one row per piece (``tail`` one row per endpoint: lo_0, hi_0,
    lo_1, ...) and one column per CD of the block.
    """

    region: NullRegion
    tail: np.ndarray      # doubled smaller tail mass 2 min(H, 1 - H) at each endpoint
    direct: np.ndarray
    indirect: np.ndarray
    full: np.ndarray

    def pieces(self) -> tuple[PieceSupport, ...]:
        """Per-piece supports of a single-CD table, as Python floats."""
        cols = zip(self.direct[:, 0].tolist(), self.indirect[:, 0].tolist(),
                   self.full[:, 0].tolist())
        return tuple(PieceSupport(pc, d, i, f) for pc, (d, i, f) in zip(self.region.pieces, cols))


def support_table(cd: ConfidenceDistribution, region: NullRegion) -> SupportTable:
    """All per-piece supports from one ``cdf`` call at the piece endpoints."""
    ends = np.array([[e] for pc in region.pieces for e in (pc.lo, pc.hi)])
    h = cd.cdf(ends)
    tail = 2.0 * np.minimum(h, 1.0 - h)
    # a singleton's two endpoints coincide, so its direct mass is exactly 0;
    # the doubled-tail curve is unimodal for a monotone cdf, so its infimum
    # over a closed piece sits at an endpoint, and an infinite endpoint
    # (where H is exactly 0 or 1) drives it to zero
    direct = _clamp01(h[1::2] - h[0::2])
    indirect = _clamp01(np.minimum(tail[0::2], tail[1::2]))
    return SupportTable(region=region, tail=tail, direct=direct, indirect=indirect,
                        full=_clamp01(direct + indirect))


def _max_full(t: SupportTable) -> np.ndarray:
    return t.full.max(axis=0)


def _direct_total(t: SupportTable) -> np.ndarray:
    # the built-in sum adds pieces in order, as a scalar sum over pieces does
    return _clamp01(sum(t.direct))


def _max_direct(t: SupportTable) -> np.ndarray:
    return t.direct.max(axis=0)


def _p_star(t: SupportTable) -> np.ndarray:
    # a single-piece region gets its full support (the second order
    # statistic is taken as zero), so the mapping is total and equals
    # ``p_value`` there
    if t.full.shape[0] == 1:
        return t.full[0]
    top = np.sort(t.full, axis=0)
    return _clamp01(top[-1] - top[-2])


def _p_max(t: SupportTable) -> np.ndarray:
    direct = _direct_total(t)
    ends = (e for pc in t.region.pieces for e in (pc.lo, pc.hi))
    finite = [k for k, e in enumerate(ends) if math.isfinite(e)]
    if not finite:  # the whole line: the direct support alone
        return direct
    return np.maximum(direct, _clamp01(t.tail[finite]).max(axis=0))


# mapping name -> p-values (one per CD of the table's block)
METHODS = {
    "full": _max_full,
    "direct": _direct_total,
    "max-direct": _max_direct,
    "p-star": _p_star,
    "p-max": _p_max,
}


def direct_support(cd: ConfidenceDistribution, region: NullRegion) -> float:
    """CD mass assigned to the whole region (sum over pieces)."""
    return _direct_total(support_table(cd, region)).item()


def weighted_indirect(cd: ConfidenceDistribution, theta0: float, gamma: float) -> float:
    """Tail-weighted singleton support min{H/gamma, (1-H)/(1-gamma)}, clamped."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie strictly inside (0, 1), got {gamma}")
    h = cd.cdf(theta0)
    return float(_clamp01(min(h / gamma, (1.0 - h) / (1.0 - gamma))))


def extended_indirect_support(cd: ConfidenceDistribution, region: NullRegion) -> float:
    """Mass of the density level set at or below the region's minimum density.

    Implemented for CDs with a symmetric unimodal density (the exact kinds):
    the density minimum over the region sits at the piece endpoint farthest
    from the center, and the level set is the pair of tails beyond that
    distance.  Regions with an infinite endpoint get level 0, hence mass 0.
    """
    cd.pdf(cd.center)  # raises for kinds without a density
    reach = 0.0
    for piece in region.pieces:
        if math.isinf(piece.lo) or math.isinf(piece.hi):
            return 0.0
        reach = max(reach, abs(piece.lo - cd.center), abs(piece.hi - cd.center))
    return float(_clamp01(cd.cdf(cd.center - reach) + (1.0 - cd.cdf(cd.center + reach))))


def p_value(cd: ConfidenceDistribution, region: NullRegion) -> SupportReport:
    """Union p-value: the largest per-piece full support."""
    table = support_table(cd, region)
    return SupportReport(pieces=table.pieces(), p=_max_full(table).item())


def bioeq_cd(
    n1: int, n2: int, mean_t: float, mean_r: float, var_d: float
) -> ConfidenceDistribution:
    """Student-t CD of the formulation-mean difference from summary statistics.

    Uses n1 + n2 - 2 degrees of freedom and standard error
    sd_d * sqrt(1/n1 + 1/n2) around the difference of least-square means.
    """
    if n1 < 2 or n2 < 2:
        raise ValueError(f"need n1, n2 >= 2, got n1={n1}, n2={n2}")
    if not (math.isfinite(mean_t) and math.isfinite(mean_r)):
        raise ValueError(f"means must be finite, got mean_t={mean_t}, mean_r={mean_r}")
    if not math.isfinite(var_d):
        raise ValueError(f"pooled variance must be finite, got {var_d}")
    if not var_d > 0.0:
        raise ValueError(f"pooled variance must be positive, got {var_d}")
    se = math.sqrt(var_d) * math.sqrt(1.0 / n1 + 1.0 / n2)
    return ConfidenceDistribution(
        kind="exact-t", center=float(mean_t - mean_r), scale=se, df=n1 + n2 - 2
    )


def bioeq_tails(cd: ConfidenceDistribution, lower: float, upper: float) -> tuple[float, float]:
    """The two one-sided equivalence tails (H(lower), 1 - H(upper))."""
    if not lower < upper:
        raise ValueError(f"equivalence limits must satisfy lower < upper, got [{lower}, {upper}]")
    return float(cd.cdf(lower)), float(1.0 - cd.cdf(upper))


def bioeq_p(
    n1: int, n2: int, mean_t: float, mean_r: float, var_d: float,
    lower: float, upper: float,
) -> float:
    """Two one-sided equivalence p-value max{H(lower), 1 - H(upper)}."""
    return max(bioeq_tails(bioeq_cd(n1, n2, mean_t, mean_r, var_d), lower, upper))

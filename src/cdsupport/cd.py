"""Confidence distributions for a scalar parameter.

A confidence distribution (CD) is a sample-dependent distribution function
on the parameter space: for each dataset it is a proper continuous c.d.f.,
and evaluated at the true parameter it is Uniform[0,1] across repeated
sampling.  Three kinds are provided:

* ``exact-t``            -- Student-t CD for a normal mean, F_t(df) applied
                            to sqrt(n)*(theta - mean)/sd,
* ``asymptotic-normal``  -- the large-sample normal analogue,
* ``bootstrap-empirical`` -- piecewise-linear c.d.f. interpolated through the
                            order statistics of resampled means.

``sample_cd`` is the one path from a sample to a CD, for the CLI's ``pval``
and the Monte Carlo harness alike.

All evaluation is done through the object's own ``cdf``.  Quantiles of the
exact kinds are the closed-form inverses ``center + scale * stdtrit(df, p)``
and ``center + scale * ndtri(p)``, which agree with that ``cdf`` to about
1e-13 in probability.

``scipy.special`` is imported on the first ``cdf`` or ``quantile`` of an
exact kind, not with this module: the bootstrap CD, bootstrap clouds and
depth p-values never load it, and importing it costs a fresh process more
than its whole set-up otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .depth import _check_seed, resample_means

__all__ = [
    "CD_TOKENS",
    "ConfidenceDistribution",
    "make_student_t_cd",
    "make_asymptotic_normal_cd",
    "make_bootstrap_cd",
    "sample_cd",
]

CD_KINDS = ("exact-t", "asymptotic-normal", "bootstrap-empirical")

# the names ``sample_cd`` takes for the Student-t, normal and bootstrap CDs
CD_TOKENS = ("t", "z", "bootstrap")


@dataclass(frozen=True, eq=False)
class ConfidenceDistribution:
    """Immutable distribution estimator of a scalar parameter."""

    kind: str  # one of CD_KINDS
    center: float | np.ndarray  # an array makes one object stand for a block of CDs
    scale: float | np.ndarray
    df: int | None = None
    grid: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in CD_KINDS:
            raise ValueError(f"unknown CD kind {self.kind!r}; expected one of {CD_KINDS}")

    def cdf(self, theta):
        """C.d.f. at ``theta`` (scalar or array); defined on the extended reals.

        ``theta`` broadcasts against an array ``center``/``scale``.
        """
        th = _not_nan(theta, "cdf")
        if self.kind == "bootstrap-empirical":
            out = self._bootstrap_cdf(th)
        else:
            from scipy import special

            z = (th - self.center) / self.scale
            out = special.stdtr(self.df, z) if self.kind == "exact-t" else special.ndtr(z)
        return float(out) if np.ndim(out) == 0 else out

    def pdf(self, theta):
        """CD density at ``theta``; only the exact kinds carry a density."""
        th = _not_nan(theta, "pdf")
        z = (th - self.center) / self.scale
        if self.kind == "exact-t":
            v = float(self.df)
            lognorm = (
                math.lgamma((v + 1.0) / 2.0)
                - math.lgamma(v / 2.0)
                - 0.5 * math.log(v * math.pi)
            )
            out = np.exp(lognorm - 0.5 * (v + 1.0) * np.log1p(z * z / v)) / self.scale
        elif self.kind == "asymptotic-normal":
            out = np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * self.scale)
        else:
            raise ValueError(f"{self.kind} CD has no evaluable density")
        out = np.where(np.isinf(th), 0.0, out)
        return float(out) if np.ndim(out) == 0 else out

    def quantile(self, p):
        """Inverse c.d.f.; ``p`` must lie strictly inside (0, 1), so NaN is
        rejected."""
        ps = np.asarray(p, dtype=float)
        if not ((ps > 0.0) & (ps < 1.0)).all():
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        if self.kind == "bootstrap-empirical":
            out = np.interp(ps, np.linspace(0.0, 1.0, self.grid.size), self.grid)
        else:
            from scipy import special

            z = special.stdtrit(self.df, ps) if self.kind == "exact-t" else special.ndtri(ps)
            out = self.center + self.scale * z
        return float(out) if np.ndim(out) == 0 else out

    # -- internals ---------------------------------------------------------

    def _bootstrap_cdf(self, th):
        levels = np.linspace(0.0, 1.0, self.grid.size)
        out = np.interp(th, self.grid, levels)
        # interp clamps outside the knot range, which is exactly the 0/1 tails
        return out


def _not_nan(theta, method: str) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if np.isnan(th).any():
        raise ValueError(f"{method} argument must not be NaN")
    return th


def _location_scale(n: int, mean, sd) -> tuple:
    """(center, scale) as floats, or as arrays when ``mean`` or ``sd`` is one."""
    if isinstance(mean, np.ndarray) or isinstance(sd, np.ndarray):
        mean, sd = np.asarray(mean, dtype=float), np.asarray(sd, dtype=float)
        positive = (sd > 0.0).all()
    else:
        mean, sd = float(mean), float(sd)
        positive = sd > 0.0
    if not positive:
        raise ValueError(f"sample sd must be positive, got {sd}")
    _check_moments(mean, sd)
    return mean, sd / math.sqrt(n)


def _check_moments(mean, sd) -> None:
    """Reject a sample mean or sd, floats or arrays, that is not finite."""
    if not (np.isfinite(mean).all() and np.isfinite(sd).all()):
        raise ValueError(f"sample mean and sd must be finite, got mean={mean}, sd={sd}")


def _check_boot_reps(reps: int) -> None:
    if reps < 100:
        raise ValueError(f"need reps >= 100 bootstrap replicates, got {reps}")


def check_cd_token(kind) -> None:
    """Reject a CD name that is not one of ``CD_TOKENS``."""
    if kind not in CD_TOKENS:
        raise ValueError(f"unknown cd kind {kind!r}")


def make_student_t_cd(n: int, mean, sd) -> ConfidenceDistribution:
    """Exact Student-t CD of a normal mean from (n, sample mean, sample sd).

    Array ``mean`` and ``sd`` give one CD object for a block of samples of
    the same size.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 for a Student-t CD, got n={n}")
    center, scale = _location_scale(n, mean, sd)
    return ConfidenceDistribution(kind="exact-t", center=center, scale=scale, df=n - 1)


def make_asymptotic_normal_cd(n: int, mean, sd) -> ConfidenceDistribution:
    """Large-sample normal CD: Phi(sqrt(n) * (theta - mean) / sd).

    Array ``mean`` and ``sd`` give one CD object for a block of samples.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    center, scale = _location_scale(n, mean, sd)
    return ConfidenceDistribution(kind="asymptotic-normal", center=center, scale=scale)


def make_bootstrap_cd(sample, reps: int, seed) -> ConfidenceDistribution:
    """Bootstrap CD of the mean: resample, then interpolate the replicate e.c.d.f.

    The c.d.f. passes linearly through the replicate order statistics, so it
    is continuous and strictly increasing between knots rather than a step
    function.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 2:
        raise ValueError(f"need a sample of size >= 2, got {x.size}")
    if not np.isfinite(x).all():
        raise ValueError("sample contains non-finite values")
    _check_boot_reps(reps)
    if np.all(x == x[0]):
        raise ValueError("degenerate sample: all observations equal")
    with np.errstate(over="ignore", invalid="ignore"):  # sums of huge values overflow
        means = resample_means(x[:, None], reps, seed)[:, 0]
        center, scale = float(x.mean()), float(means.std(ddof=1))
    if not (math.isfinite(center) and math.isfinite(scale)):
        raise ValueError(
            f"bootstrap mean and sd must be finite, got mean={center}, sd={scale}")
    grid = np.unique(means)
    if grid.size < 2:
        raise ValueError("degenerate bootstrap distribution: replicates all equal")
    return ConfidenceDistribution(
        kind="bootstrap-empirical", center=center, scale=scale, grid=grid)


def sample_cd(kind: str, sample, boot_m: int, seed) -> tuple:
    """The CD of the mean named by ``kind``, one of ``CD_TOKENS``, with the
    sample mean and sd (ddof 1) it was built from: ``(cd, mean, sd)``.

    ``sample`` is 1-D, or for ``t`` and ``z`` a (block x n) array whose rows
    are samples; the block then gets one CD with array center and scale,
    and array mean and sd.  In this order it rejects an unknown kind, fewer
    than 2 observations, a mean or sd that is not finite, fewer than 100
    bootstrap replicates ``boot_m`` and a negative ``seed``, for every
    kind, so that a report carrying ``boot_m`` and ``seed`` never shows bad
    ones; then come the checks of the kind's own maker.
    """
    check_cd_token(kind)
    x = np.atleast_1d(np.asarray(sample, dtype=float))
    n = x.shape[-1]
    if n < 2:
        raise ValueError("need at least 2 observations")
    with np.errstate(over="ignore", invalid="ignore"):  # sums of huge values overflow
        mean, sd = x.mean(axis=-1), x.std(axis=-1, ddof=1)
    if x.ndim == 1:
        mean, sd = float(mean), float(sd)
    _check_moments(mean, sd)
    _check_boot_reps(boot_m)
    _check_seed(seed)
    if kind == "bootstrap":
        if x.ndim != 1:
            raise ValueError("a bootstrap CD takes one 1-D sample")
        return make_bootstrap_cd(x, boot_m, seed), mean, sd
    make = make_student_t_cd if kind == "t" else make_asymptotic_normal_cd
    return make(n, mean, sd), mean, sd

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

All evaluation is done through the object's own ``cdf``; quantiles are
obtained by bracketed root finding on that same ``cdf`` so the pair is
internally consistent to ~1e-12 in probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "ConfidenceDistribution",
    "make_student_t_cd",
    "make_asymptotic_normal_cd",
    "make_bootstrap_cd",
]

# |cdf(quantile(p)) - p| after inversion
QUANTILE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ConfidenceDistribution:
    """Immutable distribution estimator of a scalar parameter."""

    kind: str  # "exact-t" | "asymptotic-normal" | "bootstrap-empirical"
    center: float | np.ndarray  # an array makes one object stand for a block of CDs
    scale: float | np.ndarray
    df: int | None = None
    grid: np.ndarray | None = field(default=None, repr=False)

    def cdf(self, theta):
        """C.d.f. at ``theta`` (scalar or array); defined on the extended reals.

        ``theta`` broadcasts against an array ``center``/``scale``.
        """
        th = np.asarray(theta, dtype=float)
        if np.isnan(th).any():
            raise ValueError("cdf argument must not be NaN")
        if self.kind == "exact-t":
            out = special.stdtr(self.df, (th - self.center) / self.scale)
        elif self.kind == "asymptotic-normal":
            out = special.ndtr((th - self.center) / self.scale)
        else:
            out = self._bootstrap_cdf(th)
        return float(out) if np.ndim(out) == 0 else out

    def pdf(self, theta):
        """CD density at ``theta``; only the exact kinds carry a density."""
        th = np.asarray(theta, dtype=float)
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
        """Inverse c.d.f.; ``p`` must lie strictly inside (0, 1)."""
        ps = np.asarray(p, dtype=float)
        if np.any(ps <= 0.0) or np.any(ps >= 1.0):
            raise ValueError("quantile level must lie strictly inside (0, 1)")
        if self.kind == "bootstrap-empirical":
            levels = np.linspace(0.0, 1.0, self.grid.size)
            out = np.interp(ps, levels, self.grid)
            return float(out) if np.isscalar(p) or ps.ndim == 0 else out
        if ps.ndim == 0:
            return self._invert_exact(float(ps))
        return np.array([self._invert_exact(float(q)) for q in ps.ravel()]).reshape(ps.shape)

    # -- internals ---------------------------------------------------------

    def _bootstrap_cdf(self, th):
        levels = np.linspace(0.0, 1.0, self.grid.size)
        out = np.interp(th, self.grid, levels)
        # interp clamps outside the knot range, which is exactly the 0/1 tails
        return out

    def _invert_exact(self, p: float) -> float:
        if self.kind == "exact-t":
            guess = self.center + self.scale * float(special.stdtrit(self.df, p))
        else:
            guess = self.center + self.scale * float(special.ndtri(p))
        f = lambda th: self.cdf(th) - p
        fg = f(guess)
        if abs(fg) <= QUANTILE_TOL:
            return guess
        # bracket around the (already excellent) starting point, then bisect
        step = max(abs(guess), self.scale, 1.0) * 1e-12
        lo, hi = guess - step, guess + step
        while f(lo) > 0.0:
            step *= 8.0
            lo = guess - step
        step = max(abs(guess), self.scale, 1.0) * 1e-12
        while f(hi) < 0.0:
            step *= 8.0
            hi = guess + step
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if abs(fm) <= QUANTILE_TOL or not (lo < mid < hi):
                return mid
            if fm < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


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
    return mean, sd / math.sqrt(n)


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
    if reps < 100:
        raise ValueError(f"need reps >= 100 bootstrap replicates, got {reps}")
    if np.all(x == x[0]):
        raise ValueError("degenerate sample: all observations equal")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, x.size, size=(reps, x.size))
    means = x[idx].mean(axis=1)
    grid = np.unique(means)
    if grid.size < 2:
        raise ValueError("degenerate bootstrap distribution: replicates all equal")
    return ConfidenceDistribution(
        kind="bootstrap-empirical",
        center=float(x.mean()),
        scale=float(means.std(ddof=1)),
        grid=grid,
    )

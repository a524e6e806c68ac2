"""Monte Carlo harness: simulate data under a configured truth, compute the
chosen p-value mapping per replication, and summarize uniformity.

Replication r of a run draws its random stream from (master seed, r, 0), so
reports are bit-identical for any worker-thread count and any schedule.

Univariate runs are batched: a block of replications is drawn into one
(block, n) array, each row from its replication's own stream, and a single
CD with array center and scale feeds the support kernel for the whole block.
A block holds at most ``BLOCK_FLOATS`` sample values, so memory stays
bounded as ``reps`` grows.  The bootstrap CD, whose grid differs per
replication, is still built per replication.  The ``threads`` argument
applies to bivariate runs only; univariate runs stay on the calling thread.
A failure inside a replication raises a ``ValueError`` naming the
replication and its seed tuple.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import support
from .cd import make_asymptotic_normal_cd, make_bootstrap_cd, make_student_t_cd
from .depth import bootstrap_cloud, p_multi, p_multi_max
from .regions import NullRegion, RegionND

__all__ = [
    "PART2_COV",
    "ExperimentSpec",
    "UniformityReport",
    "run_experiment",
    "ks_uniform",
    "write_qq_csv",
    "parallel_map_indexed",
]

# covariance used throughout the bivariate study
PART2_COV = np.array([[1.0, 0.8], [0.8, 4.0]])

ALPHA_GRID = (0.01, 0.05, 0.10)

# sample values held at once by one block of univariate replications (8 MB)
BLOCK_FLOATS = 1 << 20

UNIVARIATE_METHODS = tuple(support.METHODS)
MULTI_METHODS = ("multi", "multi-max")


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """Configuration of one Monte Carlo run."""

    model: str                      # "univariate-normal" | "bivariate-normal"
    true_mean: object               # float, or length-2 vector for bivariate
    region: object                  # NullRegion | RegionND
    n: int
    reps: int = 2000
    method: str = "full"
    cd: str = "t"                   # "t" | "z" | "bootstrap"
    depth: str = "simplicial"
    boot_m: int = 500
    seed: int = 0
    sd: float = 1.0
    cov: np.ndarray = field(default_factory=lambda: PART2_COV.copy())

    def __post_init__(self):
        if self.model not in ("univariate-normal", "bivariate-normal"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.reps < 50:
            raise ValueError(f"need reps >= 50, got {self.reps}")
        if self.model == "univariate-normal":
            if self.method not in UNIVARIATE_METHODS:
                raise ValueError(f"method {self.method!r} not valid for univariate runs")
            if self.cd not in ("t", "z", "bootstrap"):
                raise ValueError(f"unknown cd kind {self.cd!r}")
            if not isinstance(self.region, NullRegion):
                raise ValueError("univariate runs need a NullRegion")
            if not self.sd > 0:
                raise ValueError("sd must be positive")
        else:
            if self.method not in MULTI_METHODS:
                raise ValueError(f"method {self.method!r} not valid for bivariate runs")
            if not isinstance(self.region, RegionND):
                raise ValueError("bivariate runs need a RegionND")
            cov = np.asarray(self.cov, dtype=float)
            if cov.shape != (2, 2) or not np.allclose(cov, cov.T):
                raise ValueError("covariance must be a symmetric 2x2 matrix")
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ValueError("covariance must be positive definite") from None
            object.__setattr__(self, "cov", cov)
            truth = np.asarray(self.true_mean, dtype=float).ravel()
            if truth.size != 2:
                raise ValueError("bivariate truth must be a 2-vector")
            object.__setattr__(self, "true_mean", truth)
        if self.boot_m < 100:
            raise ValueError(f"need boot_m >= 100, got {self.boot_m}")


@dataclass(frozen=True, eq=False)
class UniformityReport:
    """Sorted simulated p-values with QQ and rejection summaries."""

    pvalues: np.ndarray             # ascending
    uniform_quantiles: np.ndarray   # (i - 0.5) / reps
    ks: float
    rejection_rates: dict
    spec: ExperimentSpec

    def summary(self) -> dict:
        return {
            "reps": int(self.pvalues.size),
            "ks": self.ks,
            "rejection_rates": {f"{a:.2f}": r for a, r in self.rejection_rates.items()},
            "median_p": float(np.median(self.pvalues)),
        }


def ks_uniform(pvals) -> float:
    """One-sample Kolmogorov-Smirnov distance to Uniform[0,1]."""
    p = np.sort(np.asarray(pvals, dtype=float).ravel())
    if p.size == 0:
        raise ValueError("need at least one p-value")
    if p[0] < 0.0 or p[-1] > 1.0:
        raise ValueError("p-values must lie in [0, 1]")
    i = np.arange(1, p.size + 1)
    return float(max(np.max(i / p.size - p), np.max(p - (i - 1) / p.size)))


def parallel_map_indexed(fn, count: int, threads: int) -> list:
    """Evaluate fn(i) for i in range(count); results ordered by index, so the
    outcome is independent of the worker count."""
    out = [None] * count
    if threads <= 1:
        for i in range(count):
            out[i] = fn(i)
        return out

    def worker(i):
        out[i] = fn(i)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(worker, range(count)))
    return out


def _replication_error(spec: ExperimentSpec, rep: int, exc: ValueError) -> ValueError:
    return ValueError(f"replication rep={rep} with seed ({spec.seed}, {rep}, 0) failed: {exc}")


def _univariate_block(spec: ExperimentSpec, reps: range) -> np.ndarray:
    """P-values of replications ``reps``, each drawn from its own stream."""
    y = np.empty((len(reps), spec.n))
    for row, r in zip(y, reps):
        np.random.default_rng([spec.seed, r, 0]).standard_normal(out=row)
    y *= spec.sd
    y += spec.true_mean
    mapping = support.METHODS[spec.method]
    if spec.cd == "bootstrap":
        return np.array([
            mapping(support.support_table(
                make_bootstrap_cd(row, spec.boot_m, seed=[spec.seed, r, 1]), spec.region
            )).item()
            for row, r in zip(y, reps)
        ])
    make_cd = make_student_t_cd if spec.cd == "t" else make_asymptotic_normal_cd
    cd = make_cd(spec.n, y.mean(axis=1), y.std(axis=1, ddof=1))
    return mapping(support.support_table(cd, spec.region))


def _univariate_pvalues(spec: ExperimentSpec) -> np.ndarray:
    block = max(1, BLOCK_FLOATS // spec.n)
    out = np.empty(spec.reps)
    for start in range(0, spec.reps, block):
        reps = range(start, min(start + block, spec.reps))
        try:
            out[reps.start:reps.stop] = _univariate_block(spec, reps)
        except ValueError:
            # rerun the block one replication at a time to name the failing one
            for r in reps:
                try:
                    _univariate_block(spec, range(r, r + 1))
                except ValueError as exc:
                    raise _replication_error(spec, r, exc) from exc
            raise
    return out


def _bivariate_p(spec: ExperimentSpec, rep: int, chol: np.ndarray) -> float:
    try:
        rng = np.random.default_rng([spec.seed, rep, 0])
        data = spec.true_mean + rng.standard_normal((spec.n, 2)) @ chol.T
        cloud = bootstrap_cloud(data, spec.boot_m, seed=[spec.seed, rep, 1])
        if spec.method == "multi":
            return p_multi(cloud, spec.depth, spec.region).p
        return p_multi_max(cloud, spec.depth, spec.region).p
    except ValueError as exc:
        raise _replication_error(spec, rep, exc) from exc


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> UniformityReport:
    """Run all replications and assemble the uniformity report.

    ``threads`` is the worker count for bivariate runs; univariate runs are
    batched on the calling thread and ignore it.
    """
    if spec.model == "univariate-normal":
        pvals = _univariate_pvalues(spec)
    else:
        chol = np.linalg.cholesky(spec.cov)
        fn = lambda r: _bivariate_p(spec, r, chol)
        pvals = np.array(parallel_map_indexed(fn, spec.reps, threads), dtype=float)
    pvals.sort()
    uq = (np.arange(1, spec.reps + 1) - 0.5) / spec.reps
    rates = {a: float((pvals <= a).mean()) for a in ALPHA_GRID}
    return UniformityReport(
        pvalues=pvals,
        uniform_quantiles=uq,
        ks=ks_uniform(pvals),
        rejection_rates=rates,
        spec=spec,
    )


def write_qq_csv(report: UniformityReport, path) -> None:
    """QQ table: rank, empirical p-value, theoretical uniform quantile."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "empirical_p", "uniform_quantile"])
        for i, (p, u) in enumerate(zip(report.pvalues, report.uniform_quantiles), start=1):
            writer.writerow([i, repr(float(p)), repr(float(u))])

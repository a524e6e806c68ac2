"""Monte Carlo harness: simulate data under a configured truth, compute the
chosen p-value mapping per replication, and summarize uniformity.

Replication r of a run draws its random stream from (master seed, r, 0), so
reports are bit-identical for any worker-thread count and any schedule.  The
master seed is an integer >= 0; seeds of 2**32 and above are split into
32-bit words as numpy does.

Both models share one driver: ``run_experiment`` cuts ``range(reps)`` into
contiguous blocks, maps them over ``threads`` block workers and joins the
p-values in index order.  A univariate block is drawn into one (block, n)
array, each row from its replication's own stream, and a single CD with
array center and scale feeds the support kernel for the whole block (the
bootstrap CD, whose grid differs per replication, is built per
replication).  A bivariate block builds each replication's bootstrap cloud
and depth p-value in turn.  A failure inside a block raises a ``ValueError``
naming the replication and its seed tuple.

A block derives all of its streams at once.  ``_stream_words`` runs numpy's
``SeedSequence`` hash (its pool mix and ``generate_state``, fixed uint32
recipes whose constants do not depend on the seed) as array operations over
the block, and numpy seeds each row's ``PCG64`` from those words through
``_Words``, an ``ISeedSequence``.  Each row's stream is the one
``np.random.default_rng([seed, r, 0])`` gives, bit for bit, with no
``SeedSequence`` object built per replication; the bootstrap streams
(seed, r, 1) come the same way.  ``_Words`` is defined on first use, and
``write_qq_csv`` imports ``csv``, so that importing the harness loads
neither ``numpy.random`` nor ``csv``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import support
from .cd import make_asymptotic_normal_cd, make_bootstrap_cd, make_student_t_cd
from .depth import DEPTH_KINDS, MULTI_METHODS, bootstrap_cloud
from .regions import NullRegion, RegionND

__all__ = [
    "PART2_COV",
    "ExperimentSpec",
    "UniformityReport",
    "run_experiment",
    "ks_uniform",
    "write_qq_csv",
]

# covariance used throughout the bivariate study
PART2_COV = np.array([[1.0, 0.8], [0.8, 4.0]])

ALPHA_GRID = (0.01, 0.05, 0.10)

# a block holds at most BLOCK_FLOATS // n replications (8 MB of univariate samples)
BLOCK_FLOATS = 1 << 20

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
        for name in ("seed", "n", "reps", "boot_m"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.model not in ("univariate-normal", "bivariate-normal"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.reps < 50:
            raise ValueError(f"need reps >= 50, got {self.reps}")
        if not isinstance(self.method, str):
            raise ValueError(f"method must be a string, got {self.method!r}")
        if self.model == "univariate-normal":
            if self.method not in support.METHODS:
                raise ValueError(f"method {self.method!r} not valid for univariate runs")
            if self.cd not in ("t", "z", "bootstrap"):
                raise ValueError(f"unknown cd kind {self.cd!r}")
            if not isinstance(self.region, NullRegion):
                raise ValueError("univariate runs need a NullRegion")
            if np.ndim(self.true_mean) != 0:
                raise ValueError("univariate truth must be a scalar")
            if np.asarray(self.true_mean).dtype.kind not in "biuf":
                raise ValueError(f"true_mean must be a real number, got {self.true_mean!r}")
            if not math.isfinite(float(self.true_mean)):
                raise ValueError(f"true_mean must be finite, got {float(self.true_mean)}")
        else:
            if self.method not in MULTI_METHODS:
                raise ValueError(f"method {self.method!r} not valid for bivariate runs")
            if self.depth not in DEPTH_KINDS:
                raise ValueError(f"unknown depth kind {self.depth!r}")
            if not isinstance(self.region, RegionND):
                raise ValueError("bivariate runs need a RegionND")
            if self.region.dim != 2:
                raise ValueError(f"bivariate runs need a 2-D region, not {self.region.dim}-D")
            cov = np.asarray(self.cov, dtype=float)
            if cov.shape != (2, 2) or not np.allclose(cov, cov.T):
                raise ValueError("covariance must be a symmetric 2x2 matrix")
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ValueError("covariance must be positive definite") from None
            object.__setattr__(self, "cov", cov)
            truth = np.asarray(self.true_mean)
            if truth.size != 2:
                raise ValueError("bivariate truth must be a 2-vector")
            if truth.dtype.kind not in "biuf":
                raise ValueError(f"true_mean must be real numbers, got {self.true_mean!r}")
            truth = truth.astype(float).ravel()
            if not np.isfinite(truth).all():
                raise ValueError(f"true_mean must be finite, got {truth.tolist()}")
            object.__setattr__(self, "true_mean", truth)
        # the bivariate model draws from ``cov`` and never reads sd; a spec
        # with a meaningless sd is rejected all the same
        if np.ndim(self.sd) or np.asarray(self.sd).dtype.kind not in "biuf":
            raise ValueError(f"sd must be a real number, got {self.sd!r}")
        if not self.sd > 0:
            raise ValueError("sd must be positive")
        if not math.isfinite(self.sd):
            raise ValueError(f"sd must be finite, got {self.sd}")
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


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def parallel_map_indexed(fn, count: int, threads: int) -> list:
    """Evaluate fn(i) for i in range(count); results ordered by index, so the
    outcome is independent of the worker count (which must be at least 1).
    The thread pool module loads on the first call with more than one."""
    _check_threads(threads)
    if threads == 1:
        return list(map(fn, range(count)))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def _replication_error(spec: ExperimentSpec, rep: int, exc: ValueError) -> ValueError:
    return ValueError(f"replication rep={rep} with seed ({spec.seed}, {rep}, 0) failed: {exc}")


# numpy's SeedSequence hash constants (numpy.random.bit_generator, NEP 19)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _uint32_words(n: int) -> list[int]:
    """``n`` as SeedSequence splits an integer: 32-bit words, low first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(h: int, mult: int):
    """SeedSequence's ``hashmix`` with its running constant, on uint32 arrays."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal h
        value = value ^ np.uint32(h)
        h = (h * mult) & _MASK32
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ (out >> np.uint32(16))


def _stream_words(seed: int, reps: range, stream: int) -> np.ndarray:
    """``SeedSequence([seed, r, stream]).generate_state(4, np.uint64)`` for
    every r in ``reps``, as a (len(reps), 4) uint64 array.

    The hash constants depend only on the entropy's length, which is the
    same for every r below 2**32, so each step of numpy's pool mix and of
    ``generate_state`` is one wrapping uint32 array operation over the block.
    ``reps`` must be a range of step 1.
    """
    if reps.step != 1:
        raise ValueError(f"replication ranges need step 1, got step {reps.step}")
    if reps.stop > 1 << 32:
        raise ValueError(f"replication index {reps.stop - 1} needs more than 32 bits")
    r = np.arange(reps.start, reps.stop, dtype=np.uint32)
    entropy = ([np.full_like(r, w) for w in _uint32_words(seed)] + [r]
               + [np.full_like(r, w) for w in _uint32_words(stream)])
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(r))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _words_class() -> type:
    """``_Words``, defined on first use: its base class loads ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        """Precomputed ``generate_state`` words; PCG64 seeds itself from them."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint64):
            return self.words

    return _Words


def _streams(seed: int, reps: range, stream: int):
    """``np.random.default_rng([seed, r, stream])`` for every r in ``reps``."""
    words_type = _words_class()
    return (np.random.Generator(np.random.PCG64(words_type(words)))
            for words in _stream_words(seed, reps, stream))


def _univariate_block(spec: ExperimentSpec, reps: range) -> np.ndarray:
    """P-values of replications ``reps``, each drawn from its own stream."""
    y = np.empty((len(reps), spec.n))
    for row, rng in zip(y, _streams(spec.seed, reps, 0)):
        rng.standard_normal(out=row)
    y *= spec.sd
    y += spec.true_mean
    mapping = support.METHODS[spec.method]
    if spec.cd == "bootstrap":
        return np.array([
            mapping(support.support_table(
                make_bootstrap_cd(row, spec.boot_m, seed=rng), spec.region
            )).item()
            for row, rng in zip(y, _streams(spec.seed, reps, 1))
        ])
    make_cd = make_student_t_cd if spec.cd == "t" else make_asymptotic_normal_cd
    cd = make_cd(spec.n, y.mean(axis=1), y.std(axis=1, ddof=1))
    return mapping(support.support_table(cd, spec.region))


def _bivariate_block(spec: ExperimentSpec, reps: range) -> np.ndarray:
    """P-values of replications ``reps``, each cloud resampled from data
    drawn from its replication's own stream."""
    chol = np.linalg.cholesky(spec.cov)
    multi = MULTI_METHODS[spec.method]
    return np.array([
        multi(bootstrap_cloud(spec.true_mean + rng.standard_normal((spec.n, 2)) @ chol.T,
                              spec.boot_m, seed=[spec.seed, r, 1]),
              spec.depth, spec.region).p
        for r, rng in zip(reps, _streams(spec.seed, reps, 0))
    ], dtype=float)


def _block_pvalues(spec: ExperimentSpec, reps: range) -> np.ndarray:
    """P-values of the contiguous replications ``reps``.

    When the block raises a ``ValueError``, it is rerun one replication at a
    time to name the failing one and its seed tuple.  The work done before
    the failing replication then runs at most twice.
    """
    block = _univariate_block if spec.model == "univariate-normal" else _bivariate_block
    try:
        return block(spec, reps)
    except ValueError:
        for r in reps:
            try:
                block(spec, range(r, r + 1))
            except ValueError as exc:
                raise _replication_error(spec, r, exc) from exc
        raise


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> UniformityReport:
    """Run all replications and assemble the uniformity report.

    ``threads`` counts block workers, for both models, and must be at least
    1.  A block holds at most ``max(1, BLOCK_FLOATS // n)`` and at most
    ceil(reps / threads) replications, so memory stays bounded as ``reps``
    grows.
    """
    _check_threads(threads)
    size = min(max(1, BLOCK_FLOATS // spec.n), -(-spec.reps // threads))
    blocks = [range(start, min(start + size, spec.reps)) for start in range(0, spec.reps, size)]
    pvals = np.concatenate(
        parallel_map_indexed(lambda i: _block_pvalues(spec, blocks[i]), len(blocks), threads))
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
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "empirical_p", "uniform_quantile"])
        for i, (p, u) in enumerate(zip(report.pvalues, report.uniform_quantiles), start=1):
            writer.writerow([i, repr(float(p)), repr(float(u))])

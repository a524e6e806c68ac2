"""Workload inputs, timed loops and correctness gates of the cdsupport benchmark.

Every input is generated from the workload seed; the program sees only the
generated specs, files and arrays, and is driven through its public functions
(``run_experiment``, ``cli.main``, ``bootstrap_cloud``, ``p_multi``, ...).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cdsupport import (
    PART2_COV,
    ExperimentSpec,
    QuadrantComplement,
    Rectangle,
    bootstrap_cloud,
    cli,
    p_multi,
    parse_region,
    run_experiment,
    simplicial_depth,
    simplicial_depth_brute,
)
from cdsupport.depth import depth_of

import replay

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

WORKLOADS = ("mc_uni", "mc_biv", "oneshot")
DEFAULT_SEED = 1

# the scripts/run_part1.py battery, copied so that the workload stays fixed
UNI_CASES = {
    "1a_point": "0",
    "1b_narrow": "[-0.01,0.01]",
    "1c_wide": "[-0.5,0.5]",
    "1d_edge": "[0,0.1]",
    "1e_unit": "[0,1]",
    "1f_halfline": "[0,inf)",
    "2a_two_tails": "(-inf,0];[0.5,inf)",
    "2b_three_narrow": "[-0.04,-0.03];[-0.01,0.01];[0.02,0.03]",
    "2c_three_spread": "[0,0.1];[0.5,0.6];[1,1.1]",
    "2d_two_points": "0;1",
}
UNI_RUNS = [(name, "full") for name in UNI_CASES] + [("1b_narrow", "direct"), ("1d_edge", "direct")]


def _biv_cases():
    # the scripts/run_part2.py battery
    return {
        "a_interior": (Rectangle(lower=[-1, -1], upper=[1, 1]), ("multi",)),
        "b_smooth_boundary": (Rectangle(lower=[-1, -4], upper=[0, 4]), ("multi",)),
        "c_concave": (QuadrantComplement(corner=[0.0, 0.0]), ("multi",)),
        "d_corner": (
            Rectangle(lower=[-1, -4], upper=[0, 0],
                      corners=[[0, 0], [0, -4], [-1, -4], [-1, 0]]),
            ("multi", "multi-max"),
        ),
        "e_small_box": (Rectangle(lower=[-0.1, -0.1], upper=[0.1, 0.1]),
                        ("multi", "multi-max")),
    }


# one-shot analyst queries: a closed loop of one caller over this fixed mix.
# The cheap classes are sent more often so that each class gets enough
# samples for its median, while the two simplicial queries still take most
# of the time.
ONESHOT_MIX = (
    "pval_boot", "pval_t", "bioeq", "pval_boot", "pval2d_maha",
    "pval_t", "pval_boot", "pval2d_simp", "bioeq", "pval_boot",
    "pval_t", "pval2d_maha", "bioeq", "pval_boot", "p_multi_simp",
)
QUERY_KINDS = ("pval_t", "pval_boot", "bioeq", "pval2d_maha", "pval2d_simp", "p_multi_simp")
UNION_TEXT = UNI_CASES["2b_three_narrow"]
# the bio-equivalence application's summary statistics and limits
BIOEQ = {"n1": 12, "n2": 12, "mean_t": 80.272, "mean_r": 82.559, "var_d": 83.623,
         "lower": -16.51, "upper": 16.51}
BOX_LO, BOX_HI = (-0.1, -0.2), (0.1, 0.2)
BOX_CONFIG = f"shape = rectangle\nlo = {BOX_LO[0]}, {BOX_LO[1]}\nhi = {BOX_HI[0]}, {BOX_HI[1]}\n"


@dataclass(frozen=True)
class Sizes:
    """Work sizes; the benchmark runs FULL, the self-test runs TINY."""

    uni_reps: int = 200          # replications per univariate case run
    n: int = 200                 # observations per simulated dataset
    biv_reps: int = 50           # replications per bivariate case run
    boot_m: int = 500            # bootstrap cloud size in mc_biv
    query_boot: int = 2000       # --boot-reps and library m of one-shot queries
    sweep: tuple = (500, 1000, 2000, 4000)
    setup_repeats: int = 7


FULL = Sizes()
TINY = Sizes(uni_reps=50, n=40, biv_reps=50, boot_m=100, query_boot=200,
             sweep=(100, 200), setup_repeats=2)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- host speed ------------------------------------------------------------------

# Median wall seconds of reference_kernel() on the reference host, a shared
# 2-vCPU Intel Xeon VM with Python 3.11.7 and numpy 2.4.6.  It is only a
# scale, so that reference-host seconds read close to wall seconds there.
KERNEL_REF_S = 0.028
# timed work between two runs of the reference kernel
SLICE_S = 0.25


def reference_kernel() -> float:
    """Wall seconds of a fixed mix of interpreter and small-array numpy work.

    It calls no cdsupport code, so no change to the program moves it; only
    the speed the host gives this process does.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    acc, seen = 0.0, {}
    for _ in range(1500):
        x = rng.standard_normal(200)
        acc += float(np.sort(x)[100]) + float(x.mean())
        for j in range(30):
            acc += math.erf(j * 0.01) * 0.5
            seen[j] = acc
    return time.perf_counter() - t0


def host_scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference-host seconds, given the kernel's
    wall time just before and just after the timed work."""
    return 2 * KERNEL_REF_S / (before + after)


class HostClock:
    """Wall times of timed work, rescaled to the reference host's speed.

    On a shared VM the speed this process gets drifts by 20-60% within
    seconds and over minutes; process CPU time drifts with it, so the cause
    is the host, not waiting.  The reference kernel runs between slices of
    about SLICE_S of timed work, and each slice is scaled by the kernel's
    speed around it.  A slower program still reads slower by the same
    factor; a slower host does not.

    ``record`` returns a cell ``[seconds, wall]``; ``seconds`` becomes
    reference-host seconds when the slice closes.
    """

    def __init__(self):
        reference_kernel()  # warm-up
        self.before = reference_kernel()
        self.pending = []
        self.pending_s = 0.0

    def record(self, wall: float) -> list:
        cell = [wall, wall]
        self.pending.append(cell)
        self.pending_s += wall
        if self.pending_s >= SLICE_S:
            self.close()
        return cell

    def close(self) -> None:
        """End the current slice; every cell recorded so far is then final."""
        if not self.pending:
            return
        after = reference_kernel()
        scale = host_scale(self.before, after)
        for cell in self.pending:
            cell[0] *= scale
        self.before, self.pending, self.pending_s = after, [], 0.0


# -- inputs ------------------------------------------------------------------


def uni_specs(seed: int, sizes: Sizes) -> list:
    return [
        (f"{name}_{method}", ExperimentSpec(
            model="univariate-normal", true_mean=0.0, region=parse_region(UNI_CASES[name]),
            n=sizes.n, reps=sizes.uni_reps, method=method, cd="z", seed=seed))
        for name, method in UNI_RUNS
    ]


def biv_specs(seed: int, sizes: Sizes) -> list:
    return [
        (f"{name}_{method}", ExperimentSpec(
            model="bivariate-normal", true_mean=(0.0, 0.0), region=region, n=sizes.n,
            reps=sizes.biv_reps, method=method, depth="simplicial",
            boot_m=sizes.boot_m, seed=seed))
        for name, (region, methods) in _biv_cases().items()
        for method in methods
    ]


def query_input(seed: int, i: int, sizes: Sizes) -> tuple:
    """Kind, dataset and bootstrap seed of one-shot query ``i``."""
    kind = ONESHOT_MIX[i % len(ONESHOT_MIX)]
    rng = np.random.default_rng([seed, i])
    qseed = int(rng.integers(2**31))
    if kind in ("pval_t", "pval_boot"):
        data = rng.standard_normal(sizes.n)
    elif kind == "bioeq":
        data = None
    else:
        data = rng.standard_normal((sizes.n, 2)) @ np.linalg.cholesky(PART2_COV).T
    return kind, data, qseed


def make_inputs(workload: str, seed: int, sizes: Sizes = FULL):
    """Everything a workload needs before its first operation."""
    if workload == "mc_uni":
        return uni_specs(seed, sizes)
    if workload == "mc_biv":
        return biv_specs(seed, sizes)
    return [query_input(seed, i, sizes) for i in range(len(ONESHOT_MIX))]


# -- digests and gates ---------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(report) -> str:
    """Digest of a UniformityReport: sorted p-values plus its summary."""
    summary = json.dumps(report.summary(), sort_keys=True).encode()
    return _sha(np.ascontiguousarray(report.pvalues).tobytes() + summary)


def json_digest(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True).encode())


class Gates:
    """Correctness checks of one run; each failed check counts once."""

    def __init__(self):
        self.results = []   # (name, ok, detail)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)

    def compare_reference(self, workload: str, digests: dict) -> None:
        """Default-seed outputs must match the digests recorded in reference.json."""
        if not REFERENCE_PATH.exists():
            self.check(f"{workload}.reference", False, "reference.json missing")
            return
        ref = json.loads(REFERENCE_PATH.read_text()).get(workload, {})
        bad = sorted(k for k in set(ref) | set(digests) if ref.get(k) != digests.get(k))
        self.check(f"{workload}.reference", not bad, f"mismatch: {bad}" if bad else "")


# -- timed workloads -------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def p50_gmean(latencies: dict) -> float:
    """Geometric mean over operation classes of each class's median latency.

    Classes differ in cost by orders of magnitude, so a median pooled over
    all of them sits on the border between two classes and jumps between
    them from run to run; the per-class medians are steady.
    """
    return statistics.geometric_mean([_median(xs) for xs in latencies.values()])


def tail_percentile(samples) -> tuple:
    """Highest whole percentile with at least ten samples beyond it, or None."""
    xs = sorted(samples)
    best = None
    for q in (50, 75, 90, 95, 99, 99.9):
        k = math.ceil(q / 100 * len(xs)) - 1
        if len(xs) - 1 - k >= 10:
            best = (q, xs[k])
    return best


class MonteCarlo:
    """A battery of run_experiment calls repeated with identical inputs.

    The warm-up and timed passes run on 1 thread; a last pass on nproc
    threads checks that the thread count changes no byte of the output.
    Timing on 1 thread keeps the figures steady on a shared 2-core host,
    where a second busy vCPU is the first to lose its core to other tenants:
    2-thread mc_biv throughput swung from 28 to 84 reps/s between runs of
    the same code.  The traced run measures the pool's scaling instead.  The
    nproc pass comes after peak RSS is read, because the pool's peak moves
    with thread timing (103-110 MB against 79 MB on 1 thread for mc_biv).
    """

    def __init__(self, workload: str, seed: int, sizes: Sizes):
        self.workload = workload
        self.seed = seed
        self.specs = make_inputs(workload, seed, sizes)

    def one_pass(self, threads: int = 1, clock: HostClock | None = None) -> tuple:
        """(reports by case, list of (case, seconds, wall seconds, reps)).

        With a clock, seconds are reference-host seconds; without, wall.
        """
        reports, timed = {}, []
        for key, spec in self.specs:
            t0 = time.perf_counter()
            reports[key] = run_experiment(spec, threads=threads)
            wall = time.perf_counter() - t0
            timed.append((key, clock.record(wall) if clock else [wall, wall], spec.reps))
        if clock:
            clock.close()
        return reports, [(key, cell[0], cell[1], reps) for key, cell, reps in timed]

    def gates(self, gates: Gates, warm: dict) -> int:
        """Replayed p-values must equal the warm-up reports'; returns ops checked.

        mc_uni replays every case; mc_biv one case, chosen by the seed.
        """
        if self.workload == "mc_uni":
            cases, replay_fn = self.specs, replay.replay_uni
        else:
            cases, replay_fn = [self.specs[self.seed % len(self.specs)]], replay.replay_biv
        for key, spec in cases:
            gates.check(f"replay.{key}", np.array_equal(replay_fn(spec), warm[key].pvalues))
        return sum(spec.reps for _, spec in cases)


def run_mc(workload: str, seed: int, seconds: float, sizes: Sizes) -> dict:
    mc = MonteCarlo(workload, seed, sizes)
    gates = Gates()
    warm_reports, _ = mc.one_pass()
    warm = {key: report_digest(report) for key, report in warm_reports.items()}
    if seed == DEFAULT_SEED and sizes == FULL:
        gates.compare_reference(workload, warm)
    attempted = mc.gates(gates, warm_reports)
    failed_ops = 0
    pass_rates, wall_rates = [], []
    case_ms = {key: [] for key, _ in mc.specs}
    clock = HostClock()
    t_start = t_pass = time.perf_counter()
    last = 0.0
    # a pass starts only if it should end within half a pass of the deadline
    while not pass_rates or time.perf_counter() - t_start + last / 2 < seconds:
        reports, timed = mc.one_pass(clock=clock)
        last, t_pass = time.perf_counter() - t_pass, time.perf_counter()
        for key, secs, _, reps in timed:
            attempted += reps
            case_ms[key].append(1e3 * secs)
            if report_digest(reports[key]) != warm[key]:
                failed_ops += reps
        reps = sum(r for *_, r in timed)
        pass_rates.append(reps / sum(s for _, s, _, _ in timed))
        wall_rates.append(reps / sum(w for _, _, w, _ in timed))
    peak_mb = peak_rss_mb()
    threaded, _ = mc.one_pass(threads=nproc())
    for key, spec in mc.specs:
        attempted += spec.reps
        if report_digest(threaded[key]) != warm[key]:
            failed_ops += spec.reps
    return {
        "threads": 1,
        "attempted": attempted,
        "failed": failed_ops + gates.failed,
        "gates": gates.results,
        "ops_per_s": _median(pass_rates),
        "p50_gmean_ms": p50_gmean(case_ms),
        "peak_rss_mb": peak_mb,
        "detail": {
            "passes": len(pass_rates),
            "reps_per_s_by_pass": pass_rates,
            "wall_reps_per_s_by_pass": wall_rates,
            "case_p50_ms": {key: _median(v) for key, v in case_ms.items()},
            "reference_digests": warm,
        },
    }


class OneShot:
    """Closed loop of one caller sending the fixed query mix."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.config = workdir / "box.cfg"
        self.config.write_text(BOX_CONFIG)
        self.box = Rectangle(lower=list(BOX_LO), upper=list(BOX_HI))

    def write_csv(self, data: np.ndarray) -> Path:
        path = self.workdir / ("x1.csv" if data.ndim == 1 else "x2.csv")
        rows = data[:, None] if data.ndim == 1 else data
        path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
        return path

    def argv(self, kind: str, data_path, qseed: int, out) -> list:
        boot = ["--boot-reps", str(self.sizes.query_boot)]
        if kind == "pval_t":
            return ["pval", "--input", str(data_path), "--region", UNION_TEXT,
                    "--cd", "t", "--out", str(out)]
        if kind == "pval_boot":
            return ["pval", "--input", str(data_path), "--region", UNION_TEXT, "--cd",
                    "bootstrap", *boot, "--seed", str(qseed), "--out", str(out)]
        if kind == "bioeq":
            opts = [tok for key, value in BIOEQ.items()
                    for tok in (f"--{key.replace('_', '-')}", str(value))]
            return ["bioeq", *opts, "--out", str(out)]
        depth = "mahalanobis" if kind == "pval2d_maha" else "simplicial"
        return ["pval2d", "--input", str(data_path), "--config", str(self.config),
                "--depth", depth, *boot, "--seed", str(qseed), "--out", str(out)]

    def query(self, i: int) -> tuple:
        """Run query i; returns (kind, seconds, output dict or None on failure)."""
        kind, data, qseed = query_input(self.seed, i, self.sizes)
        if kind == "p_multi_simp":
            t0 = time.perf_counter()
            cloud = bootstrap_cloud(data, self.sizes.query_boot, seed=qseed)
            res = p_multi(cloud, "simplicial", self.box)
            wall = time.perf_counter() - t0
            out = {"p": res.p, "esp": res.esp, "tail": res.tail,
                   "depth_floor": res.depth_floor, "floor_source": res.floor_source}
            return kind, wall, out
        data_path = self.write_csv(data) if data is not None else None
        out_path = self.workdir / "report.json"
        argv = self.argv(kind, data_path, qseed, out_path)
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        if code != 0:
            return kind, wall, None
        report = json.loads(out_path.read_text())
        report["config"].pop("input", None)
        return kind, wall, report

    @staticmethod
    def valid(out) -> bool:
        if out is None:
            return False
        p = out["p_multi"] if "p_multi" in out else out["p"]
        return isinstance(p, float) and 0.0 <= p <= 1.0

    def gates(self, gates: Gates, warm: dict) -> int:
        """Cross-path and depth-kernel checks on the warm-up cycle's data."""
        i_simp = ONESHOT_MIX.index("pval2d_simp")
        _, data, qseed = query_input(self.seed, i_simp, self.sizes)
        cloud = bootstrap_cloud(data, self.sizes.query_boot, seed=qseed)
        lib = p_multi(cloud, "simplicial", self.box)
        cli_report = warm[i_simp]
        gates.check("oneshot.library_vs_cli",
                    cli_report is not None and lib.p == cli_report["p_multi"]
                    and lib.esp == cli_report["esp"] and lib.tail == cli_report["tail"])
        rng = np.random.default_rng([self.seed, 10**6])
        pts = cloud.points
        queries = pts.mean(axis=0) + rng.standard_normal((20, 2)) * pts.std(axis=0)
        batched = depth_of(cloud, queries, "simplicial")
        single = np.array([simplicial_depth(cloud, q) for q in queries])
        gates.check("depth.batched_vs_single", np.array_equal(batched, single))
        sub = pts[:30]
        probes = sub.mean(axis=0) + rng.standard_normal((5, 2)) * sub.std(axis=0)
        brute = np.array([simplicial_depth_brute(sub, q) for q in probes])
        gates.check("depth.brute_m30", np.array_equal(depth_of(sub, probes, "simplicial"), brute))
        return len(queries) + len(probes) + 1


def run_oneshot(seed: int, seconds: float, sizes: Sizes) -> dict:
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        shot = OneShot(seed, sizes, workdir)
        gates = Gates()
        warm = {}
        for i in range(len(ONESHOT_MIX)):
            _, _, warm[i] = shot.query(i)
        for i, out in warm.items():
            gates.check(f"oneshot.warmup.{i}", shot.valid(out))
        warm_digests = {str(i): json_digest(out) for i, out in warm.items()}
        if seed == DEFAULT_SEED and sizes == FULL:
            gates.compare_reference("oneshot", warm_digests)
        attempted = shot.gates(gates, warm)
        cells = {k: [] for k in QUERY_KINDS}
        failed_ops = 0
        cycle, done = 1, 0
        clock = HostClock()
        t_start = time.perf_counter()
        while not done or time.perf_counter() - t_start < seconds:
            for j in range(len(ONESHOT_MIX)):
                kind, wall, out = shot.query(cycle * len(ONESHOT_MIX) + j)
                failed_ops += not shot.valid(out)
                cells[kind].append(clock.record(wall))
            clock.close()
            cycle += 1
            done += len(ONESHOT_MIX)
        attempted += done
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lat = {k: [1e3 * c[0] for c in v] for k, v in cells.items()}
    busy = sum(c[0] for v in cells.values() for c in v)
    wall = sum(c[1] for v in cells.values() for c in v)
    return {
        "threads": 1,
        "attempted": attempted,
        "failed": failed_ops + gates.failed,
        "gates": gates.results,
        "ops_per_s": done / busy,
        "p50_gmean_ms": p50_gmean(lat),
        "peak_rss_mb": peak_rss_mb(),
        "detail": {
            "queries": done,
            "wall_queries_per_s": done / wall,
            "per_query_ms": {
                f"{k}_p50_ms": _median(v) for k, v in lat.items()
            },
            "per_query_tail_ms": {k: tail_percentile(v) for k, v in lat.items()},
            "per_query_count": {k: len(v) for k, v in lat.items()},
            "reference_digests": warm_digests,
        },
    }


def run_timed(workload: str, seed: int, seconds: float, sizes: Sizes = FULL) -> dict:
    if workload == "oneshot":
        return run_oneshot(seed, seconds, sizes)
    return run_mc(workload, seed, seconds, sizes)


"""The traced run: per-layer metrics of every workload's pipeline.

Each pipeline is replayed from the public calls named in README.md with one
span around each layer call, after an untraced run of the same work; the
replayed results must equal the untraced ones, and the difference in wall
time is the tracing overhead.  Every traced run replays all three pipelines
and the depth-kernel sweep, so that each per-layer metric comes from the
workload it belongs to whichever workload was named.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
import tracemalloc

import numpy as np

from cdsupport import (
    PART2_COV,
    ConfidenceDistribution,
    bootstrap_cloud,
    cli,
    make_bootstrap_cd,
    make_student_t_cd,
    p_multi,
    parse_region,
    run_experiment,
    support,
)
from cdsupport.depth import depth_of

import workloads as wl
from replay import Tracer, replay_biv, replay_uni

# mc_biv runs replayed in the traced run: one plain, two corner-max
BIV_TRACED = ("a_interior_multi", "d_corner_multi-max", "e_small_box_multi-max")
MB = 1e6


def per_layer_units(sizes: wl.Sizes = wl.FULL) -> dict:
    units = {
        "simulate.stream_us": "us",
        "simulate.harness_us": "us",
        "simulate.scaling_eff": "ratio",
        "cd.build_us": "us",
        "cd.bootstrap_build_ms": "ms",
        "cd.cdf_calls_per_p": "count",
        "support.p_us": "us",
        "regions.contains_us": "us",
        "regions.parse_us": "us",
        "depth.bootstrap_ms": "ms",
        "depth.bootstrap_ms.m2000": "ms",
        "depth.simplicial_ms": "ms",
        "depth.mahalanobis_ms": "ms",
        "depth.floor_tail_ms": "ms",
        "depth.alloc_peak_mb": "MB",
        "depth.boundary_grid_frac": "ratio",
        "depth.corner_win_frac": "ratio",
        "cli.read_ms": "ms",
        "cli.config_ms": "ms",
        "cli.emit_ms": "ms",
        "cli.overhead_ms": "ms",
        "trace.overhead_pct.mc_uni": "%",
        "trace.overhead_pct.mc_biv": "%",
    }
    for m in sizes.sweep:
        units[f"depth.simplicial_ms.m{m}"] = "ms"
        units[f"depth.alloc_peak_mb.m{m}"] = "MB"
    return units


def _med(xs, scale=1.0):
    return scale * statistics.median(xs)


class Tally:
    """Replayed outputs compared with the untraced ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def compare(self, got, expected) -> None:
        got, expected = np.asarray(got), np.asarray(expected)
        self.attempted += expected.size
        self.failed += expected.size if got.shape != expected.shape else int(
            np.count_nonzero(got != expected))


def _counting_factory(counter: list):
    class CountingCD(ConfidenceDistribution):
        def cdf(self, theta):
            counter[0] += 1
            return super().cdf(theta)

    def wrap(cd):
        return CountingCD(kind=cd.kind, center=cd.center, scale=cd.scale, df=cd.df, grid=cd.grid)

    return wrap


# -- mc_uni --------------------------------------------------------------------


def trace_uni(seed, sizes, tally, metrics, deadline, spans_out):
    specs = wl.uni_specs(seed, sizes)
    reps = sum(spec.reps for _, spec in specs)
    harness, overhead = [], []
    tracer = Tracer()
    while True:
        untraced = {}
        t0 = time.perf_counter()
        for key, spec in specs:
            untraced[key] = run_experiment(spec, threads=1).pvalues
        wall = time.perf_counter() - t0
        first = len(tracer.spans)
        t0 = time.perf_counter()
        for key, spec in specs:
            tally.compare(replay_uni(spec, tracer), untraced[key])
        traced = time.perf_counter() - t0
        layers = sum(end - start for name, start, end, _, _ in tracer.spans[first:]
                     if name != "rep")
        harness.append(1e6 * (wall - layers) / reps)
        overhead.append(100.0 * (traced - wall) / wall)
        if time.perf_counter() >= deadline:
            break
    selfs = tracer.self_times()
    calls = [0]
    wrap = _counting_factory(calls)
    counted = 0
    for key, spec in specs:
        tally.compare(replay_uni(spec, cd_factory=wrap), untraced[key])
        counted += spec.reps
    metrics.update({
        "simulate.stream_us": _med(selfs["simulate.stream"], 1e6),
        "simulate.harness_us": statistics.median(harness),
        "cd.build_us": _med(selfs["cd.build"], 1e6),
        "cd.cdf_calls_per_p": calls[0] / counted,
        "support.p_us": _med(selfs["support.p"], 1e6),
        "trace.overhead_pct.mc_uni": statistics.median(overhead),
    })
    spans_out["mc_uni"] = tracer


# -- mc_biv --------------------------------------------------------------------


def trace_biv(seed, sizes, tally, metrics, spans_out):
    specs = [(k, s) for k, s in wl.biv_specs(seed, sizes) if k in BIV_TRACED]
    threads = wl.nproc()
    t0 = time.perf_counter()
    single = {k: run_experiment(s, threads=1) for k, s in specs}
    wall_1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    multi = {k: run_experiment(s, threads=threads) for k, s in specs}
    wall_n = time.perf_counter() - t0
    for k, _ in specs:
        tally.compare(multi[k].pvalues, single[k].pvalues)
    tracer = Tracer()
    paths: dict = {}
    t0 = time.perf_counter()
    for k, s in specs:
        tally.compare(replay_biv(s, tracer, paths), single[k].pvalues)
    traced = time.perf_counter() - t0
    selfs = tracer.self_times()
    # allocation peak of one depth_of call as the multi-max replication makes it
    spec = dict(specs)["e_small_box_multi-max"]
    data = np.random.default_rng([seed, 3]).standard_normal((spec.n, 2)) @ np.linalg.cholesky(
        spec.cov).T
    pts = bootstrap_cloud(data, spec.boot_m, seed=[seed, 4]).points
    metrics.update({
        "simulate.scaling_eff": wall_1 / (threads * wall_n),
        "depth.bootstrap_ms": _med(selfs["depth.bootstrap"], 1e3),
        "regions.contains_us": _med(selfs["regions.contains"], 1e6),
        "depth.simplicial_ms": _med(selfs["depth.simplicial"], 1e3),
        "depth.floor_tail_ms": _med(selfs["depth.floor_tail"], 1e3),
        "depth.alloc_peak_mb": alloc_peak(pts, np.vstack([pts, spec.region.corners])) / MB,
        "depth.boundary_grid_frac": paths["boundary_grid"] / paths["reps"],
        "depth.corner_win_frac": paths["corner_wins"] / paths["max_reps"],
        "trace.overhead_pct.mc_biv": 100.0 * (traced - wall_1) / wall_1,
    })
    spans_out["mc_biv"] = tracer
    return {"threads": threads, "paths": paths}


# -- oneshot -------------------------------------------------------------------


def _replay_query(shot, i, tracer, tally, emit_path):
    """Send query i as the timed run does, inside one span, then rebuild its
    result layer by layer from public calls; the two must be equal."""
    kind, data, qseed = wl.query_input(shot.seed, i, shot.sizes)
    span = tracer.span
    boot = shot.sizes.query_boot
    with span("query", i):
        if kind == "p_multi_simp":
            with span("library.p_multi"):
                cloud = bootstrap_cloud(data, boot, seed=qseed)
                expected = p_multi(cloud, "simplicial", shot.box).p
            with span("depth.bootstrap"):
                cloud = bootstrap_cloud(data, boot, seed=qseed)
            with span("depth.simplicial"):
                depths = depth_of(cloud, cloud.points, "simplicial")
            with span("depth.floor_tail"):
                got = p_multi(cloud, "simplicial", shot.box, _depths=depths).p
            tally.compare([got], [expected])
            return kind
        data_path = shot.write_csv(data) if data is not None else None
        out_path = shot.workdir / "report.json"
        with span("cli.main"):
            code = cli.main(shot.argv(kind, data_path, qseed, out_path))
        if code != 0:
            tally.compare([np.nan], [0.0])
            return kind
        report = json.loads(out_path.read_text())
        if kind == "bioeq":
            with span("support.p"):
                got = support.bioeq_p(**wl.BIOEQ)
            tally.compare([got], [report["p"]])
        elif kind in ("pval_t", "pval_boot"):
            with span("cli.read"):
                x = cli.read_csv_columns(data_path, 1)
            with span("regions.parse"):
                region = parse_region(wl.UNION_TEXT)
            if kind == "pval_t":
                with span("cd.build"):
                    cd = make_student_t_cd(x.size, float(x.mean()), float(x.std(ddof=1)))
            else:
                with span("cd.bootstrap_build"):
                    cd = make_bootstrap_cd(x, boot, seed=qseed)
            with span("support.p"):
                got = support.p_value(cd, region).p
            tally.compare([got], [report["p"]])
        else:
            depth = report["depth"]
            with span("cli.read"):
                x = cli.read_csv_columns(data_path, 2)
            with span("cli.config"):
                region, _ = cli.load_region_config(shot.config)
            with span("depth.bootstrap"):
                cloud = bootstrap_cloud(x, boot, seed=qseed)
            with span(f"depth.{depth}"):
                depths = depth_of(cloud, np.vstack([cloud.points, region.corners]), depth)
            with span("depth.floor_tail"):
                base = p_multi(cloud, depth, region, _depths=depths[: cloud.m])
                corner_p = [float((depths[: cloud.m] <= d).mean()) for d in depths[cloud.m:]]
            tally.compare([base.p, *corner_p], [report["p_multi"], *report["corner_p"]])
        with span("cli.emit"):
            cli.emit_report(report, emit_path)
    return kind


def trace_oneshot(seed, sizes, tally, metrics, deadline, spans_out):
    workdir = wl.OUT_DIR / f"tmp-trace-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        shot = wl.OneShot(seed, sizes, workdir)
        tracer = Tracer()
        kinds = {}
        i = 0
        while i < len(wl.ONESHOT_MIX) or time.perf_counter() < deadline or i % len(wl.ONESHOT_MIX):
            kinds[i] = _replay_query(shot, i, tracer, tally, workdir / "emitted.json")
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    by_kind: dict = {}
    for name, start, end, _, op in tracer.spans:
        by_kind.setdefault((kinds[op], name), []).append(end - start)

    def med(kind_names, name, scale):
        return _med([x for k in kind_names for x in by_kind.get((k, name), [])], scale)

    t_ops = list(zip(by_kind[("pval_t", "cli.main")], by_kind[("pval_t", "cli.read")],
                     by_kind[("pval_t", "regions.parse")], by_kind[("pval_t", "cd.build")],
                     by_kind[("pval_t", "support.p")], by_kind[("pval_t", "cli.emit")]))
    metrics.update({
        "cd.bootstrap_build_ms": med(["pval_boot"], "cd.bootstrap_build", 1e3),
        "regions.parse_us": med(["pval_t", "pval_boot"], "regions.parse", 1e6),
        "depth.bootstrap_ms.m2000": med(["pval2d_maha", "pval2d_simp", "p_multi_simp"],
                                        "depth.bootstrap", 1e3),
        "depth.mahalanobis_ms": med(["pval2d_maha"], "depth.mahalanobis", 1e3),
        "cli.read_ms": med(["pval_t"], "cli.read", 1e3),
        "cli.config_ms": med(["pval2d_maha", "pval2d_simp"], "cli.config", 1e3),
        "cli.emit_ms": med(["pval_t"], "cli.emit", 1e3),
        "cli.overhead_ms": _med([main - sum(parts) for main, *parts in t_ops], 1e3),
    })
    spans_out["oneshot"] = tracer
    return {"queries": i}


# -- depth-kernel sweep ----------------------------------------------------------


def alloc_peak(pts, queries) -> int:
    """tracemalloc peak, in bytes, of one simplicial depth_of call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        depth_of(pts, queries, "simplicial")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sweep(seed, sizes, metrics):
    data = np.random.default_rng([seed, 5]).standard_normal((sizes.n, 2)) @ np.linalg.cholesky(
        PART2_COV).T
    for m in sizes.sweep:
        pts = bootstrap_cloud(data, m, seed=[seed, 6, m]).points
        calls = max(1, 2000 // m)
        walls = []
        for _ in range(calls):
            t0 = time.perf_counter()
            depth_of(pts, pts, "simplicial")
            walls.append(time.perf_counter() - t0)
        metrics[f"depth.simplicial_ms.m{m}"] = _med(walls, 1e3)
        metrics[f"depth.alloc_peak_mb.m{m}"] = alloc_peak(pts, pts) / MB


def run_traced(seed: int, seconds: float, sizes: wl.Sizes = wl.FULL) -> dict:
    t_start = time.perf_counter()
    tally = Tally()
    metrics: dict = {}
    tracers: dict = {}
    detail = {}
    sweep(seed, sizes, metrics)
    detail["mc_biv"] = trace_biv(seed, sizes, tally, metrics, tracers)
    # mc_uni and oneshot share what is left of the budget
    left = max(0.0, seconds - (time.perf_counter() - t_start))
    trace_uni(seed, sizes, tally, metrics, time.perf_counter() + left / 3, tracers)
    detail["oneshot"] = trace_oneshot(seed, sizes, tally, metrics,
                                      t_start + seconds, tracers)
    detail["self_times_us"] = {
        pipeline: {name: _med(xs, 1e6) for name, xs in tracer.self_times().items()}
        for pipeline, tracer in tracers.items()
    }
    return {
        "threads": wl.nproc(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "tracers": tracers,
        "detail": detail,
    }

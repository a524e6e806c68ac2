"""Per-replication replay of the Monte Carlo pipelines from public calls, and
the in-memory span recorder used by the traced run.

``replay_uni`` and ``replay_biv`` rebuild each replication of
``run_experiment`` from the calls it is made of: the per-replication stream
``default_rng([seed, r, 0])``, CD construction and the support mapping, or the
bootstrap cloud, ``depth_of`` and ``p_multi``.  Their sorted p-values must
equal ``run_experiment``'s exactly; with a tracer they also record one span
per layer call.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

import numpy as np

from cdsupport import bootstrap_cloud, make_asymptotic_normal_cd, make_student_t_cd, p_multi
from cdsupport import support
from cdsupport.depth import depth_of


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def span(self, name: str, op=None) -> "_Span":
        return _Span(self, name, op)

    def self_times(self) -> dict:
        """Span name -> list of self times (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child[i])
        return out


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, op):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, -1, op]

    def __enter__(self):
        tracer, record = self.tracer, self.record
        if tracer._open:
            record[3] = tracer._open[-1]
            if record[4] is None:
                record[4] = tracer.spans[record[3]][4]
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(record)
        record[1] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = perf_counter()
        self.tracer._open.pop()
        return False


def _nospan(name, op=None):
    return nullcontext()


def _uni_mapping(method: str):
    if method == "full":
        return lambda cd, region: support.p_value(cd, region).p
    if method == "direct":
        return support.direct_support
    raise ValueError(f"replay covers the full and direct mappings, not {method!r}")


def replay_uni(spec, tracer: Tracer | None = None, cd_factory=None) -> np.ndarray:
    """Sorted p-values of a univariate z- or t-CD run, rebuilt per replication.

    ``cd_factory`` wraps each built CD before the mapping sees it (the traced
    run passes one that counts ``cdf`` calls).
    """
    span = tracer.span if tracer else _nospan
    make_cd = {"z": make_asymptotic_normal_cd, "t": make_student_t_cd}[spec.cd]
    mapping = _uni_mapping(spec.method)
    out = np.empty(spec.reps)
    for r in range(spec.reps):
        with span("rep", r):
            with span("simulate.stream"):
                rng = np.random.default_rng([spec.seed, r, 0])
                y = spec.true_mean + spec.sd * rng.standard_normal(spec.n)
            mean, sd = float(y.mean()), float(y.std(ddof=1))
            with span("cd.build"):
                cd = make_cd(spec.n, mean, sd)
            if cd_factory is not None:
                cd = cd_factory(cd)
            with span("support.p"):
                out[r] = mapping(cd, spec.region)
    out.sort()
    return out


def replay_biv(spec, tracer: Tracer | None = None, paths: dict | None = None) -> np.ndarray:
    """Sorted p-values of a bivariate multi / multi-max run, rebuilt per replication.

    ``paths`` (optional) accumulates which code path decided each p-value:
    ``reps``, ``boundary_grid`` (depth floor from the boundary grid),
    ``max_reps`` and ``corner_wins`` (a corner p-value set the maximum).
    """
    span = tracer.span if tracer else _nospan
    chol = np.linalg.cholesky(spec.cov)
    corners = spec.region.corners if spec.method == "multi-max" else None
    out = np.empty(spec.reps)
    counts = {"reps": 0, "boundary_grid": 0, "max_reps": 0, "corner_wins": 0}
    for r in range(spec.reps):
        with span("rep", r):
            with span("simulate.stream"):
                rng = np.random.default_rng([spec.seed, r, 0])
                data = spec.true_mean + rng.standard_normal((spec.n, 2)) @ chol.T
            with span("depth.bootstrap"):
                pts = bootstrap_cloud(data, spec.boot_m, seed=[spec.seed, r, 1]).points
            with span("regions.contains"):
                spec.region.contains(pts)
            queries = pts if corners is None else np.vstack([pts, corners])
            with span(f"depth.{spec.depth}"):
                depths = depth_of(pts, queries, spec.depth)
            rep_depths = depths[: pts.shape[0]]
            with span("depth.floor_tail"):
                base = p_multi(pts, spec.depth, spec.region, _depths=rep_depths)
            p = base.p
            counts["reps"] += 1
            counts["boundary_grid"] += base.floor_source == "boundary-grid"
            if corners is not None:
                corner_p = [float((rep_depths <= d).mean()) for d in depths[pts.shape[0]:]]
                p = max(base.p, *corner_p)
                counts["max_reps"] += 1
                counts["corner_wins"] += max(corner_p) > base.p
            out[r] = p
    if paths is not None:
        for key, value in counts.items():
            paths[key] = paths.get(key, 0) + value
    out.sort()
    return out

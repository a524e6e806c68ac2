#!/usr/bin/env python3
"""cdsupport benchmark: one workload per invocation, result as the last stdout line.

    python3 bench/run.py --workload mc_uni --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all        # every workload, one process each

With ``--trace 0`` the result carries the end-to-end metrics, whose times
are wall times rescaled to the reference host's speed; with
``--trace 1`` it carries the per-layer metrics of the traced run.  The
package is imported from ``src/`` next to this directory, never from
anywhere else.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "p50_gmean_ms": "ms", "peak_rss_mb": "MB"}
# numpy's BLAS pool would add threads beyond the ones the workload asks for
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import cdsupport, workloads
workloads.make_inputs(sys.argv[3], int(sys.argv[4]))
setup = time.perf_counter() - t0
kernel = sorted(workloads.reference_kernel() for _ in range(3))[1]
print(setup, kernel)
"""


def import_program():
    """Import cdsupport from this checkout's src/; raise ImportError otherwise."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import cdsupport

    origin = Path(cdsupport.__file__).resolve()
    if origin.parent.parent != SRC.resolve():
        raise ImportError(f"cdsupport imported from {origin}, not from {SRC}")
    return cdsupport


def environment(threads: int) -> dict:
    import numpy
    import scipy

    import workloads

    return {
        "nproc": workloads.nproc(),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def measure_setup(workload: str, seed: int, repeats: int) -> tuple:
    """Median time for a fresh interpreter to import cdsupport and build the inputs.

    Returns (reference-host seconds, wall seconds).  Each child runs the
    reference kernel right after its set-up, on the host as it was then.
    """
    import workloads

    times, walls = [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        wall, kernel = map(float, out.stdout.strip().splitlines()[-1].split())
        times.append(wall * workloads.host_scale(kernel, kernel))
        walls.append(wall)
    return statistics.median(times), statistics.median(walls)


def run_one(workload: str, seed: int, seconds: float, trace: int, sizes=None) -> dict:
    """Run one workload in this process; returns the full result record."""
    import workloads

    sizes = sizes or workloads.FULL
    load_start = os.getloadavg()
    if trace:
        import traced

        res = traced.run_traced(seed, seconds, sizes)
        metrics = res["metrics"]
        units = traced.per_layer_units(sizes)
        write_spans(workload, seed, res.pop("tracers"))
    else:
        setup_s, setup_wall_s = measure_setup(workload, seed, sizes.setup_repeats)
        res = workloads.run_timed(workload, seed, seconds, sizes)
        res["detail"]["setup_wall_s"] = setup_wall_s
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": res["ops_per_s"],
            "p50_gmean_ms": res["p50_gmean_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    env = environment(res["threads"])
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "error_rate": res["failed"] / res["attempted"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "env": env,
        "gates": [g for g in res.get("gates", []) if not g[1]],
        "detail": res["detail"],
    }


def write_spans(workload: str, seed: int, tracers: dict) -> Path:
    """Write the in-memory spans of a traced run as JSON lines."""
    import workloads

    workloads.OUT_DIR.mkdir(exist_ok=True)
    path = workloads.OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for pipeline, tracer in tracers.items():
            t0 = tracer.spans[0][1] if tracer.spans else 0.0
            for name, start, end, parent, op in tracer.spans:
                fh.write(json.dumps({"pipeline": pipeline, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "op": op}) + "\n")
    return path


def print_record(rec: dict) -> None:
    print(f"workload={rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"attempted={rec['attempted']} failed={rec['failed']} "
          f"error_rate={rec['error_rate']:.6g}")
    for name, m in rec["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    for key, value in rec["detail"].items():
        if key != "reference_digests":
            print(f"  {key}: {json.dumps(value)}")
    for name, _, detail in rec["gates"]:
        print(f"  FAILED gate {name} {detail}")
    print(f"  env: {json.dumps(rec['env'])}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak RSS belongs to that workload."""
    import workloads

    results = {}
    for workload in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(out.stdout.rsplit("\n", 2)[0] + "\n")
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        results[workload] = json.loads(out.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    for var in THREAD_ENV:
        os.environ[var] = "1"
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import workloads

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="write reference.json from a default-seed run of every workload")
    args = ap.parse_args(argv)
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    rec = run_one(args.workload, args.seed, args.seconds, args.trace)
    print_record(rec)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec, indent=1) + "\n")
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }))
    return 0


def record_reference() -> int:
    """Record the default-seed output digests that the correctness gate compares against."""
    import workloads

    refs = {}
    for workload in workloads.WORKLOADS:
        res = workloads.run_timed(workload, workloads.DEFAULT_SEED, 0.0)
        refs[workload] = res["detail"]["reference_digests"]
    workloads.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarised per metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload mc_biv --seeds 2301-2310 \\
        --out BENCH_21.json

For each seed, ``python3 bench/run.py --workload W --seed S`` runs once in
each checkout, the parent first at even positions and the change first at
odd ones, so that a drift of the host hits both sides alike.  Each run's
record is the JSON of its last stdout line, with the JSON objects among the
detail lines printed before it (per-case p50s, the host's load) under
``detail``.  A run that exits nonzero is a failed run (``failed`` 1) with
its exit code and no metrics.  The output file keeps one entry per
workload, so runs of several workloads can share it, and is written again
after every pair, so a series cut short keeps its pairs so far: their
pairs, and per end-to-end metric of ``BENCHMARK.json``, over the pairs in
which both sides reported it, the parent's and the change's quartiles, the
change's wins (ties count for neither side), the parent's quartile spread,
the median gain, positive when the change is better in the metric's own
direction, and two verdicts:

- ``gain_shown``: the change wins at least 9 of every 10 pairs and its
  median gain exceeds the parent's quartile spread;
- ``within_bound``: the change's median is no worse than the parent's by
  more than the metric's ``bound``, a fraction of the parent's median.

Quartiles need two values, so fewer than 2 seeds or pairs are refused
before anything runs.  A command target times a fixed argv instead of a
workload:

    python3 scripts/bench_pairs.py PARENT CHANGE --command part2-t1 --pairs 10 \\
        --out BENCH_28.json

Each run imports the package from its checkout's ``src`` and writes into a
fresh temporary directory, passed as the argv's last argument.  It runs
under a one-shot wrapper process (``WRAPPER``), whose ``RUSAGE_CHILDREN``
holds that run alone, and its record holds the wall seconds (``wall_s``),
the peak RSS (``peak_rss_mb``), the exit code and a SHA-256 over the files
the run wrote, by relative path and content.  A pair with a failed run or
two different hashes is a failed pair (``pairs_failed``), since both sides
must write the same numbers.  The summary is the workloads' one, over
``wall_s`` and ``peak_rss_mb``, which take the bounds of the change's
``BENCHMARK.json`` metrics named in ``COMMAND_BOUNDS``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# a detail line of ``bench/run.py`` whose value is a JSON object
DETAIL = re.compile(r"  (\w+): (\{.*\})")

# command targets: an argv run in the checkout, its output directory appended
COMMANDS = {
    "part1": [sys.executable, "scripts/run_part1.py", "--out-dir"],
    "part2-t1": [sys.executable, "scripts/run_part2.py", "--threads", "1", "--out-dir"],
}
# per metric of a command, the end-to-end metric of BENCHMARK.json whose bound it takes
COMMAND_BOUNDS = {"wall_s": "ops_per_s", "peak_rss_mb": "peak_rss_mb"}

# runs the argv it is given, then prints its exit code, wall seconds and peak
# RSS, in MB as ``bench/`` counts them, as one JSON line; the run's own
# stdout goes to stderr
WRAPPER = """\
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
code = subprocess.run(sys.argv[1:], stdout=sys.stderr).returncode
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
print(json.dumps({"exit_code": code, "wall_s": wall, "peak_rss_mb": rss}))
"""


def command_metrics(end_to_end: list) -> list:
    """The metrics of a command target, each with the bound of its
    ``COMMAND_BOUNDS`` entry of ``end_to_end``, from ``BENCHMARK.json``."""
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    return [{"name": name, "better": "lower", "bound": bounds[of]}
            for name, of in COMMAND_BOUNDS.items()]


def failed_run(exit_code: int) -> dict:
    return {"failed": 1, "exit_code": exit_code, "metrics": {}}


def run_bench(root: Path, workload: str, seed: int) -> dict:
    """The record ``bench/run.py`` prints last, run in checkout ``root``,
    with the detail lines ``  key: {...}`` printed before it; a failed run
    if it exits nonzero."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed)],
                         cwd=root, capture_output=True, text=True)
    if out.returncode:
        return failed_run(out.returncode)
    *lines, last = out.stdout.strip().splitlines()
    found = (DETAIL.fullmatch(line) for line in lines)
    return {**json.loads(last), "detail": {m[1]: json.loads(m[2]) for m in found if m}}


def tree_sha256(root: Path) -> str:
    """SHA-256 over the files under ``root``, in sorted order of their
    relative paths, each as its path, a NUL, its length and its bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def run_command(root: Path, argv: list) -> dict:
    """One run of ``argv`` in checkout ``root`` under ``WRAPPER``, importing
    from its ``src`` and writing into a fresh temporary directory: its exit
    code, output hash, wall seconds and peak RSS, or a failed run with the
    hash and no metrics."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(root).resolve() / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as out_dir:
        done = subprocess.run([sys.executable, "-c", WRAPPER, *argv, out_dir], cwd=root,
                              env=env, capture_output=True, text=True)
        sha = tree_sha256(Path(out_dir))
    run = json.loads(done.stdout) if done.returncode == 0 else {"exit_code": done.returncode}
    if run["exit_code"]:
        return {**failed_run(run["exit_code"]), "sha256": sha}
    return {"failed": 0, "exit_code": 0, "sha256": sha,
            "metrics": {"wall_s": {"value": run["wall_s"], "unit": "s"},
                        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"}}}


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric ({"name", "better", "bound"} from ``BENCHMARK.json``), the
    number of pairs in which both sides reported it and, when there are at
    least two, the quartiles of each side over them, the change's wins, the
    parent's quartile spread, the median gain and the two verdicts; and the
    failed operations per side."""
    summary = {"pairs": len(pairs)}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        both = [pair for pair in pairs
                if name in pair["parent"]["metrics"] and name in pair["change"]["metrics"]]
        summary[name] = {"better": metric["better"], "pairs": len(both)}
        if len(both) < 2:
            continue
        parent = [pair["parent"]["metrics"][name]["value"] for pair in both]
        change = [pair["change"]["metrics"][name]["value"] for pair in both]
        p_q, c_q = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        spread, gain = p_q[2] - p_q[0], sign * (c_q[1] - p_q[1])
        summary[name].update({
            "parent_q1_median_q3": p_q,
            "change_q1_median_q3": c_q,
            "change_over_parent": c_q[1] / p_q[1],
            "change_wins": wins,
            "parent_quartile_spread": spread,
            "median_gain": gain,
            "gain_shown": 10 * wins >= 9 * len(both) and gain > spread,
            "within_bound": gain >= -metric["bound"] * abs(p_q[1]),
        })
    summary["failed"] = {side: sum(pair[side]["failed"] for pair in pairs)
                         for side in ("parent", "change")}
    return summary


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    target = ap.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--command", choices=sorted(COMMANDS))
    ap.add_argument("--seeds", type=seed_range, help="A-B, inclusive; workloads only")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of a command target")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.workload and args.seeds is None:
        ap.error("--workload needs --seeds")
    if len(args.seeds if args.workload else range(args.pairs)) < 2:
        ap.error("quartiles need at least 2 pairs or seeds")
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    if args.command:
        metrics, key, labels = command_metrics(end_to_end), "pair", range(args.pairs)

        def run(root, _):
            return run_command(root, COMMANDS[args.command])
    else:
        metrics, key, labels = end_to_end, "seed", args.seeds

        def run(root, seed):
            return run_bench(root, args.workload, seed)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    pairs = []
    for i, label in enumerate(labels):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {key: label, "first": order[0]}
        for side in order:
            pair[side] = run(getattr(args, side), label)
        if args.command:
            pair["same_output"] = (not pair["parent"]["failed"] and not pair["change"]["failed"]
                                   and pair["parent"]["sha256"] == pair["change"]["sha256"])
        pairs.append(pair)
        print(json.dumps({**{k: v for k, v in pair.items() if k not in ("parent", "change")},
                          **{side: {name: m["value"] for name, m in pair[side]["metrics"].items()}
                             for side in ("parent", "change")}}),
              flush=True)
        summary = summarize(pairs, metrics)
        if args.command:
            summary["pairs_failed"] = sum(not pair["same_output"] for pair in pairs)
            record.setdefault("commands", {})[args.command] = {
                "argv": [*COMMANDS[args.command][1:], "<fresh temporary directory>"],
                "summary": summary, "pairs": pairs}
        else:
            record.setdefault("command",
                              "python3 bench/run.py --workload W --seed S, in each checkout")
            record.setdefault("workloads", {})[args.workload] = {
                "seeds": [args.seeds.start, args.seeds.stop - 1], "summary": summary,
                "pairs": pairs}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarised per metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload mc_biv --seeds 2301-2310 \\
        --out BENCH_21.json

For each seed, ``python3 bench/run.py --workload W --seed S`` runs once in
each checkout, the parent first at even positions and the change first at
odd ones, so that a drift of the host hits both sides alike.  Each run's
record is the JSON of its last stdout line, with the JSON objects among the
detail lines printed before it (per-case p50s, the host's load) under
``detail``.  The output file keeps one entry per workload, so runs of
several workloads can share it: their pairs, and per end-to-end metric of
``BENCHMARK.json`` the parent's and the change's quartiles, the change's
wins (ties count for neither side), the parent's quartile spread, the
median gain, positive when the change is better in the metric's own
direction, and two verdicts:

- ``gain_shown``: the change wins at least 9 of every 10 pairs and its
  median gain exceeds the parent's quartile spread;
- ``within_bound``: the change's median is no worse than the parent's by
  more than the metric's ``bound``, a fraction of the parent's median.

A command target times a fixed argv instead of a workload:

    python3 scripts/bench_pairs.py PARENT CHANGE --command part2-t1 --pairs 10 \\
        --out BENCH_28.json

Each run imports the package from its checkout's ``src`` and writes into a
fresh temporary directory, passed as the argv's last argument; its record
holds the wall seconds (``wall_s``), the exit code and a SHA-256 over the
files the run wrote, by relative path and content.  A run that exits
nonzero counts as failed, and a pair with a failed run or two different
hashes is a failed pair (``pairs_failed``), since both sides must write the
same numbers.  The summary is the workloads' one, over ``wall_s``, which
takes the bound of the change's ``BENCHMARK.json`` throughput metric
(``COMMAND_BOUND``).
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
import time
from pathlib import Path

# a detail line of ``bench/run.py`` whose value is a JSON object
DETAIL = re.compile(r"  (\w+): (\{.*\})")

# command targets: an argv run in the checkout, its output directory appended
COMMANDS = {
    "part2-t1": [sys.executable, "scripts/run_part2.py", "--threads", "1", "--out-dir"],
}
# the end-to-end metric of BENCHMARK.json whose bound a command's wall time takes
COMMAND_BOUND = "ops_per_s"


def command_metrics(end_to_end: list) -> list:
    """The metric of a command target, ``wall_s``, with the bound of the
    ``COMMAND_BOUND`` entry of ``end_to_end``, from ``BENCHMARK.json``."""
    bound = next(m["bound"] for m in end_to_end if m["name"] == COMMAND_BOUND)
    return [{"name": "wall_s", "better": "lower", "bound": bound}]


def run_bench(root: Path, workload: str, seed: int) -> dict:
    """The record ``bench/run.py`` prints last, run in checkout ``root``,
    with the detail lines ``  key: {...}`` printed before it."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed)],
                         cwd=root, capture_output=True, text=True, check=True)
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
    """One run of ``argv`` in checkout ``root``, importing from its ``src``
    and writing into a fresh temporary directory: its wall seconds, exit
    code and output hash."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(root).resolve() / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as out_dir:
        t0 = time.perf_counter()
        done = subprocess.run([*argv, out_dir], cwd=root, env=env, capture_output=True)
        wall = time.perf_counter() - t0
        sha = tree_sha256(Path(out_dir))
    return {"failed": int(done.returncode != 0), "exit_code": done.returncode, "sha256": sha,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric ({"name", "better", "bound"} from ``BENCHMARK.json``), the
    quartiles of each side over the pairs, the change's wins, the parent's
    quartile spread, the median gain and the two verdicts; and the failed
    operations per side."""
    summary = {"pairs": len(pairs)}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
        change = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        p_q, c_q = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        spread, gain = p_q[2] - p_q[0], sign * (c_q[1] - p_q[1])
        summary[name] = {
            "better": metric["better"],
            "parent_q1_median_q3": p_q,
            "change_q1_median_q3": c_q,
            "change_over_parent": c_q[1] / p_q[1],
            "change_wins": wins,
            "parent_quartile_spread": spread,
            "median_gain": gain,
            "gain_shown": 10 * wins >= 9 * len(pairs) and gain > spread,
            "within_bound": gain >= -metric["bound"] * abs(p_q[1]),
        }
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
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    if args.command:
        metrics, key, labels = command_metrics(end_to_end), "pair", range(args.pairs)

        def run(root, _):
            return run_command(root, COMMANDS[args.command])
    else:
        metrics, key, labels = end_to_end, "seed", args.seeds

        def run(root, seed):
            return run_bench(root, args.workload, seed)
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
                          **{side: {m["name"]: pair[side]["metrics"][m["name"]]["value"]
                                    for m in metrics} for side in ("parent", "change")}}),
              flush=True)
    summary = summarize(pairs, metrics)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.command:
        summary["pairs_failed"] = sum(not pair["same_output"] for pair in pairs)
        record.setdefault("commands", {})[args.command] = {
            "argv": [*COMMANDS[args.command][1:], "<fresh temporary directory>"],
            "summary": summary, "pairs": pairs}
    else:
        record.setdefault("command",
                          "python3 bench/run.py --workload W --seed S, in each checkout")
        record.setdefault("workloads", {})[args.workload] = {
            "seeds": [args.seeds.start, args.seeds.stop - 1], "summary": summary, "pairs": pairs}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

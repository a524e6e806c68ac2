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
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

# a detail line of ``bench/run.py`` whose value is a JSON object
DETAIL = re.compile(r"  (\w+): (\{.*\})")


def run_bench(root: Path, workload: str, seed: int) -> dict:
    """The record ``bench/run.py`` prints last, run in checkout ``root``,
    with the detail lines ``  key: {...}`` printed before it."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed)],
                         cwd=root, capture_output=True, text=True, check=True)
    *lines, last = out.stdout.strip().splitlines()
    found = (DETAIL.fullmatch(line) for line in lines)
    return {**json.loads(last), "detail": {m[1]: json.loads(m[2]) for m in found if m}}


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
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_bench(getattr(args, side), args.workload, seed)
        pairs.append(pair)
        print(json.dumps({"seed": seed, "first": order[0], **{
            side: {m["name"]: pair[side]["metrics"][m["name"]]["value"] for m in metrics}
            for side in ("parent", "change")}}), flush=True)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("command", "python3 bench/run.py --workload W --seed S, in each checkout")
    record.setdefault("workloads", {})[args.workload] = {
        "seeds": [args.seeds.start, args.seeds.stop - 1],
        "summary": summarize(pairs, metrics),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics the benchmark emits, with
the same units; that a tiny timed run of every workload and a tiny traced run
emit every metric with its unit and pass their correctness gates; and that the
gate counts a deliberately corrupted output as a failure.  Exits 1 on any
problem.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys

import run


def check_record(rec: dict, units: dict, problems: list) -> None:
    label = f"{rec['workload']} trace={rec['trace']}"
    got = {name: m["unit"] for name, m in rec["metrics"].items()}
    if got != units:
        problems.append(f"{label}: metrics {sorted(got)} != {sorted(units)}")
    for name, m in rec["metrics"].items():
        if not math.isfinite(m["value"]):
            problems.append(f"{label}: {name} = {m['value']}")
    if not rec["correct"] or rec["failed"]:
        problems.append(f"{label}: gate failures {rec['gates']}")


def corrupted_outputs(wl) -> dict:
    """Feed the real gates a corrupted output; gate name -> whether it passed."""
    seed = wl.DEFAULT_SEED
    mc = wl.MonteCarlo("mc_biv", seed, wl.TINY)
    warm, _ = mc.one_pass()
    key = mc.specs[seed % len(mc.specs)][0]
    pvalues = warm[key].pvalues.copy()
    pvalues[-1] = math.nextafter(pvalues[-1], 0.0)
    gates = wl.Gates()
    mc.gates(gates, {**warm, key: dataclasses.replace(warm[key], pvalues=pvalues)})

    workdir = wl.OUT_DIR / "tmp-selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        shot = wl.OneShot(seed, wl.TINY, workdir)
        reports = {i: shot.query(i)[2] for i in range(len(wl.ONESHOT_MIX))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    i_simp = wl.ONESHOT_MIX.index("pval2d_simp")
    bad = dict(reports[i_simp], p_multi=math.nextafter(reports[i_simp]["p_multi"], 2.0))
    shot.gates(gates, {**reports, i_simp: bad})
    passed = {name: ok for name, ok, _ in gates.results}
    passed["oneshot.valid"] = shot.valid(dict(reports[0], p=1.5))
    return {name: passed[name] for name in
            (f"replay.{key}", "oneshot.library_vs_cli", "oneshot.valid")}


def main() -> int:
    run.import_program()
    import traced
    import workloads

    problems: list = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != traced.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from traced.per_layer_units()")

    for workload in workloads.WORKLOADS:
        rec = run.run_one(workload, workloads.DEFAULT_SEED, 0.2, 0, sizes=workloads.TINY)
        check_record(rec, run.END_TO_END_UNITS, problems)
    rec = run.run_one("mc_uni", workloads.DEFAULT_SEED, 0.2, 1, sizes=workloads.TINY)
    check_record(rec, traced.per_layer_units(workloads.TINY), problems)

    for name, ok in corrupted_outputs(workloads).items():
        if ok:
            problems.append(f"a corrupted output passed the gate: {name}")

    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

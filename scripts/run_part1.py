#!/usr/bin/env python3
"""Univariate null-space battery: size and uniformity of the p-value mappings.

Runs the standard one-/two-sided cases, narrow and wide intervals, and union
nulls, all with the truth inside the null, and writes one QQ CSV plus one
JSON summary per case.  The narrow-interval cases are also run with the
direct-support mapping to show why the combined mapping is the default.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from cdsupport import ExperimentSpec, parse_region, run_experiment, write_qq_csv

CASES = {
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("part1_results"))
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cd", choices=("t", "z"), default="z")
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    runs = [(name, text, "full") for name, text in CASES.items()]
    runs += [("1b_narrow", CASES["1b_narrow"], "direct"),
             ("1d_edge", CASES["1d_edge"], "direct")]
    for name, text, method in runs:
        spec = ExperimentSpec(
            model="univariate-normal", true_mean=0.0, region=parse_region(text),
            n=args.n, reps=args.reps, method=method, cd=args.cd, seed=args.seed,
        )
        report = run_experiment(spec)
        stem = f"{name}_{method}"
        write_qq_csv(report, args.out_dir / f"{stem}.csv")
        payload = {"case": name, "region": text, "method": method,
                   "n": args.n, "seed": args.seed, **report.summary()}
        (args.out_dir / f"{stem}.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(f"{stem:24s} KS={report.ks:.3f} "
              f"rej@0.05={report.rejection_rates[0.05]:.3f}")


if __name__ == "__main__":
    main()

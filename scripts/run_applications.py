#!/usr/bin/env python3
"""Two worked applications of the evidence p-values.

1. Crossover bio-equivalence from summary statistics: two one-sided tails of
   a Student-t distribution estimator of the formulation-mean difference.
2. Simulation-model validation: paired model-minus-system differences tested
   against a rectangular acceptable-accuracy box with a bootstrap cloud and
   Mahalanobis depth.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from cdsupport import Rectangle, bioeq_cd, bioeq_null, bootstrap_cloud, p_multi
from cdsupport.support import support_table

# paired differences (average queue length, average waiting time) between a
# single-server queueing model and the measured system, 15 runs
MODEL_SYSTEM_DIFFS = np.array(
    [
        [-0.255, -0.631], [0.201, 0.372], [0.008, -0.128], [0.014, 0.035],
        [-0.146, -0.390], [0.321, 0.639], [0.097, 0.303], [0.679, 1.240],
        [0.361, 0.398], [0.269, 0.505], [0.153, 0.207], [0.329, 0.465],
        [0.283, 0.438], [0.657, 0.905], [-0.314, -0.458],
    ]
)


def bio_equivalence() -> dict:
    cd = bioeq_cd(n1=12, n2=12, mean_t=80.272, mean_r=82.559, var_d=83.623)
    lower, upper = -16.51, 16.51
    # the two tails are the direct supports of the null's two pieces
    table = support_table(cd, bioeq_null(lower, upper))
    tails = dict(zip(("lower", "upper"), table.direct[:, 0].tolist()))
    return {
        "application": "bio-equivalence",
        "difference": cd.center,
        "limits": [lower, upper],
        "tails": tails,
        "p": max(tails.values()),
    }


def model_validation(boot_reps: int, seed: int) -> dict:
    region = Rectangle(lower=[-0.154, -0.28], upper=[0.154, 0.28])
    cloud = bootstrap_cloud(MODEL_SYSTEM_DIFFS, boot_reps, seed=seed)
    res = p_multi(cloud, "mahalanobis", region)
    return {
        "application": "model-validation",
        "sample_mean": MODEL_SYSTEM_DIFFS.mean(axis=0).tolist(),
        "box": region.describe(),
        "m": cloud.m,
        "seed": seed,
        "esp": res.esp,
        "tail": res.tail,
        "p": res.p,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--boot-reps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for payload in (bio_equivalence(), model_validation(args.boot_reps, args.seed)):
        print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()

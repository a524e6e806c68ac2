"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, not calibrated elsewhere.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
from scipy import special

from cdsupport import (
    ExperimentSpec,
    QuadrantComplement,
    Rectangle,
    bootstrap_cloud,
    make_asymptotic_normal_cd,
    make_student_t_cd,
    direct_support,
    p_multi,
    p_value,
    parse_region,
    run_experiment,
    simplicial_depth,
    simplicial_depth_brute,
)
from cdsupport.cli import main as cli_main

from conftest import TABLE1


def _check(criterion, clauses):
    """clauses: list of (label, ok, detail); prints one line per criterion."""
    failed = [f"{label}: {detail}" for label, ok, detail in clauses if not ok]
    status = "PASS" if not failed else "FAIL"
    details = "; ".join(f"{label} {detail}" for label, _, detail in clauses)
    print(f"[acceptance] criterion {criterion}: {status} ({details})")
    assert not failed, f"criterion {criterion}: " + " | ".join(failed)


def test_criterion_01_bioequivalence_regression(tmp_path, capsys):
    out = tmp_path / "bioeq.json"
    start = time.perf_counter()
    code = cli_main(
        ["bioeq", "--n1", "12", "--n2", "12", "--mean-t", "80.272",
         "--mean-r", "82.559", "--var-d", "83.623",
         "--lower", "-16.51", "--upper", "16.51", "--out", str(out)]
    )
    elapsed = time.perf_counter() - start
    report = json.loads(out.read_text())
    with capsys.disabled():
        _check(1, [
            ("exit", code == 0, f"code={code}"),
            ("p", abs(report["p"] - 0.000479) <= 5e-5, f"p={report['p']:.6f}"),
            ("runtime", elapsed < 1.0, f"{elapsed:.2f}s"),
        ])


def test_criterion_02_model_validation_regression(capsys):
    region = Rectangle(lower=[-0.154, -0.28], upper=[0.154, 0.28])
    start = time.perf_counter()
    values = []
    for seed in range(5):
        cloud = bootstrap_cloud(TABLE1, 2000, seed=seed)
        values.append(p_multi(cloud, "mahalanobis", region).p)
    elapsed = time.perf_counter() - start
    clauses = [
        (f"seed{seed}", abs(p - 0.486) <= 0.07, f"p={p:.4f}")
        for seed, p in enumerate(values)
    ]
    clauses.append(("runtime", elapsed < 10.0, f"{elapsed:.2f}s"))
    with capsys.disabled():
        _check(2, clauses)


def test_criterion_03_interval_closed_form_oracle(capsys):
    def closed_form(n, ybar, s, a, b):
        rt = math.sqrt(n)
        if ybar < 0.5 * (a + b):
            return special.ndtr(rt * (ybar - a) / s) + special.ndtr(rt * (ybar - b) / s)
        return special.ndtr(rt * (a - ybar) / s) + special.ndtr(rt * (b - ybar) / s)

    rng = np.random.default_rng(30303)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 500))
        ybar = float(rng.normal(0, 2))
        s = float(rng.uniform(0.2, 3.0))
        a, b = sorted(rng.normal(0, 2, size=2))
        cd = make_asymptotic_normal_cd(n, ybar, s)
        got = p_value(cd, parse_region(f"[{a},{b}]")).p
        worst = max(worst, abs(got - closed_form(n, ybar, s, a, b)))
    with capsys.disabled():
        _check(3, [("max|diff|", worst <= 1e-10, f"{worst:.2e}")])


def test_criterion_04_one_sided_t_oracle(capsys):
    def classical(df, t):
        half = 0.5 * special.betainc(df / 2.0, 0.5, df / (df + t * t))
        return half if t <= 0 else 1.0 - half

    rng = np.random.default_rng(40404)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 200))
        mean = float(rng.normal(0, 2))
        sd = float(rng.uniform(0.3, 3.0))
        theta0 = float(rng.normal(0, 2))
        cd = make_student_t_cd(n, mean, sd)
        got = direct_support(cd, parse_region(f"(-inf,{theta0}]"))
        want = classical(n - 1, math.sqrt(n) * (theta0 - mean) / sd)
        worst = max(worst, abs(got - want))
    with capsys.disabled():
        _check(4, [("max|diff|", worst <= 1e-12, f"{worst:.2e}")])


PART1_CASES = {
    "1a": "0",
    "1b": "[-0.01,0.01]",
    "1d": "[0,0.1]",
    "1e": "[0,1]",
    "1f": "[0,inf)",
    "2a": "(-inf,0];[0.5,inf)",
    "2b": "[-0.04,-0.03];[-0.01,0.01];[0.02,0.03]",
    "2c": "[0,0.1];[0.5,0.6];[1,1.1]",
    "2d": "0;1",
}


def _part1_report(region_text, method="full", reps=2000, seed=1):
    spec = ExperimentSpec(
        model="univariate-normal", true_mean=0.0, region=parse_region(region_text),
        n=200, reps=reps, method=method, cd="z", seed=seed,
    )
    return run_experiment(spec, threads=4)


def test_criterion_05_null_uniformity(capsys):
    start = time.perf_counter()
    clauses = []
    for name, region_text in PART1_CASES.items():
        report = _part1_report(region_text)
        rej = report.rejection_rates[0.05]
        clauses.append(
            (name, report.ks < 0.06 and rej <= 0.06,
             f"KS={report.ks:.3f} rej={rej:.3f}")
        )
    elapsed = time.perf_counter() - start
    clauses.append(("runtime", elapsed < 120.0, f"{elapsed:.1f}s"))
    with capsys.disabled():
        _check(5, clauses)


def test_criterion_06_interior_null_conservative(capsys):
    report = _part1_report("[-0.5,0.5]")
    median = float(np.median(report.pvalues))
    clauses = [
        (f"alpha={a:g}", report.rejection_rates[a] < a,
         f"rej={report.rejection_rates[a]:.4f}")
        for a in (0.01, 0.05, 0.10)
    ]
    clauses.append(("median", median > 0.9, f"median={median:.4f}"))
    with capsys.disabled():
        _check(6, clauses)


def test_criterion_07_direct_support_failure_contrast(capsys):
    direct = _part1_report("[-0.01,0.01]", method="direct")
    full = _part1_report("[-0.01,0.01]", method="full")
    dr, fr = direct.rejection_rates[0.05], full.rejection_rates[0.05]
    with capsys.disabled():
        _check(7, [
            ("direct>50%", dr > 0.50, f"rej={dr:.3f}"),
            ("full<=6%", fr <= 0.06, f"rej={fr:.3f}"),
        ])


def test_criterion_08_power_outside_null(capsys):
    report = _part1_report("[1,2]", reps=1000)
    frac = float((report.pvalues < 0.05).mean())
    with capsys.disabled():
        _check(8, [("reject", frac >= 0.99, f"frac={frac:.3f}")])


def _part2_report(region, method, reps=200, seed=2):
    spec = ExperimentSpec(
        model="bivariate-normal", true_mean=(0.0, 0.0), region=region,
        n=200, reps=reps, method=method, depth="simplicial", boot_m=500, seed=seed,
    )
    return run_experiment(spec, threads=4)


def test_criterion_09_bivariate_uniformity(capsys):
    start = time.perf_counter()
    interior = _part2_report(Rectangle(lower=[-1, -1], upper=[1, 1]), "multi")
    boundary = _part2_report(Rectangle(lower=[-1, -4], upper=[0, 4]), "multi")
    concave = _part2_report(QuadrantComplement(corner=[0.0, 0.0]), "multi")
    elapsed = time.perf_counter() - start
    med_a = float(np.median(interior.pvalues))
    rej_c = concave.rejection_rates[0.05]
    with capsys.disabled():
        _check(9, [
            ("(b) KS", boundary.ks < 0.10, f"KS={boundary.ks:.3f}"),
            ("(a) median", med_a > 0.9, f"median={med_a:.3f}"),
            ("(c) rej", rej_c <= 0.06, f"rej={rej_c:.3f}"),
            ("runtime", elapsed < 300.0, f"{elapsed:.1f}s"),
        ])


def test_criterion_10_boundary_max_repair(capsys):
    rect_d = Rectangle(lower=[-1, -4], upper=[0, 0],
                       corners=[[0, 0], [0, -4], [-1, -4], [-1, 0]])
    rect_e = Rectangle(lower=[-0.1, -0.1], upper=[0.1, 0.1])
    pmax_d = _part2_report(rect_d, "multi-max").rejection_rates[0.05]
    pmax_e = _part2_report(rect_e, "multi-max").rejection_rates[0.05]
    plain_e = _part2_report(rect_e, "multi").rejection_rates[0.05]
    with capsys.disabled():
        _check(10, [
            ("(d) pmax", pmax_d <= 0.06, f"rej={pmax_d:.3f}"),
            ("(e) pmax", pmax_e <= 0.06, f"rej={pmax_e:.3f}"),
            ("(e) plain exceeds", plain_e > 0.06, f"rej={plain_e:.3f}"),
        ])


def test_criterion_11_simplicial_depth_oracle(capsys):
    rng = np.random.default_rng(1111)
    mismatches = 0
    for trial in range(200):
        m = int(rng.integers(3, 61))
        pts = rng.standard_normal((m, 2)) * rng.uniform(0.5, 3.0)
        if trial % 4 == 0:
            w = pts[rng.integers(0, m)].copy()
        else:
            w = rng.standard_normal(2) * 2.0
        if simplicial_depth(pts, w) != simplicial_depth_brute(pts, w):
            mismatches += 1
    with capsys.disabled():
        _check(11, [("exact", mismatches == 0, f"mismatches={mismatches}/200")])


def test_criterion_12_deterministic_reports(tmp_path, capsys):
    cfg = tmp_path / "region.cfg"
    cfg.write_text("shape = rectangle\nlo = -0.154, -0.28\nhi = 0.154, 0.28\n")
    table = tmp_path / "table1.csv"
    table.write_text("\n".join(f"{a},{b}" for a, b in TABLE1) + "\n")

    sim_blobs, sim_qq, p2_blobs = [], [], []
    for threads in (1, 4, 8):
        sim_out = tmp_path / "sim.json"
        qq_out = tmp_path / "sim.qq.csv"
        code = cli_main(
            ["simulate", "--region", "[-0.01,0.01]", "--true-mean", "0",
             "--n", "80", "--reps", "60", "--seed", "6",
             "--threads", str(threads), "--out", str(sim_out),
             "--qq-out", str(qq_out)]
        )
        assert code == 0
        sim_blobs.append(sim_out.read_bytes())
        sim_qq.append(qq_out.read_bytes())
        # pval2d has no worker count; its report must repeat between the runs
        p2_out = tmp_path / "p2.json"
        code = cli_main(
            ["pval2d", "--input", str(table), "--config", str(cfg),
             "--boot-reps", "500", "--seed", "6", "--out", str(p2_out)]
        )
        assert code == 0
        p2_blobs.append(p2_out.read_bytes())
    with capsys.disabled():
        _check(12, [
            ("simulate", sim_blobs[0] == sim_blobs[1] == sim_blobs[2], "json bytes"),
            ("simulate-qq", sim_qq[0] == sim_qq[1] == sim_qq[2], "csv bytes"),
            ("pval2d", p2_blobs[0] == p2_blobs[1] == p2_blobs[2], "json bytes"),
        ])

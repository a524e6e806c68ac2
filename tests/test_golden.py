"""Golden bytes of the univariate battery and of every CLI subcommand.

``golden_part1.json`` holds sha256 digests of the ``simulate`` CLI report and
QQ CSV for every ``scripts/run_part1.py`` case at its defaults (n=200,
reps=2000, seed 1, z-CD), and of every file the script writes.  They were
recorded from the per-replication implementation that preceded batching, at
1, 4 and 8 worker threads, all of which gave the same bytes.

``golden_cli.json`` holds sha256 digests of ``pval`` (every method token with
each CD kind), ``pval2d`` (both depths; a cornered rectangle, a halfspace
without corners and a far box whose depth floor comes from the boundary
grid; 300 and 2000 bootstrap replicates), ``bioeq`` and bivariate
``simulate --config`` reports (1 and 2 replication workers) on inputs written
by the tests.  They were recorded from the implementation in which ``pval2d``
chunked the depths itself and ``p_multi`` computed every depth in one pass,
and the ``pval2d`` digests were the same on 1 and 2 depth threads.  The
``bioeq_*`` edge cases were recorded later, from the implementation that
read the two equivalence tails from two scalar ``cdf`` calls.

``golden_part2.json`` holds sha256 digests of the sorted p-values and of the
summary of every ``scripts/run_part2.py`` case run at a reduced size
(simplicial depth, n=200, boot_m=500, reps=50, seed 1, one thread).  They were
recorded from the simplicial kernel that located antipodes with a float
``searchsorted``; the configurations are continuous, so exact tie handling
leaves them unchanged.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdsupport import ExperimentSpec, Rectangle, bioeq_p, bootstrap_cloud, p_multi, run_experiment
from cdsupport.cli import METHOD_TOKENS, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).with_name("golden_part1.json")).read_text())
GOLDEN_CLI = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())
GOLDEN_PART2 = json.loads((Path(__file__).with_name("golden_part2.json")).read_text())


def _script_module(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


PART1 = _script_module("run_part1")
PART2 = _script_module("run_part2")
RUNS = [(name, text, "full") for name, text in PART1.CASES.items()] + [
    ("1b_narrow", PART1.CASES["1b_narrow"], "direct"),
    ("1d_edge", PART1.CASES["1d_edge"], "direct"),
]


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("name,text,method", RUNS, ids=[f"{n}_{m}" for n, _, m in RUNS])
def test_simulate_cli_bytes_match_golden(name, text, method, tmp_path, monkeypatch):
    # relative paths keep the report's qq_csv field independent of tmp_path
    monkeypatch.chdir(tmp_path)
    want = GOLDEN["cli"][f"{name}_{method}"]
    for threads in (1, 4, 8):
        code = main(["simulate", "--region", text, "--true-mean", "0", "--n", "200",
                     "--reps", "2000", "--cd", "z", "--seed", "1", "--method", method,
                     "--threads", str(threads), "--out", "sim.json", "--qq-out", "sim.qq.csv"])
        assert code == 0
        assert {"json": _sha("sim.json"), "csv": _sha("sim.qq.csv")} == want, threads


def _script_env() -> dict:
    """The environment of a script run: this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_run_part1_script_bytes_match_golden(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "scripts" / "run_part1.py"),
                    "--out-dir", str(tmp_path)], check=True, env=_script_env(),
                   capture_output=True)
    got = {f.name: _sha(f) for f in sorted(tmp_path.iterdir())}
    assert got == GOLDEN["script"]


def test_run_applications_script_matches_the_library():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_applications.py"),
                          "--boot-reps", "200", "--seed", "1"], check=True, env=_script_env(),
                         capture_output=True, text=True, timeout=120).stdout
    # the script prints one indented JSON document per application
    decoder, text, reports = json.JSONDecoder(), out.strip(), []
    while text:
        report, end = decoder.raw_decode(text)
        reports.append(report)
        text = text[end:].lstrip()
    bio, model = reports
    assert bio["p"] == bioeq_p(12, 12, 80.272, 82.559, 83.623, -16.51, 16.51)
    cloud = bootstrap_cloud(_script_module("run_applications").MODEL_SYSTEM_DIFFS, 200, seed=1)
    box = Rectangle(lower=[-0.154, -0.28], upper=[0.154, 0.28])
    assert model["p"] == p_multi(cloud, "mahalanobis", box).p


# -- the bivariate battery -----------------------------------------------------

PART2_RUNS = [f"{name}_{method}" for name, (_, methods) in PART2.CASES.items()
              for method in methods]


def part2_digests() -> dict:
    """Digests of every ``run_part2.py`` case run at the reduced golden size."""
    out = {}
    for name, (region, methods) in PART2.CASES.items():
        for method in methods:
            spec = ExperimentSpec(
                model="bivariate-normal", true_mean=(0.0, 0.0), region=region, n=200,
                reps=50, method=method, depth="simplicial", boot_m=500, seed=1,
            )
            report = run_experiment(spec, threads=1)
            summary = json.dumps(report.summary(), sort_keys=True).encode()
            out[f"{name}_{method}"] = {
                "pvalues": hashlib.sha256(report.pvalues.tobytes()).hexdigest(),
                "summary": hashlib.sha256(summary).hexdigest(),
            }
    return out


def test_run_part2_cases_match_golden():
    assert sorted(GOLDEN_PART2) == sorted(PART2_RUNS)
    assert part2_digests() == GOLDEN_PART2


# -- every CLI subcommand -------------------------------------------------------

CONFIGS = {
    "rect.cfg": "shape = rectangle\nlo = -0.2, -0.3\nhi = 0.3, 0.4\n",
    "half.cfg": "shape = halfspace\nnormal = 1, 1\noffset = 0.2\n",
    "far.cfg": "shape = rectangle\nlo = 5, 5\nhi = 6, 6\n",
    "sim.cfg": "shape = rectangle\nlo = -0.5, -1\nhi = 0, 0\ncorners = 0, 0\n",
}


def _write_inputs() -> None:
    """Write the CSV samples and region configs into the working directory."""
    rng = np.random.default_rng(20)
    sample = 0.3 + rng.standard_normal(40)
    Path("sample.csv").write_text("x\n" + "".join(f"{v!r}\n" for v in sample.tolist()))
    pairs = [0.1, 0.2] + rng.standard_normal((60, 2)) @ np.array([[1.0, 0.0], [0.8, 1.8]])
    Path("pairs.csv").write_text(
        "a,b\n" + "".join(f"{a!r},{b!r}\n" for a, b in pairs.tolist()))
    for name, text in CONFIGS.items():
        Path(name).write_text(text)


# name -> (argv, thread counts to run it at; None runs without --threads)
CLI_CASES = {
    f"pval_{cd}_{method}": (
        ["pval", "--input", "sample.csv", "--region", "[-0.2,0.1];0.35;[0.9,inf)",
         "--method", method, "--cd", cd, "--seed", "4"],
        (None,),
    )
    for cd in ("t", "z", "bootstrap")
    for method in sorted(METHOD_TOKENS)
}
CLI_CASES.update({
    f"pval2d_{depth}_{cfg}_m{reps}": (
        ["pval2d", "--input", "pairs.csv", "--config", f"{cfg}.cfg", "--depth", depth,
         "--boot-reps", str(reps), "--seed", "6"],
        (None,),
    )
    for depth in ("mahalanobis", "simplicial")
    for cfg in ("rect", "half", "far")
    for reps in (300, 2000)
})
CLI_CASES["bioeq"] = (
    ["bioeq", "--n1", "12", "--n2", "12", "--mean-t", "80.272", "--mean-r", "82.559",
     "--var-d", "83.623", "--lower", "-16.51", "--upper", "16.51"],
    (None,),
)
# the edges of the equivalence test: infinite limits, and a mean difference that
# overflows to +inf, so that the CD puts no mass below +inf and p is 1
_BIOEQ_EDGE = ["bioeq", "--n1", "10", "--n2", "10"]
CLI_CASES.update({
    f"bioeq_{name}": (_BIOEQ_EDGE + argv, (None,))
    for name, argv in {
        "lower_inf": ["--mean-t", "5", "--mean-r", "4", "--var-d", "40",
                      "--lower=-inf", "--upper", "8"],
        "upper_inf": ["--mean-t", "5", "--mean-r", "4", "--var-d", "40",
                      "--lower", "-8", "--upper=inf"],
        "both_inf": ["--mean-t", "5", "--mean-r", "4", "--var-d", "40",
                     "--lower=-inf", "--upper=inf"],
        "centre_overflow": ["--mean-t", "1e308", "--mean-r", "-1e308", "--var-d", "4",
                            "--lower", "-8", "--upper", "8"],
    }.items()
})
CLI_CASES.update({
    f"simulate_{depth}": (
        ["simulate", "--config", "sim.cfg", "--true-mean", "0,0", "--n", "40",
         "--reps", "60", "--method", "multi-max", "--depth", depth, "--boot-reps", "600",
         "--seed", "8", "--qq-out", "sim.qq.csv"],
        (1, 2),
    )
    for depth in ("mahalanobis", "simplicial")
})


def cli_digests(name: str) -> dict:
    """Digests of one case's output files, the same at every listed thread count."""
    argv, thread_counts = CLI_CASES[name]
    seen = []
    for threads in thread_counts:
        extra = [] if threads is None else ["--threads", str(threads)]
        assert main(argv + extra + ["--out", "out.json"]) == 0
        got = {"json": _sha("out.json")}
        if Path("sim.qq.csv").exists():
            got["csv"] = _sha("sim.qq.csv")
        seen.append(got)
    assert all(got == seen[0] for got in seen), thread_counts
    return seen[0]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_bytes_match_golden(name, tmp_path, monkeypatch):
    # relative file names keep the reports independent of tmp_path
    monkeypatch.chdir(tmp_path)
    _write_inputs()
    assert cli_digests(name) == GOLDEN_CLI[name]

"""Golden bytes of the univariate battery.

``golden_part1.json`` holds sha256 digests of the ``simulate`` CLI report and
QQ CSV for every ``scripts/run_part1.py`` case at its defaults (n=200,
reps=2000, seed 1, z-CD), and of every file the script writes.  They were
recorded from the per-replication implementation that preceded batching, at
1, 4 and 8 worker threads, all of which gave the same bytes.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdsupport.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).with_name("golden_part1.json")).read_text())


def _part1_module():
    spec = importlib.util.spec_from_file_location("run_part1", ROOT / "scripts" / "run_part1.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


PART1 = _part1_module()
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


def test_run_part1_script_bytes_match_golden(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "run_part1.py"),
                    "--out-dir", str(tmp_path)], check=True, env=env, capture_output=True)
    got = {f.name: _sha(f) for f in sorted(tmp_path.iterdir())}
    assert got == GOLDEN["script"]

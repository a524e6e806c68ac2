"""The benchmark's self-test as part of the suite.

``bench/`` calls library names that only the benchmark exercises
(``depth_of``, ``simplicial_depth_brute``, ``p_multi(..., _depths=)``), so a
change that breaks them fails here rather than in a benchmark run.  The
self-test writes its working files under the ignored ``bench/out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    result = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    assert result.stdout.splitlines()[-1] == "selftest: ok"

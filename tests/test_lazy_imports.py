"""``import cdsupport`` loads numpy.random, concurrent.futures, csv and
argparse only in the calls that use them, and the deferred seeding of the
univariate streams keeps every stream bit for bit.  Neither the import nor a
depth p-value on a Gaussian cloud loads ``fractions``.

The check runs in a fresh interpreter, because other test modules load these
modules and ``sys.modules`` is shared by the whole session.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import io
    import sys
    from contextlib import redirect_stdout

    import numpy as np

    import cdsupport
    from cdsupport import (
        ExperimentSpec, Rectangle, bootstrap_cloud, parse_region, run_experiment,
        write_qq_csv,
    )
    from cdsupport.cli import main
    from cdsupport.depth import depth_of

    DEFERRED = ("numpy.random", "concurrent.futures", "csv", "argparse")

    def loaded():
        # scipy.special loads all four itself, so none of these calls may load it
        assert "scipy.special" not in sys.modules
        return {name for name in DEFERRED if name in sys.modules}

    assert not loaded(), f"import cdsupport: {loaded()}"

    data = np.column_stack([np.linspace(-1.0, 1.0, 20), np.linspace(2.0, -3.0, 20) ** 2])
    cloud = bootstrap_cloud(data, 100, seed=3)
    assert loaded() == {"numpy.random"}, f"bootstrap_cloud: {loaded()}"

    depth_of(cloud, cloud.points[:5], "simplicial")
    assert "concurrent.futures" not in loaded(), "depth_of"
    biv = ExperimentSpec(model="bivariate-normal", true_mean=(0.0, 0.0),
                         region=Rectangle(lower=[-1, -1], upper=[1, 1]), n=20, reps=50,
                         method="multi", boot_m=100)
    one = run_experiment(biv, threads=1).pvalues
    assert "concurrent.futures" not in loaded(), "one-worker run"
    two = run_experiment(biv, threads=2).pvalues
    assert np.array_equal(one, two)
    assert "concurrent.futures" in loaded(), "two-worker run"

    spec = ExperimentSpec(model="univariate-normal", true_mean=0.1, cd="bootstrap",
                          region=parse_region("[-0.1,0.1]"), n=20, reps=50, boot_m=100)
    report = run_experiment(spec)
    assert "csv" not in loaded(), "run_experiment"
    write_qq_csv(report, "qq.csv")
    assert "csv" in loaded(), "write_qq_csv"

    np.savetxt("sample.csv", data[:, 0])
    assert "argparse" not in loaded()
    with redirect_stdout(io.StringIO()):
        code = main(["pval", "--input", "sample.csv", "--region", "-0.5;0.5",
                     "--cd", "bootstrap", "--boot-reps", "200", "--seed", "1"])
    assert code == 0 and loaded() == set(DEFERRED), f"main: {loaded()}"

    from numpy.random.bit_generator import ISeedSequence

    from cdsupport import simulate

    assert issubclass(simulate._words_class(), ISeedSequence)
    for seed in (0, 7, 2**40 + 3):
        for stream in (0, 1):
            reps = range(2**20, 2**20 + 3)
            for r, got in zip(reps, simulate._streams(seed, reps, stream)):
                want = np.random.default_rng([seed, r, stream])
                assert got.bit_generator.state == want.bit_generator.state, (seed, r, stream)
                assert np.array_equal(got.integers(0, 2**63, 8), want.integers(0, 2**63, 8))
    """
)


def test_deferred_modules_load_in_the_calls_that_use_them(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert result.returncode == 0, result.stderr


HULL_SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    import cdsupport
    from cdsupport import PART2_COV, Rectangle, bootstrap_cloud, p_multi, p_multi_max

    assert "fractions" not in sys.modules, "import cdsupport"
    data = np.random.default_rng(4).standard_normal((200, 2)) @ np.linalg.cholesky(PART2_COV).T
    cloud = bootstrap_cloud(data, 500, seed=5)
    for region in (Rectangle(lower=[-1, -1], upper=[1, 1]),
                   Rectangle(lower=[-1, -4], upper=[0, 0], corners=[[5, 5]])):
        assert p_multi(cloud, "simplicial", region).depth_floor == 3 / 500
        p_multi_max(cloud, "simplicial", region)
    assert "fractions" not in sys.modules, "p_multi on a Gaussian cloud"
    """
)


def test_the_hull_of_a_gaussian_cloud_needs_no_rational_fallback(tmp_path):
    # the exact orientation falls back to ``fractions`` only for the triples
    # its float filter cannot certify, which continuous clouds do not reach
    result = subprocess.run(
        [sys.executable, "-c", HULL_SCRIPT], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert result.returncode == 0, result.stderr

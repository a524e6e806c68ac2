"""``scipy.special`` loads only when a t or normal CD is evaluated.

The check runs in a fresh interpreter, because other test modules import
scipy at module level and ``sys.modules`` is shared by the whole session.
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
        ExperimentSpec, Rectangle, make_asymptotic_normal_cd, make_bootstrap_cd,
        make_student_t_cd, run_experiment,
    )
    from cdsupport.cli import main

    def loaded():
        return "scipy.special" in sys.modules

    assert not loaded(), "import cdsupport"

    rng = np.random.default_rng(5)
    with open("table.csv", "w") as fh:
        fh.write("x1,x2\\n")
        fh.writelines(f"{a},{b}\\n" for a, b in rng.standard_normal((30, 2)))
    with open("box.cfg", "w") as fh:
        fh.write("shape = rectangle\\nlo = -0.2, -0.2\\nhi = 0.2, 0.2\\n")
    with redirect_stdout(io.StringIO()):
        code = main(["pval2d", "--input", "table.csv", "--config", "box.cfg",
                     "--boot-reps", "200", "--seed", "1", "--depth", "simplicial"])
    assert code == 0 and not loaded(), "pval2d"

    spec = ExperimentSpec(
        model="bivariate-normal", true_mean=(0.0, 0.0),
        region=Rectangle(lower=[-1, -1], upper=[1, 1]), n=20, reps=50,
        method="multi-max", boot_m=100, seed=3,
    )
    run_experiment(spec)
    assert not loaded(), "bivariate run_experiment"

    boot = make_bootstrap_cd(rng.standard_normal(40), 300, seed=2)
    boot.cdf(np.linspace(-1.0, 1.0, 7))
    assert not loaded(), "bootstrap CD"

    theta = np.linspace(-3.0, 3.0, 61)
    t_cd = make_student_t_cd(12, 0.4, 1.3)
    z_cd = make_asymptotic_normal_cd(12, 0.4, 1.3)
    got = [t_cd.cdf(theta), z_cd.cdf(theta)]
    assert loaded(), "t and normal CDs"

    from scipy import special

    want = [
        special.stdtr(11, (theta - 0.4) / t_cd.scale),
        special.ndtr((theta - 0.4) / z_cd.scale),
    ]
    assert all(np.array_equal(g, w) for g, w in zip(got, want)), "same bits as scipy"
    """
)


def test_only_exact_cds_load_scipy_special(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert result.returncode == 0, result.stderr

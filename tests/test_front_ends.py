"""The three front ends reach one p-value for the same data.

A replication r of a run with master seed s draws its data from the stream
(s, r, 0) and its bootstrap from (s, r, 1).  The CLI reads the data from a
file, and its integer ``--seed`` is the one whose 32-bit words, low first,
are the words of s, then r, then 1: numpy's entropy for the list (s, r, 1),
so it resamples from the same stream.  The CLI's p, the library's on the same sample and
seed, and the harness's for replication r must then be equal bit for bit.

The equivalence test is one more reading of the support table: the CLI's tails
equal the two scalar tails H(lower) and 1 - H(upper), and ``support_table``
makes the one ``cdf`` call of every front end.
"""

import inspect
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdsupport import (
    ExperimentSpec,
    bioeq_cd,
    bioeq_p,
    bootstrap_cloud,
    parse_region,
    sample_cd,
    simulate,
    support,
)
from cdsupport.cd import ConfidenceDistribution
from cdsupport.cli import METHOD_TOKENS, load_region_config, main
from cdsupport.depth import MULTI_METHODS
from cdsupport.support import METHODS, support_table

ROOT = Path(__file__).resolve().parents[1]

REPS = range(3)


def _cli_seed(seed: int, r: int) -> int:
    shift = 32 * max(1, -(-seed.bit_length() // 32))  # the 32-bit words of seed
    return seed + (r << shift) + (1 << shift + 32)


def _cli_report(argv, out) -> dict:
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _write_rows(path, rows) -> None:
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))


@st.composite
def univariate_regions(draw) -> str:
    ends = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=5,
                         unique=True))
    ends.sort()
    pieces = [f"[{a!r},{b!r}]" for a, b in zip(ends[::2], ends[1::2])]
    if len(ends) % 2:
        pieces.append(repr(ends[-1]))
    return ";".join(pieces)


@given(cd=st.sampled_from(["t", "z", "bootstrap"]), method=st.sampled_from(sorted(METHOD_TOKENS)),
       region=univariate_regions(), n=st.integers(2, 12), truth=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**40))
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_pval_library_and_simulate_agree(cd, method, region, n, truth, seed, tmp_path):
    spec = ExperimentSpec(model="univariate-normal", true_mean=truth, region=parse_region(region),
                          n=n, reps=50, method=METHOD_TOKENS[method], cd=cd, boot_m=100,
                          seed=seed)
    harness = simulate._block_pvalues(spec, REPS)
    for r in REPS:
        # replication r's data as the harness draws it
        sample = np.random.default_rng([seed, r, 0]).standard_normal(n) * spec.sd + truth
        _write_rows(tmp_path / "x.csv", sample[:, None].tolist())
        report = _cli_report(["pval", "--input", str(tmp_path / "x.csv"), "--region", region,
                              "--method", method, "--cd", cd, "--boot-reps", "100",
                              "--seed", str(_cli_seed(seed, r))], tmp_path / "pval.json")
        made, _, _ = sample_cd(cd, sample, 100, [seed, r, 1])
        library = METHODS[spec.method](support_table(made, spec.region)).item()
        assert report["p"] == library == harness[r]


@st.composite
def bivariate_configs(draw) -> str:
    if draw(st.booleans()):
        lo = draw(st.tuples(st.floats(-2.0, 1.0), st.floats(-4.0, 2.0)))
        width = draw(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 4.0)))
        hi = (lo[0] + width[0], lo[1] + width[1])
        return f"shape = rectangle\nlo = {lo[0]!r}, {lo[1]!r}\nhi = {hi[0]!r}, {hi[1]!r}\n"
    normal = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(any))
    offset = draw(st.floats(-2.0, 2.0))
    return f"shape = halfspace\nnormal = {normal[0]!r}, {normal[1]!r}\noffset = {offset!r}\n"


@given(config=bivariate_configs(), depth=st.sampled_from(["mahalanobis", "simplicial"]),
       truth=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), n=st.integers(5, 20),
       seed=st.integers(0, 2**40))
@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_pval2d_library_and_simulate_agree(config, depth, truth, n, seed, tmp_path):
    (tmp_path / "region.cfg").write_text(config)
    region, _ = load_region_config(tmp_path / "region.cfg")
    # a box has its vertices as corners, and the CLI then takes their maximum
    method = "multi-max" if region.corners.size else "multi"
    spec = ExperimentSpec(model="bivariate-normal", true_mean=truth, region=region, n=n,
                          reps=50, method=method, depth=depth, boot_m=100, seed=seed)
    harness = simulate._block_pvalues(spec, REPS)
    for r in REPS:
        data = spec.true_mean + (np.random.default_rng([seed, r, 0]).standard_normal((n, 2))
                                 @ np.linalg.cholesky(spec.cov).T)
        _write_rows(tmp_path / "xy.csv", data.tolist())
        report = _cli_report(["pval2d", "--input", str(tmp_path / "xy.csv"), "--config",
                              str(tmp_path / "region.cfg"), "--depth", depth,
                              "--boot-reps", "100", "--seed", str(_cli_seed(seed, r))],
                             tmp_path / "pval2d.json")
        cloud = bootstrap_cloud(data, 100, seed=[seed, r, 1])
        library = MULTI_METHODS[method](cloud, depth, region).p
        assert report.get("p_max", report["p_multi"]) == library == harness[r]


# -- the equivalence test reads the one support table ---------------------------


@st.composite
def equivalence_limits(draw) -> tuple:
    lower = draw(st.one_of(st.just(-math.inf), st.floats(-60.0, 60.0)))
    upper = draw(st.one_of(st.just(math.inf), st.floats(-60.0, 60.0)).filter(lambda u: lower < u))
    return lower, upper


@given(n1=st.integers(2, 40), n2=st.integers(2, 40), mean_t=st.floats(-50.0, 50.0),
       mean_r=st.floats(-50.0, 50.0), var_d=st.floats(1e-6, 2500.0),
       limits=equivalence_limits())
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bioeq_tails_are_the_two_scalar_cdf_tails(n1, n2, mean_t, mean_r, var_d, limits,
                                                   tmp_path):
    lower, upper = limits
    report = _cli_report(["bioeq", f"--n1={n1}", f"--n2={n2}", f"--mean-t={mean_t!r}",
                          f"--mean-r={mean_r!r}", f"--var-d={var_d!r}", f"--lower={lower!r}",
                          f"--upper={upper!r}"], tmp_path / "bioeq.json")
    # the two one-sided tails as scalar c.d.f. values, the reference formula
    cd = bioeq_cd(n1, n2, mean_t, mean_r, var_d)
    want = float(cd.cdf(lower)), float(1.0 - cd.cdf(upper))
    assert (report["lower_tail"], report["upper_tail"]) == want
    assert report["p"] == max(want) == bioeq_p(n1, n2, mean_t, mean_r, var_d, lower, upper)


def test_one_cdf_call_per_support_table(tmp_path, monkeypatch):
    calls = {"cdf": 0, "table": 0}
    cdf, table = ConfidenceDistribution.cdf, support.support_table

    def counted_cdf(self, theta):
        calls["cdf"] += 1
        return cdf(self, theta)

    def counted_table(cd, region):
        calls["table"] += 1
        return table(cd, region)

    monkeypatch.setattr(ConfidenceDistribution, "cdf", counted_cdf)
    monkeypatch.setattr(support, "support_table", counted_table)
    monkeypatch.setattr(simulate, "BLOCK_FLOATS", 20 * 100)
    _write_rows(tmp_path / "x.csv", np.random.default_rng(3).standard_normal((20, 1)).tolist())
    # name -> (argv, tables): a query reads one table, a simulation one per
    # block of 100 replications
    runs = {
        "pval": (["pval", "--input", str(tmp_path / "x.csv"), "--region",
                  "[-0.2,0.1];[0.9,inf)"], 1),
        "bioeq": (["bioeq", "--n1", "12", "--n2", "12", "--mean-t", "80.272", "--mean-r",
                   "82.559", "--var-d", "83.623", "--lower", "-16.51", "--upper", "16.51"], 1),
        "simulate": (["simulate", "--region", "[0,0.1]", "--true-mean", "0", "--n", "20",
                      "--reps", "300", "--cd", "t", "--seed", "1", "--threads", "1"], 3),
    }
    for name, (argv, tables) in runs.items():
        calls.update(cdf=0, table=0)
        _cli_report(argv, tmp_path / f"{name}.json")
        assert calls == {"cdf": tables, "table": tables}, name


def test_support_table_is_the_one_cdf_call_site():
    sites = [(path.name, line.strip())
             for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")])
             for line in path.read_text().splitlines() if ".cdf(" in line]
    assert sites == [("support.py", "h = cd.cdf(ends)")]
    assert "h = cd.cdf(ends)" in inspect.getsource(support_table)

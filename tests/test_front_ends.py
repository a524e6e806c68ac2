"""The three front ends reach one p-value for the same data.

A replication r of a run with master seed s draws its data from the stream
(s, r, 0) and its bootstrap from (s, r, 1).  The CLI reads the data from a
file, and its integer ``--seed`` is the one whose 32-bit words, low first,
are the words of s, then r, then 1: numpy's entropy for the list (s, r, 1),
so it resamples from the same stream.  The CLI's p, the library's on the same sample and
seed, and the harness's for replication r must then be equal bit for bit.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdsupport import ExperimentSpec, bootstrap_cloud, parse_region, sample_cd, simulate
from cdsupport.cli import METHOD_TOKENS, load_region_config, main
from cdsupport.depth import MULTI_METHODS
from cdsupport.support import METHODS, support_table

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

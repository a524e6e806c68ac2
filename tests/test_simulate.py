import math
import re

import numpy as np
import pytest

from cdsupport import (
    ExperimentSpec,
    PART2_COV,
    Rectangle,
    ks_uniform,
    parse_region,
    run_experiment,
    write_qq_csv,
)


class TestKsUniform:
    def test_single_point(self):
        assert ks_uniform([0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_ideal_grid(self):
        n = 40
        grid = (np.arange(1, n + 1) - 0.5) / n
        assert ks_uniform(grid) == pytest.approx(0.5 / n, abs=1e-14)

    def test_uniform_draws_within_bound(self):
        draws = np.random.default_rng(202).uniform(size=2000)
        assert ks_uniform(draws) < 1.36 / np.sqrt(2000) + 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            ks_uniform([])
        with pytest.raises(ValueError):
            ks_uniform([0.2, 1.4])
        with pytest.raises(ValueError):
            ks_uniform([-0.1])


class TestExperimentSpec:
    def test_rejects_few_reps(self):
        with pytest.raises(ValueError, match="reps"):
            ExperimentSpec(
                model="univariate-normal", true_mean=0.0,
                region=parse_region("0"), n=50, reps=10,
            )

    def test_rejects_method_model_mismatch(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentSpec(
                model="univariate-normal", true_mean=0.0,
                region=parse_region("0"), n=50, method="multi",
            )

    def test_rejects_bad_covariance(self):
        with pytest.raises(ValueError, match="positive definite"):
            ExperimentSpec(
                model="bivariate-normal", true_mean=(0.0, 0.0),
                region=Rectangle(lower=[-1, -1], upper=[1, 1]),
                n=50, method="multi", cov=np.array([[1.0, 2.0], [2.0, 1.0]]),
            )

    def test_rejects_region_type_mismatch(self):
        with pytest.raises(ValueError, match="RegionND"):
            ExperimentSpec(
                model="bivariate-normal", true_mean=(0.0, 0.0),
                region=parse_region("0"), n=50, method="multi",
            )

    @pytest.mark.parametrize("k", [1, 3])
    def test_rejects_region_dimension(self, k):
        with pytest.raises(ValueError, match=f"2-D region, not {k}-D"):
            ExperimentSpec(
                model="bivariate-normal", true_mean=(0.0, 0.0),
                region=Rectangle(lower=[-1.0] * k, upper=[1.0] * k), n=50, method="multi",
            )

    @pytest.mark.parametrize("truth", [[1.0, 2.0], [0.0], np.zeros((1, 1))])
    def test_rejects_non_scalar_univariate_truth(self, truth):
        with pytest.raises(ValueError, match="univariate truth must be a scalar"):
            ExperimentSpec(
                model="univariate-normal", true_mean=truth,
                region=parse_region("0"), n=20, reps=50,
            )

    @pytest.mark.parametrize("truth,message", [
        (math.inf, "true_mean must be finite, got inf"),
        (np.float64(-math.inf), "true_mean must be finite, got -inf"),
        (math.nan, "true_mean must be finite, got nan"),
    ])
    def test_rejects_non_finite_univariate_truth(self, truth, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(
                model="univariate-normal", true_mean=truth,
                region=parse_region("0"), n=20, reps=50,
            )

    @pytest.mark.parametrize("truth", [(0.0, math.inf), (math.nan, 0.0)])
    def test_rejects_non_finite_bivariate_truth(self, truth):
        message = f"true_mean must be finite, got {list(truth)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(
                model="bivariate-normal", true_mean=truth,
                region=Rectangle(lower=[-1.0, -1.0], upper=[1.0, 1.0]), n=50, method="multi",
            )

    @pytest.mark.parametrize("sd,message", [
        (math.inf, "sd must be finite, got inf"),
        (math.nan, "sd must be positive"),
        (-math.inf, "sd must be positive"),
    ])
    def test_rejects_non_finite_sd(self, sd, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(
                model="univariate-normal", true_mean=0.0,
                region=parse_region("0"), n=20, reps=50, sd=sd,
            )

    @pytest.mark.parametrize("seed,message", [
        (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"),
        (-1, "seed must be >= 0, got -1"),
    ])
    def test_rejects_bad_seed(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(
                model="univariate-normal", true_mean=0.0,
                region=parse_region("0"), n=20, reps=50, seed=seed,
            )

    def test_integer_seed_becomes_python_int(self):
        spec = ExperimentSpec(
            model="univariate-normal", true_mean=0.0,
            region=parse_region("0"), n=20, reps=50, seed=np.uint64(2**63 + 1),
        )
        assert type(spec.seed) is int and spec.seed == 2**63 + 1

    def test_rejects_unknown_depth(self):
        with pytest.raises(ValueError, match="unknown depth kind 'foo'"):
            ExperimentSpec(
                model="bivariate-normal", true_mean=(0.0, 0.0),
                region=Rectangle(lower=[-1, -1], upper=[1, 1]), n=50, method="multi",
                depth="foo",
            )


def _uni_spec(**kw):
    base = dict(
        model="univariate-normal", true_mean=0.0, region=parse_region("0"),
        n=40, reps=60, method="full", cd="t", seed=7,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestDeterminism:
    def test_thread_counts_agree_univariate(self):
        reports = [run_experiment(_uni_spec(), threads=t) for t in (1, 4, 8)]
        for other in reports[1:]:
            assert np.array_equal(reports[0].pvalues, other.pvalues)

    def test_thread_counts_agree_bivariate(self):
        maha = ExperimentSpec(
            model="bivariate-normal", true_mean=(0.0, 0.0),
            region=Rectangle(lower=[-1, -4], upper=[0, 4]),
            n=60, reps=50, method="multi", depth="mahalanobis",
            boot_m=120, seed=3, cov=PART2_COV,
        )
        # every replication screens its cloud, so the workers fill their tile
        # buffers at the same time: shared buffers would change p-values
        screened = ExperimentSpec(
            model="bivariate-normal", true_mean=(0.0, 0.0),
            region=Rectangle(lower=[-1, -4], upper=[0, 0],
                             corners=[[0, 0], [0, -4], [-1, -4], [-1, 0]]),
            n=60, reps=50, method="multi-max", depth="simplicial",
            boot_m=300, seed=3, cov=PART2_COV,
        )
        for spec in (maha, screened):
            reports = [run_experiment(spec, threads=t) for t in (1, 4, 8)]
            for other in reports[1:]:
                assert np.array_equal(reports[0].pvalues, other.pvalues)

    def test_replication_streams_prefix_stable(self):
        # replication r depends only on (seed, r): a longer run contains the
        # shorter run's p-values as a sub-multiset
        short = run_experiment(_uni_spec(reps=50))
        long = run_experiment(_uni_spec(reps=60))
        remaining = list(np.round(long.pvalues, 14))
        for p in np.round(short.pvalues, 14):
            remaining.remove(p)
        assert len(remaining) == 10


def test_report_fields_consistent():
    report = run_experiment(_uni_spec(reps=80, cd="z"))
    assert report.pvalues.shape == (80,)
    assert np.all(np.diff(report.pvalues) >= 0)
    assert report.uniform_quantiles[0] == pytest.approx(0.5 / 80)
    assert report.ks == ks_uniform(report.pvalues)
    assert set(report.rejection_rates) == {0.01, 0.05, 0.10}
    summary = report.summary()
    assert summary["reps"] == 80
    assert "0.05" in summary["rejection_rates"]


def test_qq_csv_format(tmp_path):
    report = run_experiment(_uni_spec())
    path = tmp_path / "qq.csv"
    write_qq_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,empirical_p,uniform_quantile"
    rank, emp, uq = lines[1].split(",")
    assert rank == "1"
    assert float(emp) == report.pvalues[0]
    assert float(uq) == report.uniform_quantiles[0]


def test_direct_method_overrejects_narrow_interval_while_full_controls():
    # the documented narrow-interval pathology, at a module-test scale
    region = parse_region("[-0.01,0.01]")
    base = dict(
        model="univariate-normal", true_mean=0.0, region=region,
        n=200, reps=400, cd="z", seed=11,
    )
    direct = run_experiment(ExperimentSpec(**base, method="direct"))
    full = run_experiment(ExperimentSpec(**base, method="full"))
    assert direct.rejection_rates[0.05] >= 0.12  # far above the nominal 0.05
    assert full.rejection_rates[0.05] <= 0.08


def test_interval_size_controlled_at_scale():
    spec = _uni_spec(region=parse_region("[0,0.1]"), n=200, reps=500, cd="z")
    report = run_experiment(spec)
    assert report.rejection_rates[0.05] <= 0.05 + 2 * np.sqrt(0.05 * 0.95 / 500)

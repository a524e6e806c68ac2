import json
import math
import re

import numpy as np
import pytest

from cdsupport import (
    ExperimentSpec,
    PART2_COV,
    Rectangle,
    cd as cd_module,
    ks_uniform,
    parse_region,
    run_experiment,
    simulate,
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
        with pytest.raises(ValueError, match="univariate runs need a scalar --true-mean"):
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

    @pytest.mark.parametrize("sd,message", [
        ("x", "sd must be a real number, got 'x'"),
        ([1.0, 2.0], "sd must be a real number, got [1.0, 2.0]"),
        (0.0, "sd must be positive"),
        (math.nan, "sd must be positive"),
        (math.inf, "sd must be finite, got inf"),
    ])
    def test_rejects_bad_bivariate_sd(self, sd, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(
                model="bivariate-normal", true_mean=(0.0, 0.0),
                region=Rectangle(lower=[-1.0, -1.0], upper=[1.0, 1.0]), n=50, method="multi",
                sd=sd,
            )

    @pytest.mark.parametrize("truth", [("0", "0"), ["0.0", 1.0], ("a", "b"), (0j, 1.0)])
    def test_rejects_non_numeric_bivariate_truth(self, truth):
        message = f"true_mean must be real numbers, got {truth!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(
                model="bivariate-normal", true_mean=truth,
                region=Rectangle(lower=[-1.0, -1.0], upper=[1.0, 1.0]), n=50, method="multi",
            )

    def test_numeric_bivariate_truth_becomes_floats(self):
        spec = ExperimentSpec(
            model="bivariate-normal", true_mean=[0, np.float32(0.5)],
            region=Rectangle(lower=[-1.0, -1.0], upper=[1.0, 1.0]), n=50, method="multi",
        )
        assert spec.true_mean.dtype == float and spec.true_mean.tolist() == [0.0, 0.5]

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

    @pytest.mark.parametrize("name,value", [
        ("n", 20.5), ("reps", 60.0), ("boot_m", 150.5), ("n", "20"),
    ])
    def test_rejects_non_integer_size(self, name, value):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(
                model="univariate-normal", true_mean=0.0,
                region=parse_region("0"), **{"n": 20, "reps": 50, name: value},
            )

    def test_integer_sizes_become_python_ints(self):
        spec = ExperimentSpec(
            model="univariate-normal", true_mean=0.0, region=parse_region("0"),
            n=np.int64(20), reps=np.int32(50), boot_m=np.uint16(150),
        )
        assert [(type(v), v) for v in (spec.n, spec.reps, spec.boot_m)] == [
            (int, 20), (int, 50), (int, 150)]

    @pytest.mark.parametrize("kw,message", [
        (dict(model="trivariate-normal"), "unknown model 'trivariate-normal'"),
        (dict(cd="student"), "unknown cd kind 'student'"),
        (dict(region=Rectangle(lower=[-1.0], upper=[1.0])), "univariate runs need a NullRegion"),
    ])
    def test_rejects_univariate_configuration(self, kw, message):
        base = dict(model="univariate-normal", true_mean=0.0, region=parse_region("0"),
                    n=20, reps=50)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(**{**base, **kw})

    @pytest.mark.parametrize("kw,message", [
        (dict(cov=np.eye(3)), "covariance must be a symmetric 2x2 matrix"),
        (dict(cov=np.array([[1.0, 0.5], [0.2, 1.0]])),
         "covariance must be a symmetric 2x2 matrix"),
        (dict(true_mean=(0.0, 0.0, 0.0)), "bivariate truth must be a 2-vector"),
        (dict(true_mean=0.0), "bivariate truth must be a 2-vector"),
    ])
    def test_rejects_bivariate_configuration(self, kw, message):
        base = dict(model="bivariate-normal", true_mean=(0.0, 0.0),
                    region=Rectangle(lower=[-1, -1], upper=[1, 1]), n=50, method="multi")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(**{**base, **kw})

    def test_rejects_unknown_depth(self):
        with pytest.raises(ValueError, match="unknown depth kind 'foo'"):
            ExperimentSpec(
                model="bivariate-normal", true_mean=(0.0, 0.0),
                region=Rectangle(lower=[-1, -1], upper=[1, 1]), n=50, method="multi",
                depth="foo",
            )

    @pytest.mark.parametrize("kw,message", [
        (dict(sd="1"), "sd must be a real number, got '1'"),
        (dict(sd=np.array([1.0, 2.0])), "sd must be a real number, got array([1., 2.])"),
        (dict(sd=None), "sd must be a real number, got None"),
        (dict(sd=1j), "sd must be a real number, got 1j"),
        (dict(method=["full"]), "method must be a string, got ['full']"),
        (dict(true_mean="1"), "true_mean must be a real number, got '1'"),
        (dict(model="bivariate-normal", true_mean=(0.0, 0.0), method={"multi": 1},
              region=Rectangle(lower=[-1, -1], upper=[1, 1])),
         "method must be a string, got {'multi': 1}"),
    ])
    def test_rejects_fields_of_the_wrong_type_by_name(self, kw, message):
        base = dict(model="univariate-normal", true_mean=0.0, region=parse_region("0"), n=20,
                    reps=50)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(**{**base, **kw})

    @pytest.mark.parametrize("sd", [2, 2.0, np.float64(2.0), np.array(2.0)])
    def test_accepts_any_real_scalar_sd(self, sd):
        spec = _uni_spec(sd=sd)
        assert run_experiment(spec).pvalues.tolist() == run_experiment(
            _uni_spec(sd=2.0)).pvalues.tolist()


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


def _biv_spec(**kw):
    base = dict(
        model="bivariate-normal", true_mean=(0.0, 0.0),
        region=Rectangle(lower=[-1, -4], upper=[0, 4]), n=30, reps=50, method="multi",
        depth="mahalanobis", boot_m=100, seed=5, cov=PART2_COV,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def _report_bytes(report, path):
    write_qq_csv(report, path)
    return json.dumps(report.summary(), sort_keys=True).encode() + path.read_bytes()


class TestBlockDriver:
    @pytest.mark.parametrize("reps", [50, 53])
    @pytest.mark.parametrize("make_spec", [_uni_spec, _biv_spec], ids=["uni", "biv"])
    def test_reports_byte_identical_for_any_worker_count(self, make_spec, reps, tmp_path):
        spec = make_spec(reps=reps)
        blobs = [_report_bytes(run_experiment(spec, threads=t), tmp_path / f"qq{t}.csv")
                 for t in (1, 2, 3, 7)]
        assert blobs[1:] == blobs[:1] * 3

    def test_univariate_failure_named_on_three_workers(self, monkeypatch):
        # blocks [0, 27), [27, 54) and [54, 80): the second and third fail, and
        # the error names the lower replication whichever block fails first
        spec = _uni_spec(region=parse_region("[0,0.1]"), n=30, reps=80, cd="z")
        bad_means = {float(np.random.default_rng([7, r, 0]).standard_normal(30).mean())
                     for r in (53, 70)}
        real = cd_module.make_asymptotic_normal_cd

        def flaky(n, mean, sd):
            if bad_means.intersection(np.atleast_1d(mean).tolist()):
                raise ValueError("injected failure")
            return real(n, mean, sd)

        monkeypatch.setattr(cd_module, "make_asymptotic_normal_cd", flaky)
        with pytest.raises(ValueError, match=r"^replication rep=53 with seed \(7, 53, 0\) "
                                             r"failed: injected failure$"):
            run_experiment(spec, threads=3)

    @pytest.mark.parametrize("block_floats", [1, 4 * 40, simulate.BLOCK_FLOATS])
    @pytest.mark.parametrize("threads", [1, 2, 3, 7])
    @pytest.mark.parametrize("reps", [50, 53])
    def test_blocks_are_contiguous_and_bounded(self, monkeypatch, reps, threads, block_floats):
        seen = []
        real = simulate._block_pvalues

        def recording(spec, block):
            seen.append(block)
            return real(spec, block)

        monkeypatch.setattr(simulate, "_block_pvalues", recording)
        monkeypatch.setattr(simulate, "BLOCK_FLOATS", block_floats)
        spec = _uni_spec(reps=reps, n=40)
        want = run_experiment(spec).pvalues
        seen.clear()
        assert np.array_equal(run_experiment(spec, threads=threads).pvalues, want)
        blocks = sorted(seen, key=lambda block: block.start)
        assert [block.step for block in blocks] == [1] * len(blocks)
        assert [block.start for block in blocks] == [0] + [block.stop for block in blocks[:-1]]
        assert blocks[-1].stop == reps
        limit = min(max(1, block_floats // 40), -(-reps // threads))
        assert all(1 <= len(block) <= limit for block in blocks)

    # draws of sd 1e308 overflow; ``cd.sample_cd`` rejects the sample's mean
    # and sd before the t-CD's positive-sd check or the bootstrap CD's
    # non-finite-sample check
    @pytest.mark.parametrize("cd,moments", [("t", "mean=[-inf], sd=[nan]"),
                                            ("bootstrap", "mean=-inf, sd=nan")])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_draws_fail_on_the_sample_moments(self, cd, moments):
        spec = _uni_spec(region=parse_region("0"), n=20, reps=50, seed=0, sd=1e308, cd=cd)
        message = ("replication rep=0 with seed (0, 0, 0) failed: sample mean and sd must be "
                   f"finite, got {moments}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment(spec)


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

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cdsupport import (
    ConfidenceDistribution,
    make_asymptotic_normal_cd,
    make_bootstrap_cd,
    make_student_t_cd,
    sample_cd,
)

PHI_2 = 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))  # libm oracle for Phi(2)


def t_density(df):
    lognorm = (
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )
    return lambda x: math.exp(lognorm) * (1.0 + x * x / df) ** (-(df + 1) / 2)


def bisect_quantile(cd, p, lo=-50.0, hi=50.0):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cd.cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStudentT:
    def test_median_at_center(self):
        cd = make_student_t_cd(4, 0.0, 1.0)
        assert cd.cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_total_mass(self):
        cd = make_student_t_cd(4, 0.0, 1.0)
        assert cd.cdf(math.inf) == 1.0
        assert cd.cdf(-math.inf) == 0.0

    def test_cdf_against_quadrature(self):
        # independent adaptive quadrature of the t11 density over (-inf, sqrt(3)]
        cd = make_student_t_cd(12, 0.0, 2.0)
        z = math.sqrt(12) * (1.0 - 0.0) / 2.0
        body, err1 = integrate.quad(t_density(11), z, 60.0, epsabs=1e-14, limit=300)
        far_tail, err2 = integrate.quad(t_density(11), 60.0, np.inf)
        assert err1 + err2 < 1e-11
        assert abs(cd.cdf(1.0) - (1.0 - body - far_tail)) < 1e-10

    def test_df_and_scale(self):
        cd = make_student_t_cd(12, 0.5, 2.0)
        assert cd.df == 11
        assert cd.center == 0.5
        assert cd.scale == pytest.approx(2.0 / math.sqrt(12), rel=1e-15)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            make_student_t_cd(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            make_student_t_cd(4, 0.0, 0.0)
        with pytest.raises(ValueError):
            make_student_t_cd(4, 0.0, -1.0)


class TestAsymptoticNormal:
    def test_median_and_tail(self):
        cd = make_asymptotic_normal_cd(30, 0.0, 1.0)
        assert cd.cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_against_erf(self):
        cd = make_asymptotic_normal_cd(4, 0.0, 1.0)
        assert cd.cdf(1.0) == pytest.approx(PHI_2, abs=1e-14)

    def test_symmetry(self):
        cd = make_asymptotic_normal_cd(4, 0.0, 1.0)
        assert cd.cdf(-1.0) + cd.cdf(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_bad_sd(self):
        with pytest.raises(ValueError):
            make_asymptotic_normal_cd(4, 0.0, 0.0)


class TestBootstrap:
    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            make_bootstrap_cd(np.zeros(20), 200, seed=0)

    def test_small_inputs_rejected(self):
        with pytest.raises(ValueError):
            make_bootstrap_cd([1.0], 200, seed=0)
        with pytest.raises(ValueError):
            make_bootstrap_cd([1.0, 2.0], 50, seed=0)

    def test_inversion_identity(self):
        rng = np.random.default_rng(101)
        cd = make_bootstrap_cd(rng.standard_normal(200), 4000, seed=7)
        assert cd.cdf(cd.quantile(0.3)) == pytest.approx(0.3, abs=1e-9)

    def test_centered_near_half(self):
        rng = np.random.default_rng(42)
        sample = rng.standard_normal(200)
        cd = make_bootstrap_cd(sample, 4000, seed=11)
        assert abs(cd.cdf(sample.mean()) - 0.5) < 0.05

    def test_no_density(self):
        rng = np.random.default_rng(3)
        cd = make_bootstrap_cd(rng.standard_normal(50), 200, seed=1)
        with pytest.raises(ValueError, match="density"):
            cd.pdf(0.0)


BIG = np.array([1e200, -1e200, 2e200, -3e200, 1.5e200])  # finite, but their squares overflow


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [make_student_t_cd, make_asymptotic_normal_cd])
@pytest.mark.parametrize("mean,sd", [(np.inf, 1.0), (np.nan, 1.0), (0.0, np.inf),
                                     (np.array([0.0, np.inf]), np.array([1.0, 1.0])),
                                     (np.array([0.0, 1.0]), np.array([1.0, np.inf]))])
def test_location_scale_must_be_finite(make, mean, sd):
    with pytest.raises(ValueError, match="^sample mean and sd must be finite, got mean="):
        make(5, mean, sd)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bootstrap_spread_that_overflows_is_rejected():
    with pytest.raises(ValueError, match=r"^bootstrap mean and sd must be finite, got .*sd=inf"):
        make_bootstrap_cd(BIG, 200, seed=0)
    # every resampled mean of values near the largest float overflows
    with pytest.raises(ValueError, match=r"^bootstrap mean and sd must be finite, got mean=inf"):
        make_bootstrap_cd([1.7e308, 1.6e308, 1.75e308], 200, seed=0)


class TestQuantile:
    def test_median_is_center(self):
        for cd in (make_student_t_cd(7, 1.5, 2.0), make_asymptotic_normal_cd(9, 1.5, 2.0)):
            assert cd.quantile(0.5) == pytest.approx(1.5, abs=1e-12)

    def test_t_quantile_against_bisection(self):
        cd = make_student_t_cd(4, 0.0, 1.0)
        oracle = bisect_quantile(cd, 0.975)
        assert cd.quantile(0.975) == pytest.approx(oracle, abs=1e-9)
        # half the t3 upper quantile, since scale = 1/sqrt(4)
        assert cd.quantile(0.975) == pytest.approx(1.5912231526421316, abs=1e-9)

    def test_round_trip(self):
        for cd in (
            make_student_t_cd(4, 0.0, 1.0),
            make_asymptotic_normal_cd(25, -2.0, 3.0),
            make_bootstrap_cd(np.random.default_rng(5).standard_normal(100), 500, seed=2),
        ):
            assert cd.cdf(cd.quantile(0.123)) == pytest.approx(0.123, abs=1e-9)

    def test_rejects_levels_outside_open_interval(self):
        cd = make_student_t_cd(4, 0.0, 1.0)
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                cd.quantile(p)

    def test_rejects_nan_level_for_every_kind(self):
        for cd in (
            make_student_t_cd(4, 0.0, 1.0),
            make_asymptotic_normal_cd(25, -2.0, 3.0),
            make_bootstrap_cd(np.random.default_rng(5).standard_normal(100), 500, seed=2),
        ):
            for p in (np.nan, np.array([0.5, np.nan])):
                with pytest.raises(ValueError, match="strictly inside"):
                    cd.quantile(p)

    @given(st.floats(min_value=0.002, max_value=0.998))
    @settings(max_examples=60, deadline=None)
    def test_quantile_cdf_inverse_pair(self, p):
        cd = make_student_t_cd(6, 0.3, 1.7)
        theta = cd.quantile(p)
        assert abs(cd.cdf(theta) - p) <= 1e-12
        # and back through the other direction inside the central mass
        assert cd.quantile(cd.cdf(theta)) == pytest.approx(theta, rel=1e-9, abs=1e-9)


@given(
    st.tuples(
        st.floats(min_value=-8, max_value=8), st.floats(min_value=-8, max_value=8)
    )
)
@settings(max_examples=80, deadline=None)
def test_cdf_monotone_all_kinds(pair):
    lo, hi = sorted(pair)
    cds = (
        make_student_t_cd(5, 0.2, 1.1),
        make_asymptotic_normal_cd(16, -0.4, 2.0),
        make_bootstrap_cd(np.random.default_rng(9).standard_normal(80), 300, seed=4),
    )
    for cd in cds:
        assert cd.cdf(lo) <= cd.cdf(hi) + 1e-15


@pytest.mark.parametrize("method", ["cdf", "pdf"])
def test_nan_argument_rejected(method):
    for cd in (make_student_t_cd(5, 0.2, 1.1), make_asymptotic_normal_cd(16, -0.4, 2.0)):
        for theta in (np.nan, np.array([0.0, np.nan])):
            with pytest.raises(ValueError, match="must not be NaN"):
                getattr(cd, method)(theta)


def test_unknown_kind_rejected():
    # cdf and quantile evaluate every kind other than the bootstrap one with scipy
    with pytest.raises(ValueError, match="unknown CD kind"):
        ConfidenceDistribution(kind="exact-normal", center=0.0, scale=1.0)


# (kind, sample, boot_m, seed, message): each check fails while every later one would too
SAMPLE_CD_ERRORS = [
    ("student", [1.0], 10, -1, "unknown cd kind 'student'"),
    ("t", [1.0], 10, -1, "need at least 2 observations"),
    ("z", [1e200, -3e200], 10, -1,
     "sample mean and sd must be finite, got mean=-1e+200, sd=inf"),
    ("t", [1.0, 2.0], 10, -1, "need reps >= 100 bootstrap replicates, got 10"),
    ("z", [1.0, 2.0], 100, -1, "seed must be >= 0, got -1"),
    ("bootstrap", [[1.0, 2.0], [3.0, 5.0]], 100, 0, "a bootstrap CD takes one 1-D sample"),
    ("t", [[1.0, 2.0], [3.0, 3.0]], 100, 0,
     "sample sd must be positive, got [0.70710678 0.        ]"),
]


@pytest.mark.parametrize("kind,sample,boot_m,seed,message", SAMPLE_CD_ERRORS)
def test_sample_cd_checks_in_order(kind, sample, boot_m, seed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_cd(kind, sample, boot_m, seed)


def test_sample_cd_block_rows_equal_single_samples():
    y = np.random.default_rng(5).standard_normal((4, 9))
    for kind in ("t", "z"):
        block, mean, sd = sample_cd(kind, y, 100, 0)
        for row, center, scale, m, s in zip(y, block.center, block.scale, mean, sd):
            single, m1, s1 = sample_cd(kind, row, 100, 0)
            assert (single.center, single.scale, m1, s1) == (center, scale, m, s)


def test_exact_cd_uniform_at_truth():
    # H_n(theta0) across repeated sampling is Uniform[0,1] for the exact kind
    rng = np.random.default_rng(314)
    reps, n, theta0 = 2000, 20, 0.7
    vals = np.empty(reps)
    for r in range(reps):
        y = theta0 + rng.standard_normal(n)
        cd = make_student_t_cd(n, y.mean(), y.std(ddof=1))
        vals[r] = cd.cdf(theta0)
    vals.sort()
    i = np.arange(1, reps + 1)
    ks = max(np.max(i / reps - vals), np.max(vals - (i - 1) / reps))
    assert ks < 1.36 / math.sqrt(reps) + 0.02

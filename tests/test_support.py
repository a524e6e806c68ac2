import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from cdsupport import (
    bioeq_cd,
    bioeq_p,
    direct_support,
    extended_indirect_support,
    make_asymptotic_normal_cd,
    make_bootstrap_cd,
    make_student_t_cd,
    p_value,
    parse_region,
    weighted_indirect,
)
from cdsupport.regions import Interval
from helpers import (
    full_support,
    indirect_support,
    max_direct_p,
    p_max_uni,
    p_star,
    piece_full,
)


def phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


CD4 = make_asymptotic_normal_cd(4, 0.0, 1.0)  # scale 1/2, so [-1,1] spans +-2 sd


class TestDirectSupport:
    def test_median_split(self):
        for cd in (CD4, make_student_t_cd(7, 2.0, 1.3)):
            region = parse_region(f"(-inf,{cd.center}]")
            assert direct_support(cd, region) == pytest.approx(0.5, abs=1e-14)

    def test_interval_mass_against_erf(self):
        assert direct_support(CD4, parse_region("[-1,1]")) == pytest.approx(
            phi(2.0) - phi(-2.0), abs=1e-14
        )

    def test_singleton_mass_is_zero(self):
        assert direct_support(CD4, parse_region("0.3")) == 0.0


class TestIndirectSupport:
    def test_singleton_at_center(self):
        assert indirect_support(CD4, parse_region("0")) == pytest.approx(1.0, abs=1e-14)

    def test_interval_against_erf(self):
        assert indirect_support(CD4, parse_region("[-1,1]")) == pytest.approx(
            2.0 * phi(-2.0), abs=1e-14
        )

    def test_one_tailed_interval_is_zero(self):
        assert indirect_support(CD4, parse_region("(-inf,0]")) == 0.0


class TestWeightedIndirect:
    def test_balanced_at_center(self):
        assert weighted_indirect(CD4, 0.0, 0.5) == pytest.approx(1.0, abs=1e-14)

    @given(st.floats(min_value=-3, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_balanced_equals_indirect(self, theta0):
        region = parse_region(repr(theta0))
        assert weighted_indirect(CD4, theta0, 0.5) == pytest.approx(
            indirect_support(CD4, region), abs=1e-14
        )

    def test_skewed_weights(self):
        # min{Phi(-2)/0.25, Phi(2)/0.75} = 4 Phi(-2)
        assert weighted_indirect(CD4, -1.0, 0.25) == pytest.approx(
            4.0 * phi(-2.0), abs=1e-13
        )

    def test_gamma_validated(self):
        for g in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                weighted_indirect(CD4, 0.0, g)


class TestExtendedIndirect:
    def test_singleton_at_center_gives_one(self):
        assert extended_indirect_support(CD4, parse_region("0")) == pytest.approx(
            1.0, abs=1e-14
        )

    @pytest.mark.parametrize("theta0", [-1.7, -0.4, 0.9, 2.2])
    def test_matches_level_set_quadrature(self, theta0):
        # oracle: integrate the density over {theta : pdf(theta) <= pdf(theta0)},
        # which for these densities is the pair of tails beyond |theta0 - center|
        cd = make_student_t_cd(9, 0.25, 1.4)
        reach = abs(theta0 - cd.center)
        left, _ = integrate.quad(cd.pdf, -np.inf, cd.center - reach)
        right, _ = integrate.quad(cd.pdf, cd.center + reach, np.inf)
        got = extended_indirect_support(cd, parse_region(repr(theta0)))
        assert got == pytest.approx(left + right, abs=1e-8)
        assert got == pytest.approx(
            indirect_support(cd, parse_region(repr(theta0))), abs=1e-8
        )

    def test_interval_level_set(self):
        assert extended_indirect_support(CD4, parse_region("[-1,1]")) == pytest.approx(
            2.0 * phi(-2.0), abs=1e-13
        )

    def test_unbounded_region_gives_zero(self):
        assert extended_indirect_support(CD4, parse_region("(-inf,0]")) == 0.0

    def test_requires_density(self):
        cd = make_bootstrap_cd(np.random.default_rng(0).standard_normal(60), 200, seed=1)
        with pytest.raises(ValueError, match="density"):
            extended_indirect_support(cd, parse_region("0"))


class TestFullSupport:
    def test_half_line_reduces_to_direct(self):
        piece = Interval(-math.inf, 0.3)
        assert full_support(CD4, piece) == pytest.approx(CD4.cdf(0.3), abs=1e-14)

    def test_singleton_reduces_to_indirect(self):
        piece = Interval(0.4, 0.4)
        assert full_support(CD4, piece) == pytest.approx(
            indirect_support(CD4, parse_region("0.4")), abs=1e-15
        )

    def test_midpoint_interval_clamps_to_one(self):
        assert full_support(CD4, Interval(-1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)


class TestPValue:
    def test_singleton_at_center(self):
        assert p_value(CD4, parse_region("0")).p == pytest.approx(1.0, abs=1e-14)

    def test_combined_is_max_of_pieces(self):
        rep = p_value(CD4, parse_region("[0,0.1];[0.5,0.6];[1,1.1]"))
        assert len(rep.pieces) == 3
        assert rep.p == pytest.approx(max(piece_full(rep)), abs=1e-15)

    def test_bioeq_style_union(self):
        # half-line pieces carry no indirect support, so the union p-value is
        # the larger one-sided mass
        cd = make_student_t_cd(24, -2.287, 9.0)
        rep = p_value(cd, parse_region("(-inf,-16.51];[16.51,inf)"))
        assert rep.p == pytest.approx(
            max(cd.cdf(-16.51), 1.0 - cd.cdf(16.51)), abs=1e-15
        )


class TestPStar:
    def test_symmetric_two_piece_tie(self):
        assert p_star(CD4, parse_region("(-inf,-1];[1,inf)")) == pytest.approx(
            0.0, abs=1e-14
        )

    @given(st.floats(min_value=-2, max_value=2), st.floats(min_value=0.2, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_bioeq_form(self, center, gap):
        cd = make_asymptotic_normal_cd(9, center, 1.0)
        a, b = -gap, gap
        got = p_star(cd, parse_region(f"(-inf,{a}];[{b},inf)"))
        assert got == pytest.approx(abs(cd.cdf(a) - (1.0 - cd.cdf(b))), abs=1e-12)

    def test_single_piece_equals_p_value(self):
        region = parse_region("[-1,1]")
        assert p_star(CD4, region) == pytest.approx(p_value(CD4, region).p, abs=1e-15)


class TestPMaxUni:
    def test_center_on_boundary_gives_one(self):
        assert p_max_uni(CD4, parse_region("[0,1]")) == pytest.approx(1.0, abs=1e-14)

    def test_interval(self):
        assert p_max_uni(CD4, parse_region("[-1,1]")) == pytest.approx(
            max(phi(2.0) - phi(-2.0), 2.0 * phi(-2.0)), abs=1e-13
        )

    def test_singleton_reduces_to_indirect(self):
        assert p_max_uni(CD4, parse_region("0.3")) == pytest.approx(
            indirect_support(CD4, parse_region("0.3")), abs=1e-15
        )

    def test_whole_line_falls_back_to_direct(self):
        region = parse_region("(-inf,0];[0,inf)")  # merges to the whole line
        assert len(region.pieces) == 1
        assert p_max_uni(CD4, region) == pytest.approx(1.0, abs=1e-15)


def classical_t_pvalue(df, t):
    # textbook one-sided t-test p-value through the regularized incomplete beta
    x = df / (df + t * t)
    half = 0.5 * special.betainc(df / 2.0, 0.5, x)
    return half if t <= 0 else 1.0 - half


def test_one_sided_direct_matches_classical_t():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(3, 120))
        mean = float(rng.normal(0, 2))
        sd = float(rng.uniform(0.3, 3.0))
        theta0 = float(rng.normal(0, 2))
        cd = make_student_t_cd(n, mean, sd)
        got = direct_support(cd, parse_region(f"(-inf,{theta0}]"))
        want = classical_t_pvalue(n - 1, math.sqrt(n) * (theta0 - mean) / sd)
        assert abs(got - want) <= 1e-12


def interval_closed_form(n, ybar, s, a, b):
    rt = math.sqrt(n)
    if ybar < 0.5 * (a + b):
        return phi(rt * (ybar - a) / s) + phi(rt * (ybar - b) / s)
    return phi(rt * (a - ybar) / s) + phi(rt * (b - ybar) / s)


def test_interval_p_matches_closed_form():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(2, 400))
        ybar = float(rng.normal(0, 2))
        s = float(rng.uniform(0.2, 3.0))
        a, b = sorted(rng.normal(0, 2, size=2))
        cd = make_asymptotic_normal_cd(n, ybar, s)
        got = p_value(cd, parse_region(f"[{a},{b}]")).p
        assert abs(got - interval_closed_form(n, ybar, s, a, b)) <= 1e-10


@given(
    st.floats(min_value=-2, max_value=2),
    st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_dominance_over_variants(center, endpoints):
    cd = make_asymptotic_normal_cd(16, center, 1.0)
    endpoints = sorted(endpoints)
    pieces = ";".join(
        f"[{a},{b}]" for a, b in zip(endpoints[::2], endpoints[1::2]) if a < b
    )
    if not pieces:
        return
    region = parse_region(pieces)
    p = p_value(cd, region).p
    assert p >= max_direct_p(cd, region) - 1e-12
    assert p >= p_star(cd, region) - 1e-12


def _ks_uniform(vals):
    vals = np.sort(vals)
    i = np.arange(1, vals.size + 1)
    return max(np.max(i / vals.size - vals), np.max(vals - (i - 1) / vals.size))


def test_half_line_p_uniform_at_boundary_truth():
    # exactness of the one-sided mapping when the truth sits at the endpoint
    rng = np.random.default_rng(2718)
    reps, n, a = 2000, 25, 0.3
    pvals = np.empty(reps)
    region = parse_region(f"(-inf,{a}]")
    for r in range(reps):
        y = a + rng.standard_normal(n)
        cd = make_student_t_cd(n, y.mean(), y.std(ddof=1))
        pvals[r] = p_value(cd, region).p
    assert _ks_uniform(pvals) < 1.36 / math.sqrt(reps) + 0.02


def test_singleton_p_uniform_at_truth():
    rng = np.random.default_rng(979)
    reps, n, theta0 = 2000, 25, -0.4
    pvals = np.empty(reps)
    region = parse_region(repr(theta0))
    for r in range(reps):
        y = theta0 + rng.standard_normal(n)
        cd = make_student_t_cd(n, y.mean(), y.std(ddof=1))
        pvals[r] = p_value(cd, region).p
    assert _ks_uniform(pvals) < 1.36 / math.sqrt(reps) + 0.02


def test_consistency_outside_null():
    # truth half a population sd away from the region: sqrt(n) * 0.5 >= 7 se
    n = 200
    assert math.sqrt(n) * 0.5 >= 7.0
    rng = np.random.default_rng(555)
    region = parse_region("[0.5,1.5]")
    small = 0
    for _ in range(1000):
        y = rng.standard_normal(n)
        cd = make_student_t_cd(n, y.mean(), y.std(ddof=1))
        small += p_value(cd, region).p < 0.05
    assert small >= 990


class TestBioeq:
    def test_reference_summary(self):
        p = bioeq_p(12, 12, 80.272, 82.559, 83.623, -16.51, 16.51)
        assert p == pytest.approx(0.000479, abs=5e-5)

    def test_degrees_of_freedom(self):
        assert bioeq_cd(12, 12, 80.272, 82.559, 83.623).df == 22

    def test_symmetric_case_tails_equal(self):
        cd = bioeq_cd(10, 10, 5.0, 5.0, 4.0)
        p = bioeq_p(10, 10, 5.0, 5.0, 4.0, -1.0, 1.0)
        assert p == pytest.approx(cd.cdf(-1.0), abs=1e-15)
        assert cd.cdf(-1.0) == pytest.approx(1.0 - cd.cdf(1.0), abs=1e-14)

    def test_infinite_limits_vanish(self):
        assert bioeq_p(12, 12, 1.0, 0.0, 4.0, -math.inf, math.inf) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bioeq_p(12, 12, 1.0, 0.0, 4.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bioeq_p(1, 12, 1.0, 0.0, 4.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            bioeq_p(12, 12, 1.0, 0.0, 0.0, -1.0, 1.0)

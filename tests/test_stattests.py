"""Two-sample t and Wald statistic checks, including the worked
chick-weight example and self-consistency between raw and summary paths."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from fivedecision.distributions import Kind, cdf, quantile
from fivedecision.stattests import (
    DegenerateDataError,
    GroupSummary,
    TestResult,
    confidence_interval,
    two_sample_t,
    two_sample_t_raw,
    wald,
)

# Full-precision values for the diet 3 vs diet 2 comparison
# (10, 258.9, 65.2) vs (10, 205.6, 70.3), cross-checked with
# scipy.stats.ttest_ind_from_stats.
CHICK_T = 1.7579054325628478
CHICK_P = 0.09575610070933795
CHICK_SE = 30.320174801606928
CHICK_CI95 = (-10.400323504654594, 117.00032350465456)
CHICK_CI90 = (0.722888330251358, 105.87711166974861)

DIET3 = GroupSummary(10, 258.9, 65.2)
DIET2 = GroupSummary(10, 205.6, 70.3)

# p-values are tails, so they are compared relatively, far out.
P_VALUE_RTOL = 1e-10
PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


class TestGroupSummary:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupSummary(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            GroupSummary(5, 0.0, 0.0)
        with pytest.raises(ValueError):
            GroupSummary(5, 0.0, -1.0)
        with pytest.raises(ValueError):
            GroupSummary(5, math.nan, 1.0)

    def test_sd_whose_square_underflows(self):
        # Positive, but squares to 0.0: the pooled variance would be 0.
        with pytest.raises(ValueError, match="sd 1e-200 is too small"):
            GroupSummary(3, 0.0, 1e-200)
        assert GroupSummary(3, 0.0, 1e-160).sd**2 > 0


class TestTwoSampleSummary:
    def test_chick_weights_full_precision(self):
        r = two_sample_t(DIET3, DIET2)
        assert r.t_stat == pytest.approx(CHICK_T, abs=1e-12)
        assert r.p_two_sided == pytest.approx(CHICK_P, abs=1e-12)
        assert r.se == pytest.approx(CHICK_SE, abs=1e-12)
        assert r.estimate == pytest.approx(53.3, abs=1e-12)
        assert r.null.kind is Kind.STUDENT_T
        assert r.null.df == 18

    def test_chick_weights_display_precision(self):
        r = two_sample_t(DIET3, DIET2)
        assert round(r.t_stat, 2) == 1.76
        assert round(r.p_two_sided, 3) == 0.096

    def test_identical_groups(self):
        g = GroupSummary(10, 100.0, 10.0)
        r = two_sample_t(g, g)
        assert r.t_stat == 0.0
        assert r.p_two_sided == pytest.approx(1.0, abs=1e-12)

    def test_long_hand_pooled_variance(self):
        # Same quantities built with exact rational arithmetic and a
        # different operation order.
        a = GroupSummary(6, 1.3, 0.9)
        b = GroupSummary(8, 0.7, 1.1)
        s2 = (5 * Fraction(81, 100) + 7 * Fraction(121, 100)) / 12
        se2 = s2 * (Fraction(1, 6) + Fraction(1, 8))
        t_ref = float(Fraction(6, 10)) / math.sqrt(float(se2))
        r = two_sample_t(a, b)
        assert r.t_stat == pytest.approx(t_ref, abs=1e-12)
        assert r.null.df == 12

    def test_theta0_shift(self):
        r = two_sample_t(DIET3, DIET2, theta0=10.0)
        assert r.t_stat == pytest.approx((53.3 - 10.0) / CHICK_SE, abs=1e-12)

    @PROPERTY
    @given(
        n_a=st.integers(min_value=2, max_value=5_000_000),
        n_b=st.integers(min_value=2, max_value=5_000_000),
        diff=st.floats(min_value=-40.0, max_value=40.0),
    )
    def test_p_value_relative_to_scipy(self, n_a, n_b, diff):
        r = two_sample_t(GroupSummary(n_a, diff, 1.0), GroupSummary(n_b, 0.0, 1.0))
        ref = 2.0 * sps.t.sf(abs(r.t_stat), n_a + n_b - 2)
        assert r.p_two_sided == pytest.approx(ref, rel=P_VALUE_RTOL, abs=1e-300)

    def test_far_tail_p_value(self):
        # t = 67 on 18 df: the old 2 * (1 - cdf(|t|)) read 0.
        far = GroupSummary(10, 67.0 * math.sqrt(0.2), 1.0)
        r = two_sample_t(far, GroupSummary(10, 0.0, 1.0))
        assert r.t_stat == pytest.approx(67.0, rel=1e-14)
        ref = 2.0 * sps.t.sf(r.t_stat, 18)
        assert r.p_two_sided == pytest.approx(ref, rel=P_VALUE_RTOL, abs=0.0)

    def test_overflowing_estimate_rejected(self):
        lo, hi = GroupSummary(3, -1e308, 1.0), GroupSummary(3, 1e308, 1.0)
        with pytest.raises(ValueError, match="overflows .estimate -inf, se"):
            two_sample_t(lo, hi)

    def test_scipy_cross_check_unequal_n(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_a = int(rng.integers(3, 30))
            n_b = int(rng.integers(3, 30))
            xs_a = rng.normal(0.3, 1.2, n_a)
            xs_b = rng.normal(0.0, 0.8, n_b)
            r = two_sample_t_raw(xs_a, xs_b)
            ref = sps.ttest_ind(xs_a, xs_b, equal_var=True)
            assert r.t_stat == pytest.approx(float(ref.statistic), abs=1e-10)
            assert r.p_two_sided == pytest.approx(float(ref.pvalue), abs=1e-10)


class TestTwoSampleRaw:
    def test_equal_lists_give_zero(self):
        r = two_sample_t_raw([1, 2, 3], [1, 2, 3])
        assert r.t_stat == 0.0

    def test_matches_summary_construction(self):
        r_raw = two_sample_t_raw([0, 2], [1, 3])
        r_sum = two_sample_t(
            GroupSummary(2, 1.0, math.sqrt(2.0)), GroupSummary(2, 2.0, math.sqrt(2.0))
        )
        assert r_raw.t_stat == pytest.approx(r_sum.t_stat, abs=1e-12)
        assert r_raw.se == pytest.approx(r_sum.se, abs=1e-12)

    def test_matches_summary_path_random(self):
        rng = np.random.default_rng(5)
        xs_a = rng.uniform(0, 1, 20)
        xs_b = rng.uniform(0, 1, 20)
        r_raw = two_sample_t_raw(xs_a, xs_b)
        r_sum = two_sample_t(
            GroupSummary(20, float(np.mean(xs_a)), float(np.std(xs_a, ddof=1))),
            GroupSummary(20, float(np.mean(xs_b)), float(np.std(xs_b, ddof=1))),
        )
        assert r_raw.t_stat == pytest.approx(r_sum.t_stat, abs=1e-12)
        assert r_raw.p_two_sided == pytest.approx(r_sum.p_two_sided, abs=1e-12)

    def test_raw_and_summary_bit_identical(self):
        # Both groups summarize exactly, so the two paths must agree to
        # the last bit, not just to a tolerance.
        r_raw = two_sample_t_raw([1.0, 2.0, 3.0], [4.0, 6.0, 8.0], 0.5)
        r_sum = two_sample_t(GroupSummary(3, 2.0, 1.0), GroupSummary(3, 6.0, 2.0), 0.5)
        assert r_raw == r_sum

    def test_one_constant_group_is_fine(self):
        r = two_sample_t_raw([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
        assert math.isfinite(r.t_stat)

    def test_both_constant_groups_degenerate(self):
        with pytest.raises(DegenerateDataError):
            two_sample_t_raw([5.0, 5.0], [3.0, 3.0])

    def test_short_group_rejected(self):
        with pytest.raises(DegenerateDataError):
            two_sample_t_raw([1.0], [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            two_sample_t_raw([1.0, math.inf], [1.0, 2.0])


class TestWald:
    def test_standardized_effect(self):
        r = wald(2.5, 1.0, 0.0)
        assert r.t_stat == 2.5
        assert r.null.kind is Kind.STANDARD_NORMAL

    def test_zero_at_theta0(self):
        assert wald(1.7, 0.3, 1.7).t_stat == 0.0

    def test_plain_arithmetic(self):
        assert wald(-3.2, 0.8, -1.6).t_stat == pytest.approx(-2.0, abs=1e-15)

    def test_se_must_be_positive(self):
        for se in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                wald(1.0, se, 0.0)

    def test_far_tail_p_value(self):
        # 2 * (1 - cdf(9)) rounds to 0; the tail itself is 2.26e-19.
        p = wald(9.0, 1.0).p_two_sided
        assert p > 0.0
        assert p == pytest.approx(2.0 * sps.norm.sf(9.0), rel=P_VALUE_RTOL, abs=0.0)

    def test_underflowed_p_value(self):
        # The normal tail underflows to 0 past z ~ 38.5; its log-slope
        # must not turn that into a division by zero.
        assert wald(60.0, 1.0).p_two_sided == 0.0

    @PROPERTY
    @given(z=st.floats(min_value=-37.0, max_value=37.0))
    def test_p_value_relative_to_scipy(self, z):
        ref = 2.0 * sps.norm.sf(abs(z))
        assert wald(z, 1.0).p_two_sided == pytest.approx(ref, rel=P_VALUE_RTOL, abs=0.0)

    def test_overflowing_statistic_rejected(self):
        with pytest.raises(ValueError, match=r"estimate 1e\+300, se 1e-10"):
            wald(1e300, 1e-10)


class TestConfidenceInterval:
    def test_chick_intervals_full_precision(self):
        r = two_sample_t(DIET3, DIET2)
        lo95, hi95 = confidence_interval(r, 0.95)
        lo90, hi90 = confidence_interval(r, 0.90)
        assert lo95 == pytest.approx(CHICK_CI95[0], abs=1e-9)
        assert hi95 == pytest.approx(CHICK_CI95[1], abs=1e-9)
        assert lo90 == pytest.approx(CHICK_CI90[0], abs=1e-9)
        assert hi90 == pytest.approx(CHICK_CI90[1], abs=1e-9)

    def test_chick_intervals_display_precision(self):
        r = two_sample_t(DIET3, DIET2)
        lo95, hi95 = confidence_interval(r, 0.95)
        lo90, hi90 = confidence_interval(r, 0.90)
        assert (round(lo95, 1), round(hi95, 1)) == (-10.4, 117.0)
        assert (round(lo90, 1), round(hi90, 1)) == (0.7, 105.9)

    def test_nesting(self):
        r = wald(1.2, 0.7, 0.0)
        lo90, hi90 = confidence_interval(r, 0.90)
        lo95, hi95 = confidence_interval(r, 0.95)
        assert lo95 < lo90 < hi90 < hi95

    def test_membership_matches_quantile_rule(self):
        # theta0 inside the (1-alpha) interval exactly when |t| stays at
        # or below the 1-alpha/2 quantile.
        rng = np.random.default_rng(3)
        for _ in range(200):
            est = float(rng.normal(0, 2))
            se = float(rng.uniform(0.1, 3))
            theta0 = float(rng.normal(0, 2))
            alpha = float(rng.uniform(0.01, 0.4))
            r = wald(est, se, theta0)
            lo, hi = confidence_interval(r, 1.0 - alpha)
            inside = lo <= theta0 <= hi
            assert inside == (abs(r.t_stat) <= quantile(r.null, 1.0 - alpha / 2.0))

    def test_level_domain(self):
        r = wald(1.0, 1.0, 0.0)
        for level in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                confidence_interval(r, level)

    def test_level_whose_quantile_rounds_to_one(self):
        # (1 + level)/2 rounds to 1 for the largest double below 1.
        r = wald(1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match=r"level 0\.9999999999999999 is too close to 1"):
            confidence_interval(r, 0.9999999999999999)
        assert confidence_interval(r, 0.9999999999999998)[1] > 9.0


class TestInvariants:
    def test_result_internal_consistency(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            xs_a = rng.normal(0, 1, 12)
            xs_b = rng.normal(0.4, 1.5, 9)
            theta0 = float(rng.normal(0, 1))
            r = two_sample_t_raw(xs_a, xs_b, theta0)
            assert r.t_stat == pytest.approx(
                (r.estimate - theta0) / r.se, abs=1e-12
            )
            assert r.p_two_sided == pytest.approx(
                2.0 * (1.0 - cdf(r.null, abs(r.t_stat))), abs=1e-12
            )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(13)
        xs_a = rng.normal(3, 2, 15)
        xs_b = rng.normal(2, 2, 10)
        r1 = two_sample_t_raw(xs_a, xs_b)
        for c in (0.01, 3.0, 250.0):
            r2 = two_sample_t_raw(c * xs_a, c * xs_b)
            assert r2.t_stat == pytest.approx(r1.t_stat, rel=1e-10)
            assert r2.estimate == pytest.approx(c * r1.estimate, rel=1e-10)
            assert r2.se == pytest.approx(c * r1.se, rel=1e-10)
            lo1, hi1 = confidence_interval(r1, 0.95)
            lo2, hi2 = confidence_interval(r2, 0.95)
            assert lo2 == pytest.approx(c * lo1, rel=1e-9)
            assert hi2 == pytest.approx(c * hi1, rel=1e-9)

    def test_swap_antisymmetry(self):
        r_ab = two_sample_t(DIET3, DIET2)
        r_ba = two_sample_t(DIET2, DIET3)
        assert r_ba.t_stat == -r_ab.t_stat
        assert r_ba.estimate == -r_ab.estimate
        assert r_ba.p_two_sided == r_ab.p_two_sided

"""Two-sample t and Wald statistic checks, including the worked
chick-weight example and self-consistency between raw and summary paths."""

import math
import random
import re
import statistics
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from fivedecision import stattests
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

    @pytest.mark.parametrize("n", [2**53, 10**400, 10**5000], ids=["2**53", "10**400", "10**5000"])
    def test_group_size_beyond_the_df_rule(self, n):
        # The null is built before the pooled variance reads n as a float.
        with pytest.raises(ValueError) as exc:
            two_sample_t(GroupSummary(n, 0.0, 1.0), GroupSummary(10, 1.0, 1.0))
        df = "9007199254741000.0" if n == 2**53 else "inf"
        assert str(exc.value) == f"StudentT requires 0 < df <= 2**53, got {df}"

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

    def test_rejects_non_numbers(self):
        # The message names the first value float() refuses.
        with pytest.raises(ValueError, match="first group value must be a number, got 'a'"):
            two_sample_t_raw([1.0, "a", None], [1.0, 2.0])
        with pytest.raises(ValueError, match="second group value must be a number, got None"):
            two_sample_t_raw([1.0, 2.0], [1.0, 2.0, None])
        assert two_sample_t_raw(["1", 2, "3"], [4, 6, 8]) == two_sample_t_raw([1, 2, 3], [4, 6, 8])
        # A generator is read once into a list, so its value is named too.
        with pytest.raises(ValueError, match="^first group value must be a number, got 'a'$"):
            two_sample_t_raw((x for x in [1, "a", 3]), [1, 2])
        assert two_sample_t_raw(iter([1, 2, 3]), (x for x in [4, 6, 8])) == two_sample_t_raw(
            [1, 2, 3], [4, 6, 8]
        )

    def test_sd_beyond_the_float_range(self):
        # _moments raises OverflowError there, as statistics.stdev does; the
        # raw path reads that sd as inf, and two_sample_t refuses it.
        with pytest.raises(ValueError, match="^pooled variance overflows: the data spread is too large$"):
            two_sample_t_raw([1.7e308, -1.7e308], [0.0, 1.0])

    def test_mean_near_the_float_max(self):
        # Its sum 3.4e308 is past the float range, but the exact integers
        # hold it, and the mean is read once from them.
        assert stattests._moments([1.7e308, 1.7e308]) == (1.7e308, 0.0)
        with pytest.raises(ValueError, match=re.escape("estimate 1.7e+308, se 0.5")):
            two_sample_t_raw([1.7e308, 1.7e308], [0.0, 1.0])

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


def _is_nearest_float(x, exact):
    # No float lies closer to the exact value than x does.
    with mpmath.workprec(256):
        err = abs(x - exact)
        return err <= abs(math.nextafter(x, math.inf) - exact) and err <= abs(
            math.nextafter(x, -math.inf) - exact
        )


def _exact_sd(xs):
    mean = sum(map(Fraction, xs)) / len(xs)
    var = sum((Fraction(x) - mean) ** 2 for x in xs) / (len(xs) - 1)
    with mpmath.workprec(256):
        return mpmath.sqrt(mpmath.mpf(var.numerator) / var.denominator)


def _sample_sd_by_ratios(xs):
    # The integers taken from as_integer_ratio over the largest denominator:
    # the sd formula of _moments before it scaled by 2**k with math.ldexp.
    # Kept as the reference that the scaled formula must match bit for bit.
    ratios = [x.as_integer_ratio() for x in xs]
    scale = max(den for _, den in ratios)
    ms = [num * (scale // den) for num, den in ratios]
    n = len(ms)
    total = sum(ms)
    num = n * sum(m * m for m in ms) - total * total
    den = n * (n - 1) * scale * scale
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return (root << shift) / 1 if shift >= 0 else root / (1 << -shift)


def _sample_sd(xs):
    # The sd that _moments returns with the mean.
    return stattests._moments(xs)[1]


def _outcome(f, xs):
    # The float's hex, or the exception's type and message.
    try:
        return f(xs).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _sd_corpus(seed):
    rng = random.Random(seed)
    for _ in range(300):  # normal data at scales from 1e-300 to 1e300
        scale = 10.0 ** rng.uniform(-300, 300)
        yield [rng.gauss(0.0, 1.0) * scale for _ in range(rng.randint(2, 120))]
    for _ in range(300):  # random exponents, subnormal to near 2**1024
        yield [
            rng.choice((-1.0, 1.0)) * math.ldexp(rng.random(), rng.randint(-1074, 1024))
            for _ in range(rng.randint(2, 40))
        ]
    edges = (0.0, -0.0, 5e-324, -5e-324, 1.0, 1e-300, 1e300, 1.7e308, -1.7e308)
    for _ in range(300):  # zeros, repeats, and sds past the float range
        yield [rng.choice(edges) for _ in range(rng.randint(2, 12))]


# Finite floats over the whole range: ordinary data, subnormals, and
# magnitudes near 1e308, mixed within one list.
_ANY_MAGNITUDE = (
    st.floats(min_value=-1e300, max_value=1e300)
    | st.floats(min_value=-1e3, max_value=1e3)
    | st.floats(min_value=-2.2e-308, max_value=2.2e-308)
    | st.floats(min_value=1e307, max_value=1.7e308)
    | st.floats(min_value=-1.7e308, max_value=-1e307)
)


class TestSampleSd:
    # The raw path's sd is the correctly rounded square root of the exact
    # sample variance, on every Python version, and its mean the correctly
    # rounded exact mean.

    @PROPERTY
    @given(xs=st.lists(_ANY_MAGNITUDE, min_size=2, max_size=120))
    def test_correctly_rounded(self, xs):
        exact = _exact_sd(xs)
        try:
            mean, sd = stattests._moments(xs)
        except OverflowError:
            assert exact > sys.float_info.max
            return
        assert mean == float(sum(map(Fraction, xs)) / len(xs))
        assert _is_nearest_float(sd, exact)
        if sys.version_info >= (3, 11):
            assert sd.hex() == statistics.stdev(xs).hex()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_integer_ratio_formula(self, seed):
        for xs in _sd_corpus(seed):
            assert _outcome(_sample_sd, xs) == _outcome(_sample_sd_by_ratios, xs), xs

    @pytest.mark.parametrize(
        "xs",
        [
            [5e-324, 1e300, -1e300],  # 2**1126 * 1e300 overflows math.ldexp
            [5e-324, 1.7e308],
            [-1e-320, 0.0, 1e308, 3.0],
        ],
    )
    def test_groups_spanning_the_float_range(self, xs):
        sd = _sample_sd(xs)
        assert math.isfinite(sd)
        assert _is_nearest_float(sd, _exact_sd(xs))
        assert sd.hex() == _sample_sd_by_ratios(xs).hex()

    @pytest.mark.parametrize(
        "xs",
        [
            [5e-324, 1e-323, 2.5e-322, -4e-320],  # subnormals only
            [0.0, -0.0, 2.5, 0.0],
            [0.0, 0.0, 0.0],
            [-0.0, 1e-310],
            [3.0, 3.0, 3.0],
            [0.1 * i - 2.0 for i in range(100)],
        ],
    )
    def test_small_edges_and_a_long_group(self, xs):
        sd = _sample_sd(xs)
        assert _is_nearest_float(sd, _exact_sd(xs))
        assert sd.hex() == _sample_sd_by_ratios(xs).hex()

    def test_sample_where_python_3_10_rounds_twice(self):
        # The variance of 1, 1.5, 7 is 133/12 exactly.  Python 3.10's
        # statistics.stdev rounds it to a float before the square root and
        # returns 3.3291640592396967, one ulp above the nearest float; so
        # `decide --csv` printed se 2.509242175696937 there for these groups.
        xs = [1.0, 1.5, 7.0]
        assert _is_nearest_float(3.3291640592396963, _exact_sd(xs))
        assert _sample_sd(xs) == 3.3291640592396963
        r = two_sample_t_raw(xs, [2.0, 3.0])
        assert r.se == 2.5092421756969365
        assert r == two_sample_t(
            GroupSummary(3, math.fsum(xs) / 3, 3.3291640592396963),
            GroupSummary(2, 2.5, math.sqrt(0.5)),
        )

    def test_overflowing_sd_raises(self):
        # As statistics.stdev does: the sd of +-1.7e308 lies beyond the float range.
        with pytest.raises(OverflowError, match="integer division result too large for a float"):
            stattests._moments([1.7e308, -1.7e308])


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

    def test_rejects_non_finite_estimate_and_theta0(self):
        with pytest.raises(ValueError, match="estimate must be finite, got nan"):
            wald(math.nan, 1.0)
        with pytest.raises(ValueError, match="theta0 must be finite, got inf"):
            wald(1.0, 1.0, math.inf)

    def test_rejects_non_numbers(self):
        # What float() refuses, by ValueError or TypeError, is one
        # ValueError with the check's own message.
        with pytest.raises(ValueError, match="theta0 must be a number, got None"):
            wald(1.0, 1.0, theta0=None)
        with pytest.raises(ValueError, match="estimate must be a number, got 'abc'"):
            wald("abc", 1.0)
        with pytest.raises(ValueError, match=r"se must be a number, got \[1\]"):
            wald(1.0, [1])
        assert wald("2.5", "1") == wald(2.5, 1.0)

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

    def test_level_must_be_a_number(self):
        r = wald(1.0, 1.0, 0.0)
        for level in ("high", None, [0.95]):
            with pytest.raises(ValueError, match=re.escape(f"level must be a number, got {level!r}")):
                confidence_interval(r, level)

    def test_level_whose_quantile_rounds_to_one(self):
        # (1 + level)/2 rounds to 1 for the largest double below 1.
        r = wald(1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match=r"level 0\.9999999999999999 is too close to 1"):
            confidence_interval(r, 0.9999999999999999)
        assert confidence_interval(r, 0.9999999999999998)[1] > 9.0

    @pytest.mark.parametrize(
        "r, signs",
        [
            (wald(1.25, 0.5), (1.0, 1.0)),
            (two_sample_t(DIET3, DIET2), (1.0, 1.0)),
            (wald(-0.0, 1.0), (-1.0, 1.0)),
        ],
        ids=["wald", "t18", "wald-negative-zero"],
    )
    def test_level_whose_quantile_rounds_to_one_half(self, r, signs):
        # (1 + level)/2 rounds to 1/2, where the quantile is 0: the
        # interval is the point estimate, where a solve would not converge.
        # Its ends are estimate - 0*se and estimate + 0*se, so an estimate
        # of -0.0 gives (-0.0, +0.0); == cannot see the sign of a zero.
        ends = confidence_interval(r, 1e-300)
        assert ends == (r.estimate, r.estimate)
        assert tuple(math.copysign(1.0, end) for end in ends) == signs


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

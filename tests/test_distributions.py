"""Distribution layer checks: frozen references, scipy sweeps, and the
integration oracle for the t CDF."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from fivedecision import distributions
from fivedecision.distributions import (
    Kind,
    NullDistribution,
    cdf,
    density,
    quantile,
    standard_normal,
    student_t,
)

# Contract tolerances.
NORMAL_CDF_ATOL = 1e-12
T_CDF_ATOL = 1e-10
ROUNDTRIP_ATOL = 1e-9
SYMMETRY_ATOL = 1e-10
INTEGRATION_ATOL = 1e-8

ROUNDTRIP_DFS = [1, 2, 5, 18, 98, 124, 1000]

# Relative error bounds against scipy, for df from 0.5 to 1e7.
T_QUANTILE_RTOL = 1e-10
NORMAL_QUANTILE_RTOL = 1e-11
P_VALUE_RTOL = 1e-10
# Next to the median the quantile solves P(T > q) = 1 - p with 1 - p
# a few ulps below 0.5, where the tail is resolved only to ulp(0.5);
# so a quantile under ~1e-6 is held to an absolute bound instead.
QUANTILE_ATOL = 1e-15

# Seeded, deadline-free property runs: the same examples on every run.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)
DFS = st.floats(min_value=0.5, max_value=1e7)
TAILS = st.floats(min_value=1e-14, max_value=0.5, exclude_max=True)


class TestConstruction:
    def test_student_requires_positive_df(self):
        for df in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                student_t(df)

    def test_normal_rejects_df(self):
        with pytest.raises(ValueError):
            NullDistribution(Kind.STANDARD_NORMAL, df=5.0)

    def test_non_integer_df_accepted(self):
        d = student_t(17.4)
        assert 0.0 < cdf(d, 1.0) < 1.0


class TestNormalCdf:
    # scipy.stats.norm.cdf reference values.
    FROZEN = {
        0.54: 0.705401483784302,
        1.0: 0.8413447460685429,
        1.96: 0.9750021048517795,
        2.5: 0.9937903346742238,
        -0.5: 0.3085375387259869,
    }

    def test_frozen_values(self):
        d = standard_normal()
        for x, expected in self.FROZEN.items():
            assert cdf(d, x) == pytest.approx(expected, abs=NORMAL_CDF_ATOL)

    def test_half_at_zero(self):
        assert cdf(standard_normal(), 0.0) == 0.5

    def test_rounded_display_value(self):
        # Phi(0.54) prints as 0.7054 at four decimals.
        assert round(cdf(standard_normal(), 0.54), 4) == 0.7054

    def test_underflowed_tail(self):
        # erfc underflows to 0 past z ~ 38.5: the tail reads 0, not an error.
        assert cdf(standard_normal(), -40.0) == 0.0
        assert cdf(standard_normal(), 40.0) == 1.0


class TestStudentCdf:
    # scipy.stats.t.cdf reference values keyed by (df, t).
    FROZEN = {
        (18, 2.1009): 0.9749989203468428,
        (18, -1.0): 0.16528246563909216,
        (1, 2.0): 0.8524163823495667,
        (5, -3.3): 0.010737750149998988,
        (124, 1.9793): 0.9750011330230468,
        (1000, 0.75): 0.773284441403163,
    }

    def test_frozen_values(self):
        for (df, t), expected in self.FROZEN.items():
            assert cdf(student_t(df), t) == pytest.approx(expected, abs=T_CDF_ATOL)

    def test_half_at_zero(self):
        assert cdf(student_t(18), 0.0) == 0.5

    @pytest.mark.parametrize("t", [1e-170, 1e-300, 5e-324, -5e-324])
    def test_half_at_tiny_t(self, t):
        # t * t underflows to 0 from |t| ~ 1e-162 on; the tail must not
        # take the log of that 0.
        assert cdf(student_t(5), t) == 0.5

    def test_symmetry(self):
        d = student_t(7.5)
        for t in (0.1, 0.9, 2.2, 5.0, 11.0):
            assert cdf(d, -t) == pytest.approx(1.0 - cdf(d, t), abs=1e-14)

    def test_monotone_in_t(self):
        d = student_t(3)
        grid = np.linspace(-8.0, 8.0, 401)
        values = [cdf(d, t) for t in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_scipy_sweep_wide_df(self):
        # 300 seeded (df, t) pairs with df spanning nine decades; the
        # large-df end is where a naive prefactor loses accuracy.
        rng = np.random.default_rng(42)
        dfs = np.exp(rng.uniform(np.log(0.5), np.log(1e6), 300))
        ts = rng.normal(0.0, 3.0, 300)
        for df, t in zip(dfs, ts):
            mine = cdf(student_t(df), t)
            ref = float(stats.t.cdf(t, df))
            assert mine == pytest.approx(ref, abs=T_CDF_ATOL)

    @PROPERTY
    @given(df=DFS, t=st.floats(min_value=0.0, max_value=40.0))
    def test_lower_tail_relative_to_scipy(self, df, t):
        # cdf(-t) is the tail itself, never a difference of two numbers
        # near 1, so it holds relative accuracy far into the tail.
        ref = float(stats.t.sf(t, df))
        assert cdf(student_t(df), -t) == pytest.approx(ref, rel=P_VALUE_RTOL, abs=1e-300)

    def test_tail_where_t_squared_overflows(self):
        # At df=1e-3 the tail is still 0.35 at t = 1e160, where t * t
        # overflows and scipy's t.sf reads 0; mpmath is the oracle.
        df, t = 1e-3, 1e160
        x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
        ref = float(mpmath.betainc(df / 2, 0.5, 0, x, regularized=True) / 2)
        assert cdf(student_t(df), -t) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                cdf(student_t(5), bad)
            with pytest.raises(ValueError):
                cdf(standard_normal(), bad)


class TestQuantile:
    # scipy.stats.t.ppf / norm.ppf reference values.
    FROZEN_T = {
        (18, 0.975): 2.10092204024096,
        (18, 0.95): 1.7340636066175354,
        (124, 0.975): 1.9792801165796825,
        (98, 0.95): 1.6605512170440568,
        (1, 0.975): 12.706204736432095,
        (5, 0.975): 2.570581835636314,
        (1000, 0.975): 1.9623390808264074,
    }
    FROZEN_NORMAL = {
        0.975: 1.959963984540054,
        0.95: 1.6448536269514722,
        0.8: 0.8416212335729143,
    }

    def test_frozen_t_values(self):
        for (df, p), expected in self.FROZEN_T.items():
            assert quantile(student_t(df), p) == pytest.approx(expected, abs=1e-9)

    def test_frozen_normal_values(self):
        d = standard_normal()
        for p, expected in self.FROZEN_NORMAL.items():
            assert quantile(d, p) == pytest.approx(expected, abs=1e-9)

    def test_paper_display_precision(self):
        assert round(quantile(student_t(18), 0.975), 2) == 2.10
        assert round(quantile(student_t(18), 0.95), 2) == 1.73
        assert round(quantile(student_t(124), 0.975), 3) == 1.979
        assert round(quantile(student_t(98), 0.95), 3) == 1.661

    def test_median_is_exact_zero(self):
        assert quantile(student_t(3), 0.5) == 0.0
        assert quantile(standard_normal(), 0.5) == 0.0

    @pytest.mark.parametrize("df", ROUNDTRIP_DFS)
    def test_roundtrip_student(self, df):
        d = student_t(df)
        for p in np.arange(0.001, 0.9995, 0.001):
            p = float(p)
            assert abs(cdf(d, quantile(d, p)) - p) <= ROUNDTRIP_ATOL

    def test_roundtrip_normal(self):
        d = standard_normal()
        for p in np.arange(0.001, 0.9995, 0.001):
            p = float(p)
            assert abs(cdf(d, quantile(d, p)) - p) <= ROUNDTRIP_ATOL

    def test_mirror_symmetry(self):
        for d in (standard_normal(), student_t(1), student_t(18), student_t(240)):
            for p in (0.6, 0.75, 0.9, 0.975, 0.999):
                assert abs(quantile(d, 1.0 - p) + quantile(d, p)) <= SYMMETRY_ATOL

    def test_large_df_approaches_normal(self):
        big = student_t(1e6)
        norm = standard_normal()
        for p in np.linspace(0.01, 0.99, 50):
            p = float(p)
            assert abs(quantile(big, p) - quantile(norm, p)) <= 1e-3

    def test_domain_errors(self):
        d = student_t(10)
        for p in (0.0, 1.0, -0.2, 1.5, math.nan):
            with pytest.raises(ValueError):
                quantile(d, p)

    @pytest.mark.parametrize("p", [1e-17, 2.0**-54, 5e-324])
    def test_p_whose_complement_rounds_to_one(self, p):
        # The lower half is the mirror of 1 - p; the message names p, not 1.0.
        with pytest.raises(ValueError, match=re.escape(f"p {p!r} is too small: 1 - p rounds to 1")):
            quantile(standard_normal(), p)

    @PROPERTY
    @given(df=DFS, tail=TAILS)
    def test_student_relative_to_scipy(self, df, tail):
        # 1 - p, not the drawn tail: forming p = 1 - tail rounds.
        p = 1.0 - tail
        ref = float(stats.t.isf(1.0 - p, df))
        q = quantile(student_t(df), p)
        assert q == pytest.approx(ref, rel=T_QUANTILE_RTOL, abs=QUANTILE_ATOL)

    @PROPERTY
    @given(tail=TAILS)
    def test_normal_relative_to_scipy(self, tail):
        p = 1.0 - tail
        ref = float(stats.norm.isf(1.0 - p))
        q = quantile(standard_normal(), p)
        assert q == pytest.approx(ref, rel=NORMAL_QUANTILE_RTOL, abs=QUANTILE_ATOL)

    @pytest.mark.parametrize(
        "df, tail",
        [
            (0.0145, 1.7e-5),
            (0.02, 0.01),
            (0.05, 1e-6),
            (0.1, 1e-12),
            (0.3, 1e-14),
            (0.0499, 1.8e-16),
        ],
    )
    def test_small_df_relative_to_mpmath(self, df, tail):
        # scipy's t.sf reads 0 beyond t ~ 1e154, where these quantiles
        # lie; mpmath gives the relative error of q to first order.  At
        # the last point (q = 5.3e306) the density underflows to 0, while
        # the tail's log-slope stays finite.
        p = 1.0 - tail
        q = mpmath.mpf(quantile(student_t(df), p))
        half_df = mpmath.mpf(df) / 2
        x = df / (df + q * q)
        sf = mpmath.betainc(half_df, 0.5, 0, x, regularized=True) / 2
        norm = mpmath.sqrt(df) * mpmath.beta(half_df, 0.5)
        pdf = (1 + q * q / df) ** (-half_df - 0.5) / norm
        assert abs(float((sf - (1.0 - p)) / (q * pdf))) <= T_QUANTILE_RTOL

    def test_beyond_float_range_raises(self):
        # The 0.9 quantile at df=1e-3 is past 1e308; the old solver
        # returned a collapsed 4.24e152 here.
        with pytest.raises(OverflowError):
            quantile(student_t(1e-3), 0.9)

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(distributions, "_MAX_NEWTON", 1)
        with pytest.raises(ArithmeticError):
            quantile(student_t(18), 0.975)

    @pytest.mark.parametrize("df", [1e-300, 1e-74])
    def test_flat_tail_raises(self, df):
        # Next to 1/2 at tiny df the tail's rounding exceeds its distance
        # from 1/2, and a step can take x to 0, where the slope vanishes.
        with pytest.raises(ArithmeticError, match="did not converge"):
            quantile(student_t(df), 0.5 + 2.0**-53)


def _count_tail_calls(monkeypatch):
    calls = []
    tail = distributions._upper_tail

    def counted(d, t):
        calls.append(t)
        return tail(d, t)

    monkeypatch.setattr(distributions, "_upper_tail", counted)
    return calls


class TestSolverCost:
    @pytest.mark.parametrize("df", [1, 2, 5, 18, 98, 1e4, 1e6, 1e9, None])
    @pytest.mark.parametrize("alpha", [0.10, 0.05, 0.01, 0.005])
    def test_boundary_solves(self, monkeypatch, df, alpha):
        # The decision boundaries q(1 - a) and q(1 - a/2) at the usual alphas.
        d = standard_normal() if df is None else student_t(df)
        calls = _count_tail_calls(monkeypatch)
        for p in (1.0 - alpha, 1.0 - alpha / 2.0):
            calls.clear()
            quantile(d, p)
            assert len(calls) <= 7

    def test_small_df_far_tail(self, monkeypatch):
        # q = 1.1e293, about 970 binades above the Chernoff start.
        calls = _count_tail_calls(monkeypatch)
        q = quantile(student_t(0.05), 1.0 - 1e-15)
        assert 1e293 < q < 1.2e293
        assert len(calls) <= 6


SLOPE_DISTS = [standard_normal()] + [
    student_t(df) for df in (1e-3, 0.05, 0.5, 1, 2, 5, 18, 98, 1e4, 1e6, 1e9)
]
SLOPE_TS = [1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 1e2, 1e4, 1e10, 1e100]


def _name(d):
    return "normal" if d.df is None else f"t{d.df:g}"


class TestTailSlope:
    # The solver's Newton step reads the second value of _upper_tail, the
    # log-slope t * f(t) / P(T > t) of the tail.

    @pytest.mark.parametrize("d", SLOPE_DISTS, ids=_name)
    def test_matches_density(self, d):
        for t in SLOPE_TS:
            tail, slope = distributions._upper_tail(d, t)
            pdf = density(d, t)
            if min(tail, pdf) < 1e-290:  # subnormal: the reference loses digits
                continue
            assert slope == pytest.approx(t * pdf / tail, rel=1e-12)

    @pytest.mark.parametrize("d", SLOPE_DISTS, ids=_name)
    def test_never_decreases(self, d):
        # ln tail is concave in ln t, which keeps every Newton step after
        # the first at or above the root.
        top = 38.0 if d.kind is Kind.STANDARD_NORMAL else 1e300
        ts = [t for t in (10.0 ** (k / 10) for k in range(-40, 3001)) if t <= top]
        slopes = [distributions._upper_tail(d, t)[1] for t in ts]
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(slopes, slopes[1:]))

    def test_underflowed_normal_tail(self):
        assert distributions._upper_tail(standard_normal(), 40.0) == (0.0, math.inf)


class TestDensity:
    def test_normal_peak(self):
        # 1/sqrt(2*pi)
        assert density(standard_normal(), 0.0) == pytest.approx(
            0.3989422804014327, abs=1e-15
        )

    def test_normal_symmetry(self):
        d = standard_normal()
        assert density(d, 3.0) == density(d, -3.0)

    def test_student_frozen_value(self):
        # scipy.stats.t.pdf(1.0, 18)
        assert density(student_t(18), 1.0) == pytest.approx(
            0.2354023959763809, abs=1e-12
        )

    def test_matches_cdf_finite_difference(self):
        d = student_t(18)
        h = 1e-5
        fd = (cdf(d, 1.0 + h) - cdf(d, 1.0 - h)) / (2.0 * h)
        assert density(d, 1.0) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("d", [standard_normal(), student_t(1), student_t(18)])
    def test_integrates_to_one(self, d):
        total, _ = integrate.quad(
            lambda x: density(d, x), -np.inf, np.inf, epsabs=1e-10, epsrel=1e-10
        )
        assert total == pytest.approx(1.0, abs=INTEGRATION_ATOL)


class TestIntegrationOracle:
    def test_cdf_matches_adaptive_integration(self):
        # 50 seeded (df, t) points checked against quadrature of the
        # density, the independent route to the same number.
        rng = np.random.default_rng(7)
        for _ in range(50):
            df = float(np.exp(rng.uniform(np.log(1.0), np.log(500.0))))
            t = float(rng.normal(0.0, 2.5))
            d = student_t(df)
            ref, err = integrate.quad(
                lambda x: density(d, x), -np.inf, t, epsabs=1e-10, epsrel=1e-10
            )
            assert err < INTEGRATION_ATOL
            assert cdf(d, t) == pytest.approx(ref, abs=INTEGRATION_ATOL)

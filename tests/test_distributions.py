"""Distribution layer checks: frozen references, scipy sweeps, and the
integration oracle for the t CDF."""

import importlib
import itertools
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from fivedecision import distributions
from fivedecision.decisions import decision_regions, five_decision
from fivedecision.distributions import (
    Kind,
    NullDistribution,
    cdf,
    density,
    quantile,
    standard_normal,
    student_t,
)
from fivedecision.stattests import GroupSummary, confidence_interval, two_sample_t
from fivedecision.stattests import two_sample_t_raw, wald

BENCH = Path(__file__).resolve().parents[1] / "bench"

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


@pytest.fixture(autouse=True)
def cold_quantile_cache():
    # quantile keeps every solve per (null, p); the tests below patch the
    # solver and count its tail calls, so each one starts from no solves.
    distributions._upper_quantile.cache_clear()


class TestConstruction:
    def test_student_requires_positive_df(self):
        # One message for every df outside (0, 2**53], up to which every
        # integer df is exact.  At 1e308 the Pfaff fraction's m (b - m)
        # overflows and the tail would be nan.
        for df in (0.0, -1.0, math.nan, math.inf, 2.0**53 + 2, 1e17, 1e308):
            with pytest.raises(ValueError, match=re.escape(f"StudentT requires 0 < df <= 2**53, got {df!r}")):
                student_t(df)

    def test_df_must_be_a_number(self):
        # None keeps the domain message: it is how a Student t without df
        # is spelled.
        for df in ("many", {}):
            with pytest.raises(ValueError, match=re.escape(f"df must be a number, got {df!r}")):
                student_t(df)
        with pytest.raises(ValueError, match=re.escape("StudentT requires 0 < df <= 2**53, got None")):
            student_t(None)

    def test_normal_rejects_df(self):
        with pytest.raises(ValueError):
            NullDistribution(Kind.STANDARD_NORMAL, df=5.0)

    def test_non_integer_df_accepted(self):
        d = student_t(17.4)
        assert 0.0 < cdf(d, 1.0) < 1.0

    @pytest.mark.parametrize("t", [3.5, 5.0, 9.0, 20.0])
    def test_largest_df_tail_matches_scipy(self, t):
        df = 2.0**53
        assert cdf(student_t(df), -t) == pytest.approx(float(stats.t.sf(t, df)), rel=1e-11, abs=0.0)

    def test_benchmark_stream_stays_inside_the_df_domain(self, monkeypatch):
        # The analysis_stream tail draws n up to MAX_TAIL_N = 5e5 per group,
        # so its largest df is about 1.1e6, far below 2**53.
        monkeypatch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
        largest = 0
        for seed in (1, 11):
            for req in itertools.islice(workloads.analysis_requests(seed), 20000):
                if req[0] == "summary":
                    largest = max(largest, req[2] + req[5] - 2)
                elif req[0] == "raw":
                    largest = max(largest, len(req[2]) + len(req[3]) - 2)
        assert 1e5 < largest < 2e6


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

    def test_rejects_non_numbers(self):
        for bad in (None, "x", [1.0]):
            for d in (student_t(5), standard_normal()):
                for fn in (cdf, density):
                    with pytest.raises(ValueError, match=re.escape(f"t must be a number, got {bad!r}")):
                        fn(d, bad)
                with pytest.raises(ValueError, match=re.escape(f"p must be a number, got {bad!r}")):
                    quantile(d, bad)

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                cdf(student_t(5), bad)
            with pytest.raises(ValueError):
                cdf(standard_normal(), bad)
            for d in (student_t(5), standard_normal()):
                with pytest.raises(ValueError, match=f"t must be finite, got {bad!r}"):
                    density(d, bad)


# Each check of a value, and its message with {} for the +-inf that an int
# beyond the float range reads as.
BEYOND_FLOAT_RANGE = {
    "cdf-t": (lambda v: cdf(student_t(5), v), "t must be finite, got {}"),
    "cdf-normal": (lambda v: cdf(standard_normal(), v), "t must be finite, got {}"),
    "density-t": (lambda v: density(student_t(5), v), "t must be finite, got {}"),
    "density-normal": (lambda v: density(standard_normal(), v), "t must be finite, got {}"),
    "quantile-p": (lambda v: quantile(student_t(5), v), "p must lie in (0, 1), got {}"),
    "student_t-df": (student_t, "StudentT requires 0 < df <= 2**53, got {}"),
    "wald-estimate": (lambda v: wald(v, 1.0), "estimate must be finite, got {}"),
    "wald-se": (lambda v: wald(1.0, v), "se must be positive, got {}"),
    "wald-theta0": (lambda v: wald(1.0, 1.0, v), "theta0 must be finite, got {}"),
    "five_decision-t_stat": (
        lambda v: five_decision(v, standard_normal(), 0.05),
        "t_stat must be finite, got {}",
    ),
    "decision_regions-alpha": (
        lambda v: decision_regions(standard_normal(), v),
        "alpha must lie in (0, 0.5], got {}",
    ),
    "confidence_interval-level": (
        lambda v: confidence_interval(wald(1.0, 1.0), v),
        "level must lie in (0, 1), got {}",
    ),
    "two_sample_t_raw-first": (
        lambda v: two_sample_t_raw([1.0, v], [1.0, 2.0]),
        "first group contains non-finite values",
    ),
    "two_sample_t_raw-second": (
        lambda v: two_sample_t_raw([1.0, 2.0], [v, 2.0]),
        "second group contains non-finite values",
    ),
}


@pytest.mark.parametrize(
    "big", [10**400, -10**400, 10**5000], ids=["10**400", "-10**400", "10**5000"]
)
@pytest.mark.parametrize("check", BEYOND_FLOAT_RANGE)
def test_int_beyond_the_float_range_meets_the_rule(check, big):
    # Read as +-inf, as float("1e400") reads, it gets the rule's own
    # ValueError, never an OverflowError.  No message may show the int:
    # 10**5000 is past the int-to-str digit limit.
    call, message = BEYOND_FLOAT_RANGE[check]
    with pytest.raises(ValueError) as exc:
        call(big)
    assert str(exc.value) == message.format("inf" if big > 0 else "-inf")


def _mpmath_relative_error(d, p, q):
    # The tail residual at q over q times the density: q's relative error
    # to first order, from one tail evaluation instead of a root solve.
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        if d.df is None:
            tail = mpmath.erfc(q / mpmath.sqrt(2)) / 2
            pdf = mpmath.npdf(q)
        else:
            df = mpmath.mpf(d.df)
            tail = mpmath.betainc(df / 2, 0.5, 0, df / (df + q * q), regularized=True) / 2
            pdf = (1 + q * q / df) ** (-df / 2 - 0.5) / (mpmath.sqrt(df) * mpmath.beta(df / 2, 0.5))
        return float((tail - (1.0 - p)) / (q * pdf))


def _mpmath_t_tail(df, t):
    # P(T > t) = I_x(df/2, 1/2) / 2 at x = df/(df + t^2), to 40 digits.
    with mpmath.workdps(40):
        x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
        return float(mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, x, regularized=True) / 2)


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

    @pytest.mark.parametrize(
        "d", [standard_normal(), student_t(3), student_t(18)], ids=["normal", "t3", "t18"]
    )
    def test_p_whose_complement_rounds_to_one_half(self, d):
        # Just below 1/2, 1 - p rounds to 1/2: the quantile is the
        # median's mirror, -0.0, where a solve for 1/2 would not converge.
        q = quantile(d, 0.5 - 2.0**-54)
        assert q == 0.0 and math.copysign(1.0, q) == -1.0

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
        d = student_t(df)
        assert abs(_mpmath_relative_error(d, p, quantile(d, p))) <= T_QUANTILE_RTOL

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


def _name(d):
    return "normal" if d.df is None else f"t{d.df:g}"


def _count_tail_calls(monkeypatch):
    # The null of every tail evaluation, in order.
    calls = []
    tail = distributions._upper_tail

    def counted(d, t):
        calls.append(d.kind)
        return tail(d, t)

    monkeypatch.setattr(distributions, "_upper_tail", counted)
    return calls


class TestSolverCost:
    # Tail evaluations per solve, counted for each null apart: from df 4 on
    # a t solve starts at the Cornish-Fisher value, which reads the normal
    # quantile at the same p.

    @pytest.mark.parametrize(
        "df", [1, 2, 3.99, 4, 5, 10, 18, 30, 98, 999, 1e3, 1e4, 1e6, 1e9, 2.0**53, None]
    )
    @pytest.mark.parametrize("alpha", [0.10, 0.05, 0.01, 0.005])
    def test_boundary_solves(self, monkeypatch, df, alpha):
        # The decision boundaries q(1 - a) and q(1 - a/2) at the usual alphas:
        # the normal from a cold cache, t with the normal entry cached, as it
        # is after the first region set at this alpha.  A solve returns as
        # soon as Newton's estimated error is below 5e-17, without the
        # evaluation that would only confirm a tiny step.
        d = standard_normal() if df is None else student_t(df)
        bound = 5 if df is None else 4 if df < 4 else 3 if df < 10 else 2 if df < 98 else 1
        calls = _count_tail_calls(monkeypatch)
        for p in (1.0 - alpha, 1.0 - alpha / 2.0):
            if df is not None:
                quantile(standard_normal(), p)
            calls.clear()
            quantile(d, p)
            assert set(calls) == {d.kind}
            assert len(calls) <= bound

    def test_cold_t_solve_solves_the_normal_once(self, monkeypatch):
        calls = _count_tail_calls(monkeypatch)
        quantile(student_t(18), 0.975)
        assert 1 <= calls.count(Kind.STANDARD_NORMAL) <= 5
        assert 1 <= calls.count(Kind.STUDENT_T) <= 2
        assert distributions._upper_quantile.cache_info().currsize == 2

    def test_small_df_far_tail(self, monkeypatch):
        # q = 1.1e293, about 970 binades above the Chernoff start.
        calls = _count_tail_calls(monkeypatch)
        q = quantile(student_t(0.05), 1.0 - 1e-15)
        assert 1e293 < q < 1.2e293
        assert 1 <= len(calls) <= 6


# Every fifth df of the grid 10**(k/20), k = -60..200, and the normal, by
# every other tail of 10**(-j/4), j = 2..63, plus tails near 1/2 and 1.1e-16.
GRID_DISTS = [student_t(10.0 ** (k / 20)) for k in range(-60, 201, 5)] + [standard_normal()]
GRID_TAILS = [10.0 ** (-j / 4) for j in range(2, 64, 2)] + [
    0.5 - 1.1e-16,
    0.5 - 1e-12,
    0.4999,
    0.45,
    0.3,
    0.25,
    0.2,
    1.11e-16,
]


def _solve(d, p):
    try:
        return quantile(d, p)
    except ArithmeticError as exc:
        return type(exc), str(exc)


class TestCornishFisherStart:
    def test_expansion_tracks_the_t_quantile(self):
        # Four terms in 1/df, so the start is off by ~df**-5: 3.1e-4 relative
        # at df 4 (q = 2.776), 1.5e-8 at df 30 and 5.7e-16 at df 1e3.
        z = quantile(standard_normal(), 0.975)
        for df, rel in ((4, 5e-4), (30, 3e-8), (1e3, 2e-15)):
            start = distributions._cornish_fisher(df, z)
            assert start == pytest.approx(float(stats.t.isf(0.025, df)), rel=rel)

    @pytest.mark.parametrize("d", GRID_DISTS, ids=_name)
    def test_never_costs_more_than_the_chernoff_start(self, monkeypatch, d):
        # The same outcome as a solve from the Chernoff start, and no more
        # Student t tail evaluations, over a thinned copy of the grid.
        calls = _count_tail_calls(monkeypatch)
        for tail in GRID_TAILS:
            p = 1.0 - tail
            distributions._upper_quantile.cache_clear()
            quantile(standard_normal(), p)
            calls.clear()
            new = _solve(d, p)
            new_calls = calls.count(Kind.STUDENT_T)
            distributions._upper_quantile.cache_clear()
            with monkeypatch.context() as m:
                m.setattr(distributions, "_CF_MIN_DF", math.inf)
                calls.clear()
                old = _solve(d, p)
                old_calls = calls.count(Kind.STUDENT_T)
            assert new_calls <= old_calls
            if isinstance(old, tuple) or isinstance(new, tuple):
                assert new == old
            else:
                assert new == pytest.approx(old, rel=1e-12, abs=1e-15 if old < 1e-6 else 0.0)


@pytest.mark.parametrize("d", GRID_DISTS, ids=_name)
def test_grid_quantiles_match_mpmath(d):
    # Every quantile of the grid that does not raise, to 1e-12 relative,
    # leaving out the tails within 1e-4 of 1/2, where the error is absolute.
    for tail in GRID_TAILS:
        if tail >= 0.5 - 1e-4:
            continue
        p = 1.0 - tail
        try:
            q = quantile(d, p)
        except ArithmeticError:
            continue
        assert abs(_mpmath_relative_error(d, p, q)) <= 1e-12, (tail, q)


class TestQuantileCache:
    def test_repeat_solves_nothing(self, monkeypatch):
        d = student_t(18)
        calls = _count_tail_calls(monkeypatch)
        first = quantile(d, 0.975)
        assert calls
        calls.clear()
        assert quantile(d, 0.975).hex() == first.hex()
        assert calls == []

    def test_mirror_shares_the_entry(self, monkeypatch):
        d = standard_normal()
        calls = _count_tail_calls(monkeypatch)
        upper = quantile(d, 0.95)
        assert calls
        calls.clear()
        assert quantile(d, 1.0 - 0.95) == -upper
        assert calls == []
        assert distributions._upper_quantile.cache_info().currsize == 1

    def test_bounded(self):
        d = standard_normal()
        info = distributions._upper_quantile.cache_info
        for k in range(info().maxsize + 100):
            quantile(d, 0.9 + k * 1e-5)
        assert info().currsize == info().maxsize == 1024

    def test_errors_are_not_cached(self, monkeypatch):
        d = student_t(1e-3)
        calls = _count_tail_calls(monkeypatch)
        for _ in range(2):
            calls.clear()
            with pytest.raises(OverflowError):
                quantile(d, 0.9)
            assert calls
        assert distributions._upper_quantile.cache_info().currsize == 0

    @pytest.mark.parametrize("alpha", [0.1, 0.05, 0.01, 0.005])
    def test_intervals_reuse_the_region_boundaries(self, monkeypatch, alpha):
        # At these round levels 1 - a and 1 - 2a name the same upper
        # quantiles, 1 - a/2 and 1 - a, that a cold decision_regions has
        # just solved.  Not at every alpha: at 0.003, 0.08 or 0.09 one of
        # 0.5 * (1 + level) rounds to a neighbouring float.  Both caches are
        # cleared for each null: the t solves warm the normal entries.
        results = [
            two_sample_t(GroupSummary(10, 205.6, 65.2), GroupSummary(10, 258.9, 70.3)),
            wald(1.3, 0.4),
        ]
        calls = _count_tail_calls(monkeypatch)
        for r in results:
            decision_regions.cache_clear()
            distributions._upper_quantile.cache_clear()
            calls.clear()
            regions = decision_regions(r.null, alpha)
            assert calls
            calls.clear()
            wide = confidence_interval(r, 1.0 - alpha)
            narrow = confidence_interval(r, 1.0 - 2.0 * alpha)
            assert calls == []
            _, _, q3, q4 = regions.boundaries
            assert (wide, narrow) == (r.interval(q4), r.interval(q3))


class TestPerDfCaches:
    # student_t interns one null per df, and the t tail and density read
    # their df-only constants from one cache per df.

    def test_one_null_per_df(self):
        assert student_t(18) is student_t(18.0) is student_t(np.int64(18))
        assert student_t(18) == NullDistribution(Kind.STUDENT_T, 18.0)

    def test_one_normal_null(self):
        assert standard_normal() is standard_normal()
        fresh = NullDistribution(Kind.STANDARD_NORMAL)
        assert standard_normal() == fresh
        assert hash(standard_normal()) == hash(fresh)
        assert repr(standard_normal()) == repr(fresh)

    @pytest.mark.parametrize(
        "df, message",
        [
            ([18], "df must be a number, got [18]"),
            ("x", "df must be a number, got 'x'"),
            (0, "StudentT requires 0 < df <= 2**53, got 0.0"),
            (math.nan, "StudentT requires 0 < df <= 2**53, got nan"),
            (2**53 + 2, "StudentT requires 0 < df <= 2**53, got 9007199254740994.0"),
            (10**400, "StudentT requires 0 < df <= 2**53, got inf"),
        ],
    )
    def test_refused_df_keeps_its_message_and_is_not_cached(self, df, message):
        info = distributions._interned_t.cache_info
        size = info().currsize
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                student_t(df)
            assert str(exc.value) == message
        assert info().currsize == size

    @pytest.mark.parametrize("cache", ["_interned_t", "_t_constants"])
    def test_bounded(self, cache):
        info = getattr(distributions, cache).cache_info
        for k in range(info().maxsize + 100):
            cdf(student_t(1.0 + k / 8), 1.5)
        assert info().currsize == info().maxsize == 1024

    def test_tail_unchanged_after_a_clear(self):
        points = [(df, t) for df in (0.5, 3.0, 18.0, 1e6) for t in (0.0, 0.7, 3.2, 40.0)]
        first = [distributions._upper_tail(student_t(df), t) for df, t in points]
        distributions._interned_t.cache_clear()
        distributions._t_constants.cache_clear()
        again = [distributions._upper_tail(student_t(df), t) for df, t in points]
        assert [(a.hex(), b.hex()) for a, b in first] == [(a.hex(), b.hex()) for a, b in again]


SLOPE_DISTS = [standard_normal()] + [
    student_t(df) for df in (1e-3, 0.05, 0.5, 1, 2, 5, 18, 98, 1e4, 1e6, 1e9)
]
SLOPE_TS = [1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 1e2, 1e4, 1e10, 1e100]


class TestLgammaHalfShift:
    # lgamma(a + 1/2) - lgamma(a) scales every t tail, and the complement
    # form just below the Pfaff switch multiplies its error by up to ~300.

    def test_stirling_branch_matches_mpmath(self):
        # 400 log-spaced a from the branch start, 20, to df/2 at df 2**53.
        with mpmath.workdps(40):
            for a in np.logspace(np.log10(20.0), 52 * np.log10(2.0), 400):
                a = float(a)
                ref = mpmath.loggamma(mpmath.mpf(a) + 0.5) - mpmath.loggamma(a)
                got = distributions._lgamma_half_shift(a)
                assert got == pytest.approx(float(ref), rel=1e-15, abs=0.0)

    def test_recurrence_branch_matches_mpmath(self):
        # 400 linearly spaced a from 1 up to the Stirling branch, reached by
        # f(a) = f(a + 1) - log1p(1/(2a)); the error that matters to the
        # tail is absolute, as the prefactor is exp(f).
        with mpmath.workdps(40):
            for a in np.linspace(1.0, 20.0, 400, endpoint=False):
                a = float(a)
                ref = mpmath.loggamma(mpmath.mpf(a) + 0.5) - mpmath.loggamma(a)
                assert distributions._lgamma_half_shift(a) == pytest.approx(float(ref), rel=0.0, abs=1.2e-15)

    def test_tail_below_df_40_matches_mpmath(self):
        # A 40 by 12 log grid of df 1 to 40 by tails 1e-4 to 3e-2, t from
        # scipy's t.isf: there the complement form multiplies the
        # prefactor's error by up to ~300, and a direct lgamma difference
        # put tails 2.5e-12 off.
        for df in np.logspace(0.0, np.log10(40.0), 40):
            df = float(df)
            for tail in np.logspace(-4.0, np.log10(3e-2), 12):
                t = float(stats.t.isf(tail, df))
                assert cdf(student_t(df), -t) == pytest.approx(_mpmath_t_tail(df, t), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("df, t", [(290.0, 3.003), (367.84, 3.0057), (196.3, 3.0053)])
    def test_tail_below_the_pfaff_switch(self, df, t):
        # Tails near 1.5e-3, read from the complement form; a direct
        # lgamma difference in the prefactor puts them up to 7e-11 off.
        assert cdf(student_t(df), -t) == pytest.approx(_mpmath_t_tail(df, t), rel=1e-11, abs=0.0)


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


class TestSeries:
    # Below the Pfaff switch the complement form sums 2F1(a + 1/2, 1; 3/2;
    # 1 - x) term by term.

    def test_matches_mpmath(self):
        # 45 log-spaced df from 0.01 to 1e9 by 1 - x up to the Pfaff switch,
        # where large df leaves the complement form.
        with mpmath.workdps(30):
            for df in np.logspace(-2, 9, 45):
                a = float(df) / 2
                switch = min(0.5, 4.5 / (a + 2.5))
                for x in np.linspace(0.0, switch, 12)[1:]:
                    x = min(float(x), math.nextafter(switch, 0.0))
                    ref = mpmath.hyp2f1(a + 0.5, 1, 1.5, x)
                    assert distributions._series(a, x) == pytest.approx(float(ref), rel=2e-15, abs=0.0)

    def test_unconverged_raises(self):
        # Far past the Pfaff switch the terms grow for ~1e7 steps; the
        # term cap stops the sum and the error names the arguments.
        with pytest.raises(ArithmeticError, match=re.escape("(a=100000000.0, x=0.2)")):
            distributions._series(1e8, 0.2)

    @pytest.mark.parametrize("df", [0.05, 1, 4, 8, 12, 30, 100, 196.3, 1000])
    def test_tail_on_both_sides_of_each_switch(self, df):
        # Tails at 1 - x a millionth below and above the Pfaff switch, where
        # the complement form's error is largest.
        a = df / 2
        switch = min(0.5, 4.5 / (a + 2.5))
        for xc in (switch * (1.0 - 1e-6), switch * (1.0 + 1e-6)):
            t = math.sqrt(df * xc / (1.0 - xc))
            ref = _mpmath_t_tail(df, t)
            assert distributions._upper_tail(student_t(df), t)[0] == pytest.approx(ref, rel=5e-12, abs=0.0)

    @pytest.mark.parametrize(
        "df, t, rel",
        [
            (13.5, 3.55, 1e-12),
            (30.0, 3.2, 1e-12),
            (34.30469286314919, 3.172943779132195, 1e-12),
            (28.48035868435802, 3.222268317942446, 1e-12),
            (486.0, 2.965, 1.3e-12),
            (739.0722033525775, 2.97767369372533, 1.3e-12),
        ],
    )
    def test_readme_worst_points(self, df, t, rel):
        # The points README names for its two 100 x 100 grids (df 1 to 100
        # and 100 to 1000 by tails 1e-4 to 3e-2), at its bounds for them.
        ref = _mpmath_t_tail(df, t)
        assert distributions._upper_tail(student_t(df), t)[0] == pytest.approx(ref, rel=rel, abs=0.0)


def test_unconverged_continued_fraction_raises():
    # Far from any x that the t tail reaches, 500 iterations do not
    # settle, and the error names the arguments.
    with pytest.raises(ArithmeticError, match=re.escape("(a=0.5, x=-1000000000000.0)")):
        distributions._fraction(0.5, -1e12)


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

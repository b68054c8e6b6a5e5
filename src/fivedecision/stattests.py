"""Realized test statistics and confidence intervals.

Covers the two-sample pooled t-test, from raw observations or from
per-group summary statistics, and the Wald statistic for an estimate
with a known standard error.  Every result carries its null
distribution so that decision rules and intervals can be derived from
the same object.  From raw observations each group's mean, and the square
root of its exact sample variance, are correctly rounded on every Python
version.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Sequence

from .distributions import NullDistribution, student_t
from .distributions import _NORMAL, _Checked, _check_finite, _check_int, _check_null
from .distributions import _check_positive, _number, _upper_quantile, _upper_tail

__all__ = [
    "DegenerateDataError",
    "GroupSummary",
    "TestResult",
    "two_sample_t",
    "two_sample_t_raw",
    "wald",
    "confidence_interval",
]


class DegenerateDataError(ValueError):
    """Data admits no test statistic (zero degrees of freedom or zero
    spread).  Kept distinct from plain ValueError so the command line
    can map it to its own exit code."""


class GroupSummary(_Checked, namedtuple("GroupSummary", "n mean sd")):
    """Size, mean, and sample standard deviation of one group."""

    __slots__ = ()

    def __new__(cls, n: int, mean: float, sd: float):
        n = _check_int(n, "group size", 2)
        mean = _check_finite(mean, "mean")
        sd = _check_positive(sd, "sd")
        if sd * sd == 0.0:
            # The pooled variance would be 0 and the data look degenerate.
            raise ValueError(f"sd {sd!r} is too small: its square underflows to 0")
        return super().__new__(cls, n, mean, sd)


class TestResult(namedtuple("TestResult", "t_stat null p_two_sided estimate se")):
    """The statistic, its NullDistribution and two-sided p-value, and the
    estimate with its standard error."""

    __slots__ = ()
    __test__ = False  # not a pytest test class despite the name

    def interval(self, q: float) -> tuple[float, float]:
        """The theta0 at which the statistic equals q and -q: the test
        inverted at quantile q, estimate -+ q*se."""
        return (self.estimate - q * self.se, self.estimate + q * self.se)


def _result(estimate: float, se: float, theta0: float, null: NullDistribution) -> TestResult:
    t_stat = (estimate - theta0) / se
    if not math.isfinite(t_stat):
        raise ValueError(f"the test statistic overflows (estimate {estimate!r}, se {se!r})")
    p = 2.0 * _upper_tail(null, abs(t_stat))[0]
    return TestResult(t_stat, null, p, estimate, se)


def two_sample_t(a: GroupSummary, b: GroupSummary, theta0: float = 0.0) -> TestResult:
    """Pooled two-sample t-test from summary statistics.

    The estimate is mean_a - mean_b.  Pooled variance
    s2 = ((n_a-1)sd_a^2 + (n_b-1)sd_b^2) / (n_a+n_b-2) and
    SE = s*sqrt(1/n_a + 1/n_b); with equal group sizes this reduces to
    the familiar sqrt(n/2)*(mean_a-mean_b)/s form.  The null is
    Student t with n_a + n_b - 2 degrees of freedom.
    """
    theta0 = _check_finite(theta0, "theta0")
    (n_a, mean_a, sd_a), (n_b, mean_b, sd_b) = a, b
    df = n_a + n_b - 2
    null = student_t(df)  # first, so the df rule refuses a group size of 10**400
    pooled_var = ((n_a - 1) * (sd_a * sd_a) + (n_b - 1) * (sd_b * sd_b)) / df
    if not math.isfinite(pooled_var):
        raise ValueError("pooled variance overflows: the data spread is too large")
    if pooled_var <= 0:
        raise DegenerateDataError("no within-group variance in either group")
    se = math.sqrt(pooled_var) * math.sqrt(1.0 / n_a + 1.0 / n_b)
    return _result(mean_a - mean_b, se, theta0, null)


def two_sample_t_raw(
    xs_a: Sequence[float], xs_b: Sequence[float], theta0: float = 0.0
) -> TestResult:
    """Pooled two-sample t-test from raw observations.

    Summarizes each group and computes the same statistic as
    two_sample_t.  Each group needs at least 2 observations and at
    least one group nonzero within-group variance; otherwise raises
    DegenerateDataError.
    """
    summaries = []
    for label, xs in (("first", xs_a), ("second", xs_b)):
        values = list(xs)
        try:
            xs = list(map(float, values))
        except (TypeError, ValueError, OverflowError):
            # Name the first value float() refuses; a too-large int reads as +-inf.
            xs = [_number(x, f"{label} group value") for x in values]
        if len(xs) < 2:
            raise DegenerateDataError(f"{label} group needs at least 2 observations")
        if not all(map(math.isfinite, xs)):
            raise ValueError(f"{label} group contains non-finite values")
        try:
            mean, sd = _moments(xs)
        except OverflowError:
            # An sd past the float range: two_sample_t refuses inf, mean unread.
            mean, sd = math.nan, math.inf
        summaries.append((len(xs), mean, sd))
    return two_sample_t(summaries[0], summaries[1], theta0)


def _moments(xs: list[float]) -> tuple[float, float]:
    """Mean and sample sd of finite floats, each correctly rounded.

    Each x is m * 2**-k over one common k, so the mean sum(m) / n * 2**-k
    and the variance (n*sum(m*m) - sum(m)**2) / (n*(n-1)) * 4**-k are exact
    in integers.  The mean is one int / int division.  The variance's root
    is rounded to odd at 109 bits, then once to the float: the method of
    statistics.stdev from Python 3.11 (3.10's rounds the variance to a
    float first, and can land one ulp off).

    k is 53 minus the binary exponent of the smallest nonzero |x|, so
    every x * 2**k is an integer-valued float, formed by math.ldexp.  When
    that overflows (the group spans more than about 970 binades) the
    integers come from as_integer_ratio over the largest denominator
    instead.  Any common k scales each ratio's two integers alike, which
    leaves every bit of both results, and every OverflowError, the same.
    """
    n = len(xs)
    tiny = min(filter(None, map(abs, xs)), default=0.0)
    k = 53 - math.frexp(tiny)[1] if tiny else 0
    try:
        ms = list(map(int, map(math.ldexp, xs, itertools.repeat(k, n))))
    except OverflowError:
        ratios = [x.as_integer_ratio() for x in xs]
        scale = max(den for _, den in ratios)  # every denominator is a power of two
        ms = [num * (scale // den) for num, den in ratios]
        k = scale.bit_length() - 1
    total = sum(ms)
    mean = total / (n << k) if k >= 0 else (total << -k) / n
    num = n * sum(map(operator.mul, ms, ms)) - total * total
    den = n * (n - 1)
    shift = (num.bit_length() - den.bit_length() - 2 * k - 109) // 2
    if k + shift >= 0:
        den <<= 2 * (k + shift)
    else:
        num <<= -2 * (k + shift)
    root = math.isqrt(num // den)
    root |= root * root * den != num
    # int / int rounds once, and past the float range raises OverflowError
    # with the message of statistics.stdev.
    return mean, ((root << shift) / 1 if shift >= 0 else root / (1 << -shift))


def wald(estimate: float, se: float, theta0: float = 0.0) -> TestResult:
    """Wald statistic (estimate - theta0)/se with a standard normal null."""
    estimate = _check_finite(estimate, "estimate")
    se = _check_positive(se, "se")
    theta0 = _check_finite(theta0, "theta0")
    return _result(estimate, se, theta0, _NORMAL)


def confidence_interval(r: TestResult, level: float) -> tuple[float, float]:
    """Symmetric two-sided interval at the given level: r.interval(q).

    q is the quantile at 0.5 * (1 + level).  At levels 1 - a and 1 - 2a
    for round alphas such as 0.1, 0.05, 0.01 and 0.005 that is the
    decision boundary q_{1-a/2} or q_{1-a} to the bit, and each solve is
    kept per (null, p), so those intervals solve nothing more; at other
    alphas (0.003, 0.08, 0.09) one of the two points rounds differently
    and is solved anew, up to about 1e-12 away.
    """
    level = _number(level, "level")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    if 1.0 + level == 2.0:
        raise ValueError(f"level {level!r} is too close to 1: (1 + level)/2 rounds to 1")
    # The level checks keep p in [1/2, 1), so the upper quantile is read
    # directly.
    _check_null(r.null)
    q = _upper_quantile(r.null, 0.5 * (1.0 + level))
    return r.interval(q)

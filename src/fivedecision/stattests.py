"""Realized test statistics and confidence intervals.

Covers the two-sample pooled t-test, from raw observations or from
per-group summary statistics, and the Wald statistic for an estimate
with a known standard error.  Every result carries its null
distribution so that decision rules and intervals can be derived from
the same object.  From raw observations each group's sd is the correctly
rounded square root of its exact sample variance, on every Python
version, and its mean is math.fsum(xs) / n.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .distributions import NullDistribution, cdf, quantile, standard_normal, student_t

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


@dataclass(frozen=True)
class GroupSummary:
    """Size, mean, and sample standard deviation of one group."""

    n: int
    mean: float
    sd: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"group size must be at least 2, got {self.n}")
        if not (math.isfinite(self.mean) and math.isfinite(self.sd)):
            raise ValueError("mean and sd must be finite")
        if self.sd <= 0:
            raise ValueError(f"sd must be positive, got {self.sd}")
        if self.sd * self.sd == 0.0:
            # The pooled variance would be 0 and the data look degenerate.
            raise ValueError(f"sd {self.sd!r} is too small: its square underflows to 0")


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest test class despite the name

    t_stat: float
    null: NullDistribution
    p_two_sided: float
    estimate: float
    se: float


def _result(estimate: float, se: float, theta0: float, null: NullDistribution) -> TestResult:
    t_stat = (estimate - theta0) / se
    if not math.isfinite(t_stat):
        raise ValueError(f"the test statistic overflows (estimate {estimate!r}, se {se!r})")
    p = 2.0 * cdf(null, -abs(t_stat))
    return TestResult(t_stat=t_stat, null=null, p_two_sided=p, estimate=estimate, se=se)


def _pooled_t(
    a: tuple[int, float, float], b: tuple[int, float, float], theta0: float
) -> TestResult:
    """Pooled t of group a minus group b, each given as (n, mean, sd)
    with n >= 2."""
    if not math.isfinite(theta0):
        raise ValueError("theta0 must be finite")
    (n_a, mean_a, sd_a), (n_b, mean_b, sd_b) = a, b
    df = n_a + n_b - 2
    pooled_var = ((n_a - 1) * (sd_a * sd_a) + (n_b - 1) * (sd_b * sd_b)) / df
    if not math.isfinite(pooled_var):
        raise ValueError("pooled variance overflows: the data spread is too large")
    if pooled_var <= 0:
        raise DegenerateDataError("no within-group variance in either group")
    se = math.sqrt(pooled_var) * math.sqrt(1.0 / n_a + 1.0 / n_b)
    return _result(mean_a - mean_b, se, theta0, student_t(df))


def two_sample_t(a: GroupSummary, b: GroupSummary, theta0: float = 0.0) -> TestResult:
    """Pooled two-sample t-test from summary statistics.

    The estimate is mean_a - mean_b.  Pooled variance
    s2 = ((n_a-1)sd_a^2 + (n_b-1)sd_b^2) / (n_a+n_b-2) and
    SE = s*sqrt(1/n_a + 1/n_b); with equal group sizes this reduces to
    the familiar sqrt(n/2)*(mean_a-mean_b)/s form.  The null is
    Student t with n_a + n_b - 2 degrees of freedom.
    """
    return _pooled_t((a.n, a.mean, a.sd), (b.n, b.mean, b.sd), theta0)


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
        xs = [float(x) for x in xs]
        if len(xs) < 2:
            raise DegenerateDataError(f"{label} group needs at least 2 observations")
        if not all(math.isfinite(x) for x in xs):
            raise ValueError(f"{label} group contains non-finite values")
        summaries.append((len(xs), math.fsum(xs) / len(xs), _sample_sd(xs)))
    return _pooled_t(summaries[0], summaries[1], theta0)


def _sample_sd(xs: list[float]) -> float:
    """Sample standard deviation of finite floats, correctly rounded.

    Each x is m * 2**-e over one common e, so the sample variance is
    (n*sum(m*m) - sum(m)**2) / (n*(n-1)) * 2**(-2*e) exactly, in integers.
    Its square root is rounded to odd at 109 bits, then once to the float:
    the method of statistics.stdev from Python 3.11 (3.10's rounds the
    variance to a float first, and can land one ulp off).
    """
    ratios = [x.as_integer_ratio() for x in xs]
    scale = max(den for _, den in ratios)  # every denominator is a power of two
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
    # int / int rounds once, and past the float range raises OverflowError
    # with the message of statistics.stdev.
    return (root << shift) / 1 if shift >= 0 else root / (1 << -shift)


def wald(estimate: float, se: float, theta0: float = 0.0) -> TestResult:
    """Wald statistic (estimate - theta0)/se with a standard normal null."""
    if not (math.isfinite(estimate) and math.isfinite(theta0)):
        raise ValueError("estimate and theta0 must be finite")
    if not (math.isfinite(se) and se > 0):
        raise ValueError(f"se must be positive and finite, got {se!r}")
    return _result(estimate, se, theta0, standard_normal())


def confidence_interval(r: TestResult, level: float) -> tuple[float, float]:
    """Symmetric two-sided interval estimate +- q*se at the given level."""
    level = float(level)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly between 0 and 1, got {level!r}")
    if 1.0 + level == 2.0:
        raise ValueError(f"level {level!r} is too close to 1: (1 + level)/2 rounds to 1")
    q = quantile(r.null, 0.5 * (1.0 + level))
    return (r.estimate - q * r.se, r.estimate + q * r.se)

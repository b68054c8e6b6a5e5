"""Null distributions for test statistics: standard normal and Student t.

CDF, quantile and density, free of dependencies.  One private function
returns every tail probability P(T > t), t >= 0, to relative accuracy,
with its log-slope t f(t) / P(T > t): from ``math.erfc`` for the normal,
from a continued fraction for the incomplete beta function for Student t.
A quantile for p > 1/2 solves tail(q) = 1 - p by Newton steps in ln q from
the Chernoff bound, in 4-6 tail evaluations at alphas 0.005 to 0.1 and at
most 21 over df 1e-3 to 1e10; one for p < 1/2 is its negated mirror.  It
raises OverflowError when the quantile lies beyond the float range
(Student t at small df) and ArithmeticError when it does not converge.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

__all__ = [
    "Kind",
    "NullDistribution",
    "standard_normal",
    "student_t",
    "cdf",
    "quantile",
    "density",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_SQRT_PI = 0.5 * math.log(math.pi)  # lgamma(0.5)

# Quantile solver: stop once a step moves x by less than this fraction.
_REL_TOL = 4e-12
_MAX_NEWTON = 200
_MAX_FLOAT = sys.float_info.max


class Kind(enum.Enum):
    STANDARD_NORMAL = "StandardNormal"
    STUDENT_T = "StudentT"


@dataclass(frozen=True)
class NullDistribution:
    """Distribution of a test statistic when the parameter sits at the
    tested value.  ``df`` is present exactly when ``kind`` is Student t."""

    kind: Kind
    df: float | None = None

    def __post_init__(self) -> None:
        if self.kind is Kind.STUDENT_T:
            if self.df is None or not math.isfinite(self.df) or self.df <= 0:
                raise ValueError(f"StudentT requires df > 0, got {self.df!r}")
        elif self.df is not None:
            raise ValueError("df is only meaningful for StudentT")


def standard_normal() -> NullDistribution:
    return NullDistribution(Kind.STANDARD_NORMAL)


def student_t(df: float) -> NullDistribution:
    return NullDistribution(Kind.STUDENT_T, float(df))


def _lgamma_half_shift(a: float) -> float:
    # lgamma(a + 1/2) - lgamma(a).  The direct difference of two lgamma
    # calls carries ~a*log(a)*eps of absolute error, which breaks the
    # CDF tolerance once df reaches ~1e5, so switch to a Stirling
    # difference there.  Both branches agree to ~1e-15 at a=200.
    if a < 200.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    d = 0.5 * math.log(a) + a * math.log1p(0.5 / a) - 0.5
    d -= 1.0 / (24.0 * a * (a + 0.5))
    d += (a**-3 - (a + 0.5) ** -3) / 360.0
    return d


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction of I_x(a, b), i.e. of 2F1(a + b, 1; a + 1; x),
    # by modified Lentz.  Converges in a few dozen iterations for the
    # (a, b, x) reachable from the t tail, including its Pfaff form with
    # b = 1/2 - a and x < 0; 500 is a hard safety stop.
    maxit = 500
    eps = 1e-15
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, maxit + 1):
        m2 = 2 * m
        even = m * (b - m) / (qam + m2) * (x / (a + m2))
        odd = -(a + m) / (a + m2) * ((qab + m) / (qap + m2)) * x
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def _beta_logs(t: float, df: float) -> tuple[float, float]:
    # ln x and ln(1 - x) for x = df/(df + t^2) = 1/(1 + u^2), u = |t|/sqrt(df),
    # formed from u so that nothing overflows; ln(1 - x) is -inf at u = 0.
    u = abs(t) / math.sqrt(df)
    if u < 1.0:
        ln_x = -math.log1p(u * u)
        return ln_x, (2.0 * math.log(u) + ln_x if u > 0.0 else -math.inf)
    ln_u = math.log(u) if u < math.inf else math.log(abs(t)) - 0.5 * math.log(df)
    ln_xc = -math.log1p(1.0 / (u * u))
    return ln_xc - 2.0 * ln_u, ln_xc


def _upper_tail(d: NullDistribution, t: float) -> tuple[float, float]:
    # P(T > t) for t >= 0, to relative accuracy, and the log-slope
    # t * f(t) / P(T > t) (+inf where the tail underflows).  For Student t
    # the tail is 0.5 * I_x(a, 1/2), a = df/2, and t * f(t) is `front`.
    # Near the median I_x is 1 - I_{1-x}(1/2, a), whose fraction converges
    # fast there but loses digits as the tail shrinks; so from three times
    # the textbook switch point 1 - x = (b + 1)/(a + b + 2) (tails < ~1e-3),
    # or from 1 - x = 1/2, I_x is read from its Pfaff transform in -x/(1 - x),
    # whose terms are all positive, and the slope is not divided by the tail.
    if d.kind is Kind.STANDARD_NORMAL:
        tail = 0.5 * math.erfc(t / _SQRT2)
        return tail, (t * _INV_SQRT_2PI * math.exp(-0.5 * t * t) / tail if tail else math.inf)
    a, b = 0.5 * d.df, 0.5
    ln_x, ln_xc = _beta_logs(t, d.df)
    front = math.exp(_lgamma_half_shift(a) - _LN_SQRT_PI + a * ln_x + b * ln_xc)
    xc = math.exp(ln_xc)
    if xc >= 0.5 or xc * (a + b + 2.0) >= 3.0 * (b + 1.0):
        cf = _betacf(a, 1.0 - b - a, -math.exp(ln_x - ln_xc))
        return 0.5 * front * cf / (a * xc), 2.0 * a * xc / cf
    tail = 0.5 * (1.0 - front * _betacf(b, a, xc) / b)
    return tail, front / tail


def cdf(d: NullDistribution, t: float) -> float:
    """P(T <= t) under the null distribution ``d``."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    return _upper_tail(d, -t)[0] if t < 0.0 else 1.0 - _upper_tail(d, t)[0]


def density(d: NullDistribution, t: float) -> float:
    """Probability density of ``d`` at ``t``."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if d.kind is Kind.STANDARD_NORMAL:
        return _INV_SQRT_2PI * math.exp(-0.5 * t * t)
    df = d.df
    ln_c = _lgamma_half_shift(0.5 * df) - _LN_SQRT_PI - 0.5 * math.log(df)
    return math.exp(ln_c + 0.5 * (df + 1.0) * _beta_logs(t, df)[0])


def quantile(d: NullDistribution, p: float) -> float:
    """Value q with cdf(d, q) = p, for 0 < p < 1.

    Symmetry is built in: quantile(p) for p below one half is computed
    as the negated mirror, so quantile(p) == -quantile(1 - p) exactly.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p!r}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        if 1.0 - p == 1.0:
            raise ValueError(f"p {p!r} is too small: 1 - p rounds to 1")
        return -quantile(d, 1.0 - p)

    # Newton steps on ln tail against ln x, concave for both nulls: from the
    # Chernoff start every step after the first lands at or above the root.
    target = 1.0 - p
    x = math.sqrt(-2.0 * math.log(2.0 * target))
    for _ in range(_MAX_NEWTON):
        tail, slope = _upper_tail(d, x)
        if x == _MAX_FLOAT and tail > target:
            raise OverflowError(f"the quantile at p={p!r}, df={d.df!r} exceeds the float range")
        if slope == 0.0:  # at df < ~1e-15 the tail's rounding near 1/2 can swamp its slope
            raise ArithmeticError(f"quantile at p={p!r} did not converge: the tail is flat at {x!r}")
        step = math.log1p((tail - target) / target) / slope
        nxt = min(x * math.exp(min(step, 709.0)), _MAX_FLOAT)  # exp(709) is finite
        if abs(nxt - x) <= _REL_TOL * x:
            return nxt
        x = nxt
    raise ArithmeticError(f"quantile at p={p!r} did not converge in {_MAX_NEWTON} steps")

"""Null distributions for test statistics: standard normal and Student t.

Provides the cumulative distribution function, quantile function, and
density used everywhere else in the package, free of dependencies.  One
private function computes every tail probability P(T > t), t >= 0, to
relative accuracy: ``math.erfc`` for the normal and, for Student t, the
regularized incomplete beta function by a modified Lentz continued
fraction, with x = df/(df + t^2) and 1 - x formed in logs (t^2 never
is).  ``cdf`` and the p-values read it directly.  A quantile for p > 1/2
solves tail(q) = 1 - p by bracket doubling and Newton steps, and one for
p < 1/2 is its negated mirror.  The solver raises OverflowError when the
quantile lies beyond the float range (Student t at small df) and
ArithmeticError when it does not converge.
"""

from __future__ import annotations

import enum
import math
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


def _upper_tail(d: NullDistribution, t: float) -> float:
    # P(T > t) for t >= 0, to relative accuracy.  For Student t this is
    # 0.5 * I_x(a, 1/2) with a = df/2.  Near the median it is read as
    # 0.5 * (1 - I_{1-x}(1/2, a)), whose fraction converges in a few
    # steps there but loses digits as the tail shrinks.  So from three
    # times the textbook switch point 1 - x = (b + 1)/(a + b + 2) (tails
    # below ~1e-3), or from 1 - x = 1/2, I_x is read from its Pfaff
    # transform in -z = -x/(1 - x), whose terms are all positive: nothing
    # cancels even where x rounds to 1.
    if d.kind is Kind.STANDARD_NORMAL:
        return 0.5 * math.erfc(t / _SQRT2)
    a, b = 0.5 * d.df, 0.5
    ln_x, ln_xc = _beta_logs(t, d.df)
    front = math.exp(_lgamma_half_shift(a) - _LN_SQRT_PI + a * ln_x + b * ln_xc)
    xc = math.exp(ln_xc)
    if xc >= 0.5 or xc * (a + b + 2.0) >= 3.0 * (b + 1.0):
        return 0.5 * front * _betacf(a, 1.0 - b - a, -math.exp(ln_x - ln_xc)) / (a * xc)
    return 0.5 * (1.0 - front * _betacf(b, a, xc) / b)


def cdf(d: NullDistribution, t: float) -> float:
    """P(T <= t) under the null distribution ``d``."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    return _upper_tail(d, -t) if t < 0.0 else 1.0 - _upper_tail(d, t)


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
        return -quantile(d, 1.0 - p)

    # Solve _upper_tail(x) = tail, exact as 1 - p for p >= 1/2, in the
    # bracket [lo, hi]: lo starts at the median and hi doubles until
    # its tail drops to the target.
    tail = 1.0 - p
    lo, hi = 0.0, 1.0
    while _upper_tail(d, hi) > tail:
        lo, hi = hi, 2.0 * hi
        if hi == math.inf:
            raise OverflowError(f"the quantile at p={p!r}, df={d.df!r} exceeds the float range")

    x = 0.5 * (lo + hi)
    for _ in range(_MAX_NEWTON):
        fx = _upper_tail(d, x) - tail
        if fx > 0.0:
            lo = x
        else:
            hi = x
        pdf = density(d, x)
        nxt = x + fx / pdf if pdf > 0.0 else 0.5 * (lo + hi)  # density underflow
        if abs(nxt - x) <= _REL_TOL * x:
            return nxt
        x = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"quantile at p={p!r} did not converge in {_MAX_NEWTON} steps")

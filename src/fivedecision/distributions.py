"""Null distributions for test statistics: standard normal and Student t.

CDF, quantile and density, free of dependencies.  One private function
returns every tail probability P(T > t), t >= 0, to relative accuracy,
with its log-slope t f(t) / P(T > t): from ``math.erfc`` for the normal,
and for Student t from the incomplete beta function, as a hypergeometric
series near the median and the continued fraction of its Pfaff transform
beyond the switch between them.
A quantile for p > 1/2 solves tail(q) = 1 - p by Newton steps in ln q,
and returns once Newton's own estimate of the error left after a step is
below half a unit in the last place.  Student t from df 4 on starts at the
Cornish-Fisher expansion about the normal quantile, and takes 1-3 tail
evaluations at alphas 0.005 to 0.1 (at most 2 from df 8 on, 1 from df 70
on); the normal and smaller df start at the Chernoff bound, and take 3-5
there.  Over df 1e-3 to 1e10 crossed with 70 tails a t solve takes a
median of 1 and at most 21; one for p < 1/2 is its negated mirror.
It raises OverflowError when the quantile lies beyond the float range
(Student t at small df) and ArithmeticError when it does not converge.
Each solve is kept per (null, p) in a bounded cache, and Student t takes
0 < df <= 2**53.  student_t returns one interned null per df, and the t
tail and density read their df-only constants (df/2, sqrt(df) and the
log of the tail's prefactor) from one cache per df; both hold 1024.

Every module checks its input with the private checks below, so each
rule (number, finite, positive, integer, probability, null) has one
ValueError message:

    {name} must be a number, got {value!r}
    {name} must be finite, got {value!r}
    {name} must be positive, got {value!r}
    {name} must be an integer, got {value!r}
    {name} must be at least {low}, got {value}
    {name} must lie in (0, 1), got {value!r}
    {name} {value!r} is too small: 1 - {name} rounds to 1
    null must be a NullDistribution, got {value!r}

The number checks convert by one _number, which reads an int beyond the
float range as +-inf, as float("1e400") does, so the rule's range message
refuses it; the "at least" message prints such an int as -inf too.  cdf,
density, quantile and decisions.decision_regions check their null before
they read it or look it up in a cache.

The checked records (NullDistribution here, and those of stattests, power
and simulation) derive from _Checked, whose one _make runs their checks
however they are built.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import sys
from collections import namedtuple

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

# Quantile solver: stop once a step in ln x is below _QUAD_STEP and
# |g''/g'| step^2, twice the error Newton leaves after it, is at most
# _QUAD_TOL.
_QUAD_STEP = 1e-3
_QUAD_TOL = 1e-16
_MAX_NEWTON = 200
_MAX_FLOAT = sys.float_info.max
# Every integer df is exact up to 2**53.  The t tail holds far above it,
# but at df 1e308 the Pfaff fraction's m (b - m) overflows and it is nan.
_MAX_DF = 2.0**53
# Student t solves from this df on start at the Cornish-Fisher expansion.
_CF_MIN_DF = 4.0
_MAX_TERMS = 100
# A term below this fraction of a series' sum is below half its ulp.
_HALF_ULP = 2.0**-54


def _number(x: object, name: str) -> float:
    # The one float conversion behind every check.  An int beyond the float
    # range reads as +-inf, as float("1e400") does, so the caller's own
    # range check refuses it.
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {x!r}") from None


def _check_finite(x: float, name: str) -> float:
    if type(x) is not float:  # a float needs no conversion
        x = _number(x, name)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _check_positive(x: float, name: str) -> float:
    if type(x) is not float:
        x = _number(x, name)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive, got {x!r}")
    return x


def _check_int(x: int, name: str, low: int | None = None) -> int:
    # operator.index takes int and numpy integers, and refuses floats
    # such as 10.5 that would otherwise pass a range check.
    try:
        x = operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None
    if low is not None and x < low:
        # One beyond the float range prints as _number reads it, -inf,
        # which also keeps it clear of the int-to-str digit limit.
        shown = x if _number(x, name) > -math.inf else -math.inf
        raise ValueError(f"{name} must be at least {low}, got {shown}")
    return x


def _check_probability(p: float, name: str) -> float:
    # Below 1/2 a p whose complement rounds to 1 has no mirror to solve.
    p = _number(p, name)
    if not 0.0 < p < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {p!r}")
    if 1.0 - p == 1.0:
        raise ValueError(f"{name} {p!r} is too small: 1 - {name} rounds to 1")
    return p


def _check_alpha(alpha: float) -> float:
    alpha = _number(alpha, "alpha")
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5], got {alpha!r}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(f"alpha {alpha!r} is too small: 1 - alpha/2 rounds to 1")
    return alpha


class _Checked:
    """Base of the named tuples whose __new__ checks their fields.  The
    _make that namedtuple defines, and _replace calls, skips __new__;
    this one runs it."""

    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))


class Kind(enum.Enum):
    STANDARD_NORMAL = "StandardNormal"
    STUDENT_T = "StudentT"

    # Members are singletons compared by identity, so the C-level identity
    # hash agrees with ==, and each cache lookup keyed by a null skips
    # Enum's Python-level __hash__.
    __hash__ = object.__hash__


# Kind's members for the per-call paths.  On Python 3.11 a read through the
# class, such as Kind.STUDENT_T, takes ~90 ns: EnumType's __getattr__ puts
# every attribute lookup on the class on CPython's slow hook.
_STUDENT_T = Kind.STUDENT_T
_STANDARD_NORMAL = Kind.STANDARD_NORMAL


class NullDistribution(_Checked, namedtuple("NullDistribution", "kind df")):
    """Distribution of a test statistic when the parameter sits at the
    tested value.  ``df`` is present exactly when ``kind`` is Student t."""

    __slots__ = ()

    def __new__(cls, kind: Kind, df: float | None = None):
        if kind is _STUDENT_T:
            if df is not None:
                df = _number(df, "df")
            if df is None or not 0.0 < df <= _MAX_DF:
                raise ValueError(f"StudentT requires 0 < df <= 2**53, got {df!r}")
        elif not isinstance(kind, Kind):
            raise ValueError(f"unknown kind {kind!r}")
        elif df is not None:
            raise ValueError("df is only meaningful for StudentT")
        return super().__new__(cls, kind, df)


def standard_normal() -> NullDistribution:
    return _NORMAL


def student_t(df: float) -> NullDistribution:
    # One interned null per df, so a request's null is built once and every
    # cache keyed by it compares by identity.  A df that cannot be hashed
    # meets the constructor, and so _number's message, uncached.
    try:
        return _interned_t(_STUDENT_T, df)
    except TypeError:
        return NullDistribution(_STUDENT_T, df)


# The cached constructor.  A numeric df equals and hashes as its float, so
# 18, 18.0 and numpy.int64(18) share an entry.  Errors are not cached.
_interned_t = functools.lru_cache(maxsize=1024)(NullDistribution)


_NORMAL = NullDistribution(_STANDARD_NORMAL)


def _check_null(d: object) -> None:
    # Run before any cache lookup: a plain tuple equal to a null hashes as
    # it does, so the lookup alone would answer for it once the null is cached.
    if not isinstance(d, NullDistribution):
        raise ValueError(f"null must be a NullDistribution, got {d!r}")


def _lgamma_half_shift(a: float) -> float:
    # lgamma(a + 1/2) - lgamma(a).  The direct difference of two lgamma
    # calls carries ~a*log(a)*eps of absolute error (1.4e-14 at a = 19,
    # 1e-13 at a = 150), which the t tail's complement form amplifies, so
    # from a = 20 on it is the difference of two Stirling series to the
    # 1/(1680 a^7) term, within ~1e-15 of the exact value there.  From
    # a = 1 it reaches them by the recurrence f(a) = f(a + 1) -
    # log1p(1/(2a)), within 1.1e-15 of mpmath over 1 <= a < 20; below
    # a = 1 the direct difference is the more accurate.
    if a < 1.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    d = 0.0
    while a < 20.0:
        d -= math.log1p(0.5 / a)
        a += 1.0
    b = a + 0.5
    d += 0.5 * math.log(a) + a * math.log1p(0.5 / a) - 0.5
    d -= 1.0 / (24.0 * a * b)
    d += (a**-3 - b**-3) / 360.0
    d -= (a**-5 - b**-5) / 1260.0
    d += (a**-7 - b**-7) / 1680.0
    return d


# The df-only parts of every t tail and density: a = df/2, sqrt(df) and
# ln of the prefactor's Gamma(a + 1/2) / (Gamma(a) sqrt(pi)).
@functools.lru_cache(maxsize=1024)
def _t_constants(df: float) -> tuple[float, float, float]:
    a = 0.5 * df
    return a, math.sqrt(df), _lgamma_half_shift(a) - _LN_SQRT_PI


def _fraction(a: float, x: float) -> float:
    # Continued fraction of I_x(a, b), i.e. of 2F1(a + b, 1; a + 1; x), by
    # modified Lentz, for the one family the t tail's Pfaff form passes:
    # b = 1/2 - a, so a + b = 1/2, with a > 0 and x < 0.  Every partial
    # numerator is then positive: m (b - m) x / ((a - 1 + 2m)(a + 2m)) has
    # b - m < 0, x < 0 and a - 1 + 2m > 0, and the odd one is minus
    # (a + m)(1/2 + m) x over positive factors.  So c = 1 + aa/c stays >= 1,
    # d = 1/(1 + aa d) stays in (0, 1] from d = 1/(1 - x/(2(a + 1))), and
    # no divisor comes near 0, so Lentz's guards against one are left out.
    # It converges in a few dozen iterations where the tail calls it; 500
    # is a hard safety stop.
    maxit = 500
    eps = 1e-15
    b = 0.5 - a
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / (1.0 - 0.5 * x / qap)
    h = d
    for m in range(1, maxit + 1):
        m2 = 2 * m
        even = m * (b - m) / (qam + m2) * (x / (a + m2))
        odd = -(a + m) / (a + m2) * ((0.5 + m) / (qap + m2)) * x
        for aa in (even, odd):
            d = 1.0 / (1.0 + aa * d)
            c = 1.0 + aa / c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"Pfaff continued fraction did not converge (a={a}, x={x})")


def _series(a: float, x: float) -> float:
    # 2F1(a + 1/2, 1; 3/2; x) = sum_k (a + 1/2)_k / (3/2)_k x^k, the
    # hypergeometric factor of I_x(1/2, a) (DLMF 8.17.8), summed term by
    # term; the t tail calls it for 0 <= x < 1/2 below the Pfaff switch,
    # where it needs at most 77 terms (df ~13 with x -> 1/2).  Every term is
    # positive, and the ratio of term k + 1 to term k, (a + 1/2 + k)/(3/2 +
    # k) x, moves monotonically toward x < 1.  While the terms rise each is
    # at least the mean of those before it, so one below 2**-54 of the sum
    # comes after they started to fall.  The ratios then stay below r =
    # max(next ratio, x) < 1 (at most 0.54 where the tail calls it), and the
    # rest of the sum is below that term times r/(1 - r) <= 1.2.  The term
    # is below half an ulp of the sum, and so is every later one, so adding
    # them leaves the sum as it is: the loop tests every fourth term only,
    # and returns the float a test after each term would.  _MAX_TERMS is a
    # hard safety stop.
    n = a + 0.5
    d = 1.5
    s = term = 1.0
    for _ in range(_MAX_TERMS // 4):
        term *= x * n / d
        s += term
        n += 1.0
        d += 1.0
        term *= x * n / d
        s += term
        n += 1.0
        d += 1.0
        term *= x * n / d
        s += term
        n += 1.0
        d += 1.0
        term *= x * n / d
        s += term
        if term < _HALF_ULP * s:
            return s
        n += 1.0
        d += 1.0
    raise ArithmeticError(f"hypergeometric series did not converge (a={a}, x={x})")


def _beta_logs(t: float, df: float, root: float) -> tuple[float, float]:
    # ln x and ln(1 - x) for x = df/(df + t^2) = 1/(1 + u^2), u = |t|/root,
    # root = sqrt(df), formed from u so that nothing overflows; ln(1 - x) is
    # -inf at u = 0.
    u = abs(t) / root
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
    # Near the median I_x is 1 - I_{1-x}(1/2, a), which loses digits as the
    # tail shrinks, and its 2F1 is summed as a series.  From three times the
    # textbook switch point 1 - x = (b + 1)/(a + b + 2) (tails < ~1e-3), or
    # from 1 - x = 1/2, I_x is read from the continued fraction of its Pfaff
    # transform in -x/(1 - x), whose terms are all positive, and the slope
    # is not divided by the tail.
    if d.kind is _STANDARD_NORMAL:
        tail = 0.5 * math.erfc(t / _SQRT2)
        return tail, (t * _INV_SQRT_2PI * math.exp(-0.5 * t * t) / tail if tail else math.inf)
    b = 0.5
    a, root, ln_c = _t_constants(d.df)
    ln_x, ln_xc = _beta_logs(t, d.df, root)
    front = math.exp(ln_c + a * ln_x + b * ln_xc)
    xc = math.exp(ln_xc)
    if xc >= 0.5 or xc * (a + b + 2.0) >= 3.0 * (b + 1.0):
        cf = _fraction(a, -math.exp(ln_x - ln_xc))
        return 0.5 * front * cf / (a * xc), 2.0 * a * xc / cf
    tail = 0.5 * (1.0 - front * _series(a, xc) / b)
    return tail, front / tail


def _cornish_fisher(df: float, z: float) -> float:
    # The t quantile as z + g1/df + g2/df^2 + g3/df^3 + g4/df^4, where z is
    # the normal quantile (Abramowitz & Stegun 26.7.5).  At df >= 4 the
    # z/(4 df) and z^3/(4 df) of g1 outweigh the negative terms of g3 and g4,
    # so for every z > 0 the value is positive, a valid Newton start.
    z2 = z * z
    g1 = (z2 + 1.0) * z / 4.0
    g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
    g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
    g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def cdf(d: NullDistribution, t: float) -> float:
    """P(T <= t) under the null distribution ``d``."""
    _check_null(d)
    t = _check_finite(t, "t")
    return _upper_tail(d, -t)[0] if t < 0.0 else 1.0 - _upper_tail(d, t)[0]


def density(d: NullDistribution, t: float) -> float:
    """Probability density of ``d`` at ``t``."""
    _check_null(d)
    t = _check_finite(t, "t")
    if d.kind is _STANDARD_NORMAL:
        return _INV_SQRT_2PI * math.exp(-0.5 * t * t)
    df = d.df
    _, root, ln_c = _t_constants(df)
    ln_c -= 0.5 * math.log(df)
    return math.exp(ln_c + 0.5 * (df + 1.0) * _beta_logs(t, df, root)[0])


def quantile(d: NullDistribution, p: float) -> float:
    """Value q with cdf(d, q) = p, for 0 < p < 1.

    Symmetry is built in: quantile(p) for p below one half is computed
    as the negated mirror, so quantile(p) == -quantile(1 - p) exactly.
    """
    _check_null(d)
    p = _check_probability(p, "p")
    # 1 - p rounds to 1/2 at p = 1/2 and at the float just below it.
    q = _upper_quantile(d, max(p, 1.0 - p))
    return -q if p < 0.5 else q


# Each decision_regions entry (512 of them) solves two quantiles, q(1 - a)
# and q(1 - a/2), so 1024 entries hold the boundaries of every cached region
# set; the confidence intervals at 1 - a and 1 - 2a, the Wald boundaries and
# the z values of sample_size read the same entries.  The normal entries that
# start the t solves share these slots, at most 2 per alpha.  Errors are not
# cached.
@functools.lru_cache(maxsize=1024)
def _upper_quantile(d: NullDistribution, p: float) -> float:
    # The median is 0 for both nulls; a solve there would start at x = 0.
    if p == 0.5:
        return 0.0
    # Newton steps on ln tail against ln x, concave for both nulls: from any
    # positive start every step after the first lands at or above the root.
    target = 1.0 - p
    if d.kind is _STUDENT_T and d.df >= _CF_MIN_DF:
        x = _cornish_fisher(d.df, _upper_quantile(_NORMAL, p))
    else:
        x = math.sqrt(-2.0 * math.log(2.0 * target))
    for _ in range(_MAX_NEWTON):
        tail, slope = _upper_tail(d, x)
        if x == _MAX_FLOAT and tail > target:
            raise OverflowError(f"the quantile at p={p!r}, df={d.df!r} exceeds the float range")
        if slope == 0.0:  # at df < ~1e-15 the tail's rounding near 1/2 can swamp its slope
            raise ArithmeticError(f"quantile at p={p!r} did not converge: the tail is flat at {x!r}")
        step = math.log1p((tail - target) / target) / slope
        nxt = min(x * math.exp(min(step, 709.0)), _MAX_FLOAT)  # exp(709) is finite
        if abs(step) < _QUAD_STEP:
            # With g(y) = ln tail(e^y), Newton leaves an error of about
            # (1/2) |g''/g'| step^2, and g''/g' = 1 + slope + x f'(x)/f(x).
            if d.kind is _STUDENT_T:
                log_f_slope = -(d.df + 1.0) / (1.0 + d.df / x / x)
            else:
                log_f_slope = -x * x
            if abs(1.0 + slope + log_f_slope) * step * step <= _QUAD_TOL:
                return nxt
        x = nxt
    raise ArithmeticError(f"quantile at p={p!r} did not converge in {_MAX_NEWTON} steps")

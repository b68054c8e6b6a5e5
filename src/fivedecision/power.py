"""Asymptotic (Wald) power and sample-size planning.

With a standard normal null, the probability of each directional
rejection at true standardized effect e = (theta - theta0)/SE is the
normal tail beyond that target's own decision_regions boundary,
q1..q4 = z_{a/2}, z_a, z_{1-a}, z_{1-a/2}:

    psi_1 = Phi(q1 - e)      psi_2 = Phi(q2 - e)
    psi_4 = Phi(e - q3)      psi_5 = Phi(e - q4)

Rejecting a strict hypothesis (H2 or H4) is easier than rejecting its
non-strict counterpart (H1 or H5), and the gap translates into smaller
required samples when a strict conclusion suffices.  Sample sizes
assume SE(theta_hat) = tau/sqrt(n).
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from collections.abc import Sequence

# power reads the cached region solve directly: it passes only the standard
# normal and checked alphas, so it skips decision_regions' null check.
from .decisions import _TARGETS, Hypothesis, _holds, _regions
from .distributions import _NORMAL, _Checked, _check_alpha, _check_finite, cdf, quantile
from .distributions import _check_positive, _check_probability

__all__ = [
    "PowerSpec",
    "SampleSizeInputs",
    "SampleSizeResult",
    "power_wald",
    "sample_size",
    "reduction",
    "reduction_table",
    "as_whole_percent",
    "DEFAULT_TABLE_ALPHAS",
    "DEFAULT_TABLE_PSIS",
]

DEFAULT_TABLE_ALPHAS = (0.05, 0.01, 0.005, 0.001)
DEFAULT_TABLE_PSIS = (0.50, 0.80, 0.90, 0.95, 0.99)


class PowerSpec(_Checked, namedtuple("PowerSpec", "alpha effect target")):
    """Which rejection to aim for, at which level, at which effect.

    The effect is standardized: (theta - theta0)/SE(theta_hat).
    A target that holds at the effect is accepted here; power_wald
    warns about it.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, effect: float, target: Hypothesis):
        alpha = _check_alpha(alpha)
        effect = _check_finite(effect, "effect")
        if target not in _TARGETS:
            raise ValueError(f"target must be one of H1, H2, H4, H5, got {target}")
        return super().__new__(cls, alpha, effect, target)


class SampleSizeInputs(_Checked, namedtuple("SampleSizeInputs", "alpha psi delta tau")):
    """Planning inputs: level, target power, smallest difference worth
    detecting (outcome units), and the SE scale tau with
    SE(theta_hat) = tau/sqrt(n)."""

    __slots__ = ()

    def __new__(cls, alpha: float, psi: float, delta: float, tau: float):
        alpha = _check_alpha(alpha)
        psi = _check_probability(psi, "psi")
        delta = _check_positive(delta, "delta")
        tau = _check_positive(tau, "tau")
        return super().__new__(cls, alpha, psi, delta, tau)


class SampleSizeResult(namedtuple("SampleSizeResult", "n_exact n")):
    """The formula's sample size (a float) and its ceiling."""

    __slots__ = ()


def power_wald(spec: PowerSpec) -> float:
    """Probability of the targeted rejection at the given effect.

    Rejecting a target that holds at the effect is a wrong rejection
    (H1 and H5 both hold at effect 0); its power is suspicious as a
    goal but still well defined, so it warns instead of raising.
    """
    if _holds(spec.target, spec.effect):
        msg = f"rejecting {spec.target.value} is a wrong rejection at effect {spec.effect}"
        warnings.warn(f"{msg}: theta {spec.target.comparator} theta0 holds there", stacklevel=2)
    i = _TARGETS.index(spec.target)
    q = _regions(_NORMAL, spec.alpha).boundaries[i]
    if i < 2:
        return cdf(_NORMAL, q - spec.effect)
    return cdf(_NORMAL, spec.effect - q)


def _z_sum(inputs: SampleSizeInputs, strict: bool) -> float:
    # z_{1-a} + z_psi for the strict target, z_{1-a/2} + z_psi otherwise.
    q = _regions(_NORMAL, inputs.alpha).boundaries[2 if strict else 3]
    z_sum = q + quantile(_NORMAL, inputs.psi)
    if z_sum <= 0.0:
        # Otherwise the formula asks for a nonpositive sample.
        raise ValueError("target power must exceed the size of the test")
    return z_sum


def sample_size(inputs: SampleSizeInputs, strict: bool = False) -> SampleSizeResult:
    """Smallest n achieving power psi.

    strict=False sizes the rejection of the non-strict hypothesis
    (boundary quantile z_{1-alpha/2}); strict=True sizes the strict one
    (z_{1-alpha}), which always needs fewer observations.
    """
    z_sum = _z_sum(inputs, strict)
    try:
        n_exact = z_sum**2 * inputs.tau**2 / inputs.delta**2
        if n_exact > 0.0:  # an underflow to 0 is out of range as well
            return SampleSizeResult(n_exact=n_exact, n=math.ceil(n_exact))
    except (OverflowError, ZeroDivisionError):
        pass
    msg = f"sample size for delta={inputs.delta!r}, tau={inputs.tau!r} is out of range"
    raise ValueError(msg)


def reduction(alpha: float, psi: float) -> float:
    """Relative sample-size saving of the strict target over the
    non-strict one: 1 - ((z_{1-a} + z_psi)/(z_{1-a/2} + z_psi))^2."""
    inputs = SampleSizeInputs(alpha=alpha, psi=psi, delta=1.0, tau=1.0)
    ratio = _z_sum(inputs, strict=True) / _z_sum(inputs, strict=False)
    return 1.0 - ratio * ratio


def reduction_table(
    alphas: Sequence[float] = DEFAULT_TABLE_ALPHAS,
    psis: Sequence[float] = DEFAULT_TABLE_PSIS,
) -> list[list[float]]:
    """Matrix of reduction(alpha, psi), rows over alphas, columns over
    psis.  Raw fractions; use as_whole_percent for display."""
    return [[reduction(a, p) for p in psis] for a in alphas]


def as_whole_percent(fraction: float) -> int:
    """Half-up rounding of a fraction to a whole percent: halves round
    away from zero.  Exact, on the integer ratio of fraction * 100.0;
    a non-finite value raises OverflowError or ValueError."""
    n, d = (fraction * 100.0).as_integer_ratio()
    q = (2 * abs(n) + d) // (2 * d)
    return q if n >= 0 else -q

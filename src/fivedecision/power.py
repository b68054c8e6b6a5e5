"""Asymptotic (Wald) power and sample-size planning.

With a standard normal null, the probability of each directional
rejection at true standardized effect e = (theta - theta0)/SE is

    psi_1 = Phi(z_{a/2} - e)      psi_2 = Phi(z_a - e)
    psi_4 = Phi(z_a + e)          psi_5 = Phi(z_{a/2} + e)

Rejecting a strict hypothesis (H2 or H4) is easier than rejecting its
non-strict counterpart (H1 or H5), and the gap translates into smaller
required samples when a strict conclusion suffices.  Sample sizes
assume SE(theta_hat) = tau/sqrt(n).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

from .decisions import Hypothesis, _check_alpha, decision_regions
from .distributions import cdf, quantile, standard_normal

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

_NORMAL = standard_normal()

DEFAULT_TABLE_ALPHAS = (0.05, 0.01, 0.005, 0.001)
DEFAULT_TABLE_PSIS = (0.50, 0.80, 0.90, 0.95, 0.99)

_TARGETS = (Hypothesis.H1, Hypothesis.H2, Hypothesis.H4, Hypothesis.H5)


@dataclass(frozen=True)
class PowerSpec:
    """Which rejection to aim for, at which level, at which effect.

    The effect is standardized: (theta - theta0)/SE(theta_hat).
    Rejecting H4 or H5 is the correct goal only when theta really lies
    above theta0, and H1/H2 only below; a mismatch is suspicious but
    still well defined, so it warns instead of raising.
    """

    alpha: float
    effect: float
    target: Hypothesis

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not math.isfinite(self.effect):
            raise ValueError("effect must be finite")
        if self.target not in _TARGETS:
            raise ValueError(f"target must be one of H1, H2, H4, H5, got {self.target}")
        if self.target in (Hypothesis.H4, Hypothesis.H5) and self.effect < 0:
            warnings.warn(
                "rejecting H4/H5 is the correct conclusion only for effect > 0",
                stacklevel=2,
            )
        if self.target in (Hypothesis.H1, Hypothesis.H2) and self.effect > 0:
            warnings.warn(
                "rejecting H1/H2 is the correct conclusion only for effect < 0",
                stacklevel=2,
            )


@dataclass(frozen=True)
class SampleSizeInputs:
    """Planning inputs: level, target power, smallest difference worth
    detecting (outcome units), and the SE scale tau with
    SE(theta_hat) = tau/sqrt(n)."""

    alpha: float
    psi: float
    delta: float
    tau: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not 0.0 < self.psi < 1.0:
            raise ValueError(f"psi must lie in (0, 1), got {self.psi!r}")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive, got {self.tau!r}")


@dataclass(frozen=True)
class SampleSizeResult:
    n_exact: float
    n: int


def power_wald(spec: PowerSpec) -> float:
    """Probability of the targeted rejection at the given effect."""
    q1, q2, _, _ = decision_regions(_NORMAL, spec.alpha).boundaries
    z = q1 if spec.target in (Hypothesis.H1, Hypothesis.H5) else q2
    if spec.target in (Hypothesis.H1, Hypothesis.H2):
        return cdf(_NORMAL, z - spec.effect)
    return cdf(_NORMAL, z + spec.effect)


def _z_pair(inputs: SampleSizeInputs, strict: bool) -> tuple[float, float]:
    _, _, q3, q4 = decision_regions(_NORMAL, inputs.alpha).boundaries
    z_alpha = q3 if strict else q4
    z_psi = quantile(_NORMAL, inputs.psi)
    if z_alpha + z_psi <= 0.0:
        # Otherwise the formula asks for a nonpositive sample.
        raise ValueError("target power must exceed the size of the test")
    return z_alpha, z_psi


def sample_size(inputs: SampleSizeInputs, strict: bool = False) -> SampleSizeResult:
    """Smallest n achieving power psi.

    strict=False sizes the rejection of the non-strict hypothesis
    (boundary quantile z_{1-alpha/2}); strict=True sizes the strict one
    (z_{1-alpha}), which always needs fewer observations.
    """
    z_alpha, z_psi = _z_pair(inputs, strict)
    try:
        n_exact = (z_alpha + z_psi) ** 2 * inputs.tau**2 / inputs.delta**2
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
    z_wide, z_psi = _z_pair(inputs, strict=False)
    z_narrow, _ = _z_pair(inputs, strict=True)
    ratio = (z_narrow + z_psi) / (z_wide + z_psi)
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

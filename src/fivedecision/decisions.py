"""Decision engines over a realized test statistic.

The five-decision procedure partitions the statistic axis by the
quantiles q_{a/2}, q_a, q_{1-a}, q_{1-a/2} into five verdicts, each
rejecting one directional hypothesis (or none):

    1: t < q_{a/2}            reject H1: theta >= theta0
    2: q_{a/2} <= t < q_a     reject H2: theta >  theta0
    3: q_a <= t <= q_{1-a}    reject nothing
    4: q_{1-a} < t <= q_{1-a/2}   reject H4: theta <  theta0
    5: t > q_{1-a/2}          reject H5: theta <= theta0

Every rejection implicitly accepts the mirror hypothesis (H1 <-> H4,
H2 <-> H5).  Three equivalent formulations are provided (quantile
partition, composition of three traditional tests, and confidence
interval positions), plus the two classical mergers of the partition:
the directional two-sided procedure (each one-sided test at level a/2,
verdicts {1,3,5}) and the two one-sided procedure run at full level a
under the premise that theta = theta0 is impossible (verdicts
{2,3,4}).  `Procedure` keys the one merge table; each procedure's
verdicts, its wrong-side verdicts for the simulation and what else a
Jones-Tukey verdict rejects are read off it here.  All of them, the
nested intervals and the Wald power formulas read one set of
boundaries, which decision_regions solves once per (null, alpha) and
caches.  Its two quantiles, q_{1-a} and q_{1-a/2}, are the ones
stattests.confidence_interval asks for at levels 1 - 2a and 1 - a, and
quantile keeps each solve per (null, p), so those intervals solve
nothing more.  Significance levels up to 0.5 are accepted; at exactly
0.5 the no-rejection region collapses to the single point q_{0.5}.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .distributions import NullDistribution, quantile
from .stattests import TestResult

__all__ = [
    "Hypothesis",
    "Decision",
    "Procedure",
    "DecisionRegions",
    "RegionInterval",
    "five_decision",
    "five_decision_via_three_tests",
    "five_decision_via_ci",
    "kaiser_decision",
    "jones_tukey_decision",
    "decision_regions",
]


class Hypothesis(enum.Enum):
    H1 = "H1"
    H2 = "H2"
    NONE = "none"
    H4 = "H4"
    H5 = "H5"

    @property
    def comparator(self) -> str | None:
        """Relation this hypothesis asserts between theta and theta0."""
        return _COMPARATORS[self]


_COMPARATORS = {
    Hypothesis.H1: ">=",
    Hypothesis.H2: ">",
    Hypothesis.NONE: None,
    Hypothesis.H4: "<",
    Hypothesis.H5: "<=",
}


@dataclass(frozen=True)
class Decision:
    index: int
    rejected: Hypothesis
    accepted_implicitly: Hypothesis

    @classmethod
    def from_index(cls, index: int) -> "Decision":
        if not 1 <= index <= 5:
            raise KeyError(index)
        return _DECISIONS[index - 1]


# Decisions 1..5; each rejection implicitly accepts its mirror.
_DECISIONS = (
    Decision(1, Hypothesis.H1, Hypothesis.H4),
    Decision(2, Hypothesis.H2, Hypothesis.H5),
    Decision(3, Hypothesis.NONE, Hypothesis.NONE),
    Decision(4, Hypothesis.H4, Hypothesis.H1),
    Decision(5, Hypothesis.H5, Hypothesis.H2),
)


@dataclass(frozen=True)
class RegionInterval:
    """One labeled decision region, for tabulation or plotting."""

    index: int
    lower: float
    upper: float
    lower_closed: bool
    upper_closed: bool
    rejected: Hypothesis


@dataclass(frozen=True)
class DecisionRegions:
    alpha: float
    boundaries: tuple[float, float, float, float]
    null: NullDistribution

    def intervals(self) -> list[RegionInterval]:
        q1, q2, q3, q4 = self.boundaries
        spans = [
            (1, -math.inf, q1, False, False),
            (2, q1, q2, True, False),
            (3, q2, q3, True, True),
            (4, q3, q4, False, True),
            (5, q4, math.inf, False, False),
        ]
        return [
            RegionInterval(i, lo, hi, lc, uc, d.rejected)
            for (i, lo, hi, lc, uc), d in zip(spans, _DECISIONS)
        ]

    def nested_intervals(self, estimate: float, se: float) -> tuple[tuple, tuple]:
        """The (1-alpha) and (1-2*alpha) intervals, estimate -+ q*se."""
        _, _, q3, q4 = self.boundaries
        wide = (estimate - q4 * se, estimate + q4 * se)
        return wide, (estimate - q3 * se, estimate + q3 * se)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5], got {alpha!r}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(f"alpha {alpha!r} is too small: 1 - alpha/2 rounds to 1")
    return alpha


def _check_t(t_stat: float) -> float:
    t_stat = float(t_stat)
    if not math.isfinite(t_stat):
        raise ValueError(f"t_stat must be finite, got {t_stat!r}")
    return t_stat


@functools.lru_cache(maxsize=512)
def decision_regions(null: NullDistribution, alpha: float) -> DecisionRegions:
    # Cached: the result is immutable and every engine reads it.  The
    # lower two mirror the upper two; 0.0 - q keeps +0.0 at alpha = 0.5.
    alpha = _check_alpha(alpha)
    q3 = quantile(null, 1.0 - alpha)
    q4 = quantile(null, 1.0 - alpha / 2.0)
    boundaries = (0.0 - q4, 0.0 - q3, q3, q4)
    return DecisionRegions(alpha=alpha, boundaries=boundaries, null=null)


def _index_from_boundaries(t_stat, q1, q2, q3, q4):
    # Encodes the open/closed pattern: region 2 is [q1, q2), region 3
    # is [q2, q3], region 4 is (q3, q4].  Works elementwise on numpy
    # arrays as well as on floats.
    return 1 + (t_stat >= q1) + (t_stat >= q2) + (t_stat > q3) + (t_stat > q4)


class Procedure(enum.Enum):
    FIVE_DECISION = "five-decision"
    KAISER = "kaiser"
    JONES_TUKEY = "jones-tukey"

    @property
    def index_set(self) -> tuple[int, ...]:
        return tuple(sorted(set(_MERGE[self][1:])))


# Five-decision index -> reported index under each procedure (position
# 0 is unused).  The classical procedures are merges of the same
# partition, and every per-procedure rule below is read off this table.
_MERGE = {
    Procedure.FIVE_DECISION: (0, 1, 2, 3, 4, 5),
    Procedure.KAISER: (0, 1, 3, 3, 3, 5),
    Procedure.JONES_TUKEY: (0, 2, 2, 3, 4, 4),
}


def _wrong_indices(procedure: Procedure, effect: float) -> tuple[int, ...]:
    # Verdicts that misstate the true side of the effect: the merged
    # regions that reject a hypothesis true at it.  At zero effect the
    # Jones-Tukey ones, 2 and 4, are counted without an alpha bound.
    regions = (1, 2) if effect > 0 else (4, 5) if effect < 0 else (1, 5)
    return tuple(sorted({_MERGE[procedure][i] for i in regions} - {3}))


def _also_rejected(procedure: Procedure, index: int) -> Hypothesis | None:
    """The hypothesis a rejecting verdict also rejects because it
    absorbs a second five-decision region (Jones-Tukey's 2 and 4, with
    theta = theta0 ruled out), or None."""
    if index == 3:
        return None
    merge = _MERGE[procedure]
    others = [i for i in range(1, 6) if i != index and merge[i] == index]
    return _DECISIONS[others[0] - 1].rejected if others else None


def _merged_decision(
    procedure: Procedure, t_stat: float, null: NullDistribution, alpha: float
) -> Decision:
    t_stat = _check_t(t_stat)
    q1, q2, q3, q4 = decision_regions(null, alpha).boundaries
    index = _index_from_boundaries(t_stat, q1, q2, q3, q4)
    return _DECISIONS[_MERGE[procedure][index] - 1]


def five_decision(t_stat: float, null: NullDistribution, alpha: float) -> Decision:
    """Classify a statistic into one of the five decisions."""
    return _merged_decision(Procedure.FIVE_DECISION, t_stat, null, alpha)


def five_decision_via_three_tests(
    t_stat: float, null: NullDistribution, alpha: float
) -> Decision:
    """Same verdict, derived from three traditional tests at level alpha:
    one-sided-left (reject when t < q_a), one-sided-right (t > q_{1-a}),
    and two-sided (|t| beyond the a/2 tails)."""
    t_stat = _check_t(t_stat)
    q1, q2, q3, q4 = decision_regions(null, alpha).boundaries
    left = t_stat < q2
    right = t_stat > q3
    two_sided = t_stat < q1 or t_stat > q4
    if left and two_sided:
        return Decision.from_index(1)
    if left:
        return Decision.from_index(2)
    if right and two_sided:
        return Decision.from_index(5)
    if right:
        return Decision.from_index(4)
    if two_sided:
        raise RuntimeError(
            "inconsistent test outcomes: two-sided rejection without a one-sided one"
        )
    return Decision.from_index(3)


def five_decision_via_ci(r: TestResult, theta0: float, alpha: float) -> Decision:
    """Same verdict, derived from where theta0 falls relative to the
    (1-alpha) and (1-2*alpha) confidence intervals.

    At alpha = 0.5 the narrow interval degenerates to the point
    estimate.  Larger statistics push theta0 below the intervals, so
    the ladder runs from decision 5 upward.
    """
    wide, narrow = decision_regions(r.null, alpha).nested_intervals(r.estimate, r.se)
    theta0 = float(theta0)
    if not math.isfinite(theta0):
        raise ValueError("theta0 must be finite")
    if theta0 < wide[0]:
        return Decision.from_index(5)
    if theta0 < narrow[0]:
        return Decision.from_index(4)
    if theta0 <= narrow[1]:
        return Decision.from_index(3)
    if theta0 <= wide[1]:
        return Decision.from_index(2)
    return Decision.from_index(1)


def kaiser_decision(t_stat: float, null: NullDistribution, alpha: float) -> Decision:
    """Directional two-sided verdict: both one-sided tests at level
    alpha/2, so only decisions 1, 3, and 5 can occur.  Equals the
    five-decision verdict with regions {2, 3, 4} merged into 3."""
    return _merged_decision(Procedure.KAISER, t_stat, null, alpha)


def jones_tukey_decision(
    t_stat: float, null: NullDistribution, alpha: float
) -> Decision:
    """Two one-sided tests at full level alpha, valid when theta =
    theta0 is treated as impossible, so only decisions 2, 3, and 4 can
    occur.  Equals the five-decision verdict with {1, 2} merged into 2
    and {4, 5} merged into 4; under the impossibility premise a
    decision-4 rejection of H4 carries the H5 rejection with it."""
    return _merged_decision(Procedure.JONES_TUKEY, t_stat, null, alpha)

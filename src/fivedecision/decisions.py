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
Jones-Tukey verdict rejects are read off it here.  One table states
what each hypothesis asserts about theta - theta0: the comparator the
CLI prints and the test of whether a hypothesis holds at an effect,
which the simulation's wrong rejections and the power advisory read.
All the engines and the Wald power formulas read one set of
boundaries, which decision_regions solves once per (null, alpha) and
caches; the nested intervals are the test inverted at two of them,
TestResult.interval at q4 and q3.  Significance levels up to 0.5 are
accepted; at exactly 0.5 the no-rejection region collapses to the
single point q_{0.5}.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from collections import namedtuple

from .distributions import NullDistribution
from .distributions import _check_alpha, _check_finite, _check_null, _upper_quantile

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

    __hash__ = object.__hash__  # as distributions.Kind

    @property
    def comparator(self) -> str | None:
        """Relation this hypothesis asserts between theta and theta0."""
        return _RELATIONS[self][0]


# What each hypothesis asserts about theta - theta0: the comparator
# printed against theta0 and the same test as a function of it.
_RELATIONS = {
    Hypothesis.H1: (">=", operator.ge),
    Hypothesis.H2: (">", operator.gt),
    Hypothesis.NONE: (None, None),
    Hypothesis.H4: ("<", operator.lt),
    Hypothesis.H5: ("<=", operator.le),
}


def _holds(hypothesis: Hypothesis, effect: float) -> bool:
    """Whether the hypothesis is true at an effect of the sign of
    theta - theta0, such as the standardized one; rejecting it there is
    a wrong rejection."""
    return hypothesis is not _NONE and _RELATIONS[hypothesis][1](effect, 0.0)


class Decision(namedtuple("Decision", "index rejected accepted_implicitly")):
    """Verdict ``index`` (1-5), the Hypothesis it rejects and the one it
    accepts implicitly (Hypothesis.NONE for both at 3)."""

    __slots__ = ()

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

# The hypotheses a verdict can reject, in verdict order, which is also
# boundary order: the target at position i is rejected beyond boundary
# i of decision_regions, below q1 or q2 for H1 and H2, above q3 or q4
# for H4 and H5.
_TARGETS = (Hypothesis.H1, Hypothesis.H2, Hypothesis.H4, Hypothesis.H5)


class RegionInterval(
    namedtuple("RegionInterval", "index lower upper lower_closed upper_closed rejected")
):
    """One labeled decision region, for tabulation or plotting."""

    __slots__ = ()


class DecisionRegions(namedtuple("DecisionRegions", "alpha boundaries null")):
    """The level, its four boundaries (q1, q2, q3, q4) and the null."""

    __slots__ = ()

    def intervals(self) -> list[RegionInterval]:
        edges = (-math.inf, *self.boundaries, math.inf)
        # A region holds its lower edge if ties there go up, and its
        # upper edge if they stay down; padding the rule with "down"
        # at -inf and "up" at +inf leaves both infinite ends open.
        up = (False, *_TIES_UP, True)
        return [
            RegionInterval(
                d.index, edges[i], edges[i + 1], up[i], not up[i + 1], d.rejected
            )
            for i, d in enumerate(_DECISIONS)
        ]


@functools.lru_cache(maxsize=512)
def _regions(null: NullDistribution, alpha: float) -> DecisionRegions:
    # Cached: the result is immutable and every engine reads it.  The
    # caller has checked the null and the alpha check keeps 1 - a/2 below
    # 1, so the upper quantiles are read directly.  The lower two mirror
    # the upper two; 0.0 - q keeps +0.0 at alpha = 0.5.
    alpha = _check_alpha(alpha)
    q3 = _upper_quantile(null, 1.0 - alpha)
    q4 = _upper_quantile(null, 1.0 - alpha / 2.0)
    return DecisionRegions(alpha, (0.0 - q4, 0.0 - q3, q3, q4), null)


def decision_regions(null: NullDistribution, alpha: float) -> DecisionRegions:
    # The null is checked before the cache lookup (see _check_null), and an
    # alpha the lookup cannot hash meets the alpha check, as student_t's df.
    _check_null(null)
    try:
        return _regions(null, alpha)
    except TypeError:
        return _regions(null, _check_alpha(alpha))


# The one cache's counters and reset, which count every lookup.
decision_regions.cache_info = _regions.cache_info
decision_regions.cache_clear = _regions.cache_clear


# The tie rule: whether a statistic equal to boundary q1, q2, q3 or q4
# lies past it, in the region above.  So region 2 is [q1, q2), region 3
# is [q2, q3] and region 4 is (q3, q4].
_TIES_UP = (True, True, False, False)


class Procedure(enum.Enum):
    FIVE_DECISION = "five-decision"
    KAISER = "kaiser"
    JONES_TUKEY = "jones-tukey"

    __hash__ = object.__hash__  # as distributions.Kind

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


# The members the engines pass on every call, and the one _holds reads on
# every power_wald call, read once (see distributions._STUDENT_T).
_NONE = Hypothesis.NONE
_FIVE_DECISION = Procedure.FIVE_DECISION
_KAISER = Procedure.KAISER
_JONES_TUKEY = Procedure.JONES_TUKEY


def _wrong_indices(procedure: Procedure, effect: float) -> tuple[int, ...]:
    # Verdicts that misstate the true side of the effect: the merged
    # regions that reject a hypothesis true at it.  At zero effect the
    # Jones-Tukey ones, 2 and 4, are counted without an alpha bound.
    wrong = {_MERGE[procedure][d.index] for d in _DECISIONS if _holds(d.rejected, effect)}
    return tuple(sorted(wrong - {3}))


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
    t_stat = _check_finite(t_stat, "t_stat")
    q1, q2, q3, q4 = decision_regions(null, alpha).boundaries
    # _TIES_UP written out, as the scalar engines run this on every call.
    index = 1 + (t_stat >= q1) + (t_stat >= q2) + (t_stat > q3) + (t_stat > q4)
    return _DECISIONS[_MERGE[procedure][index] - 1]


def five_decision(t_stat: float, null: NullDistribution, alpha: float) -> Decision:
    """Classify a statistic into one of the five decisions."""
    return _merged_decision(_FIVE_DECISION, t_stat, null, alpha)


def five_decision_via_three_tests(
    t_stat: float, null: NullDistribution, alpha: float
) -> Decision:
    """Same verdict, derived from three traditional tests at level alpha:
    one-sided-left (reject when t < q_a), one-sided-right (t > q_{1-a}),
    and two-sided (|t| beyond the a/2 tails)."""
    t_stat = _check_finite(t_stat, "t_stat")
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
    _, _, q3, q4 = decision_regions(r.null, alpha).boundaries
    wide, narrow = r.interval(q4), r.interval(q3)
    theta0 = _check_finite(theta0, "theta0")
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
    return _merged_decision(_KAISER, t_stat, null, alpha)


def jones_tukey_decision(
    t_stat: float, null: NullDistribution, alpha: float
) -> Decision:
    """Two one-sided tests at full level alpha, valid when theta =
    theta0 is treated as impossible, so only decisions 2, 3, and 4 can
    occur.  Equals the five-decision verdict with {1, 2} merged into 2
    and {4, 5} merged into 4; under the impossibility premise a
    decision-4 rejection of H4 carries the H5 rejection with it."""
    return _merged_decision(_JONES_TUKEY, t_stat, null, alpha)

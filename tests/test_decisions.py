"""Decision engine checks: the worked example, boundary pattern,
formulation equivalence, the merge structure of the classical
procedures, and the one cached boundary solve they all read."""

import math
import warnings

import numpy as np
import pytest

from fivedecision import decisions, stattests
from fivedecision.cli import main
from fivedecision.decisions import (
    Decision,
    Hypothesis,
    Procedure,
    _wrong_indices,
    decision_regions,
    five_decision,
    five_decision_via_ci,
    five_decision_via_three_tests,
    jones_tukey_decision,
    kaiser_decision,
)
from fivedecision import distributions
from fivedecision.distributions import (
    Kind,
    cdf,
    density,
    quantile,
    standard_normal,
    student_t,
)
from fivedecision.power import PowerSpec, SampleSizeInputs, power_wald, sample_size
from fivedecision.stattests import (
    GroupSummary,
    confidence_interval,
    two_sample_t,
    wald,
)

T18 = student_t(18)
NORMAL = standard_normal()
CHICK = two_sample_t(GroupSummary(10, 258.9, 65.2), GroupSummary(10, 205.6, 70.3))


class TestDecisionType:
    def test_rejection_pairing(self):
        expected = {
            1: (Hypothesis.H1, Hypothesis.H4),
            2: (Hypothesis.H2, Hypothesis.H5),
            3: (Hypothesis.NONE, Hypothesis.NONE),
            4: (Hypothesis.H4, Hypothesis.H1),
            5: (Hypothesis.H5, Hypothesis.H2),
        }
        for index, (rejected, accepted) in expected.items():
            d = Decision.from_index(index)
            assert d.rejected is rejected
            assert d.accepted_implicitly is accepted

    @pytest.mark.parametrize("index", [0, 6])
    def test_index_out_of_range(self, index):
        with pytest.raises(KeyError):
            Decision.from_index(index)

    def test_comparators(self):
        assert Hypothesis.H1.comparator == ">="
        assert Hypothesis.H2.comparator == ">"
        assert Hypothesis.H4.comparator == "<"
        assert Hypothesis.H5.comparator == "<="
        assert Hypothesis.NONE.comparator is None


class TestFiveDecision:
    def test_worked_example_across_levels(self):
        t = CHICK.t_stat
        assert five_decision(t, T18, 0.05).index == 4
        assert five_decision(t, T18, 0.10).index == 5
        assert five_decision(t, T18, 0.01).index == 3

    def test_zero_statistic_never_rejects(self):
        for null in (NORMAL, T18, student_t(1)):
            for alpha in (0.01, 0.05, 0.1, 0.5):
                assert five_decision(0.0, null, alpha).index == 3

    def test_boundary_pattern_exact(self):
        # Region 2 owns its left endpoint, region 3 owns both of its
        # endpoints, region 4 owns its right endpoint.
        for null in (NORMAL, T18):
            q1, q2, q3, q4 = decision_regions(null, 0.05).boundaries
            assert five_decision(math.nextafter(q1, -10), null, 0.05).index == 1
            assert five_decision(q1, null, 0.05).index == 2
            assert five_decision(math.nextafter(q2, -10), null, 0.05).index == 2
            assert five_decision(q2, null, 0.05).index == 3
            assert five_decision(q3, null, 0.05).index == 3
            assert five_decision(math.nextafter(q3, 10), null, 0.05).index == 4
            assert five_decision(q4, null, 0.05).index == 4
            assert five_decision(math.nextafter(q4, 10), null, 0.05).index == 5

    def test_index_monotone_in_t(self):
        grid = np.linspace(-6, 6, 2001)
        indices = [five_decision(float(t), T18, 0.05).index for t in grid]
        assert all(b >= a for a, b in zip(indices, indices[1:]))
        assert set(indices) == {1, 2, 3, 4, 5}

    def test_alpha_half_collapses_region_three(self):
        assert five_decision(0.0, NORMAL, 0.5).index == 3
        assert five_decision(0.1, NORMAL, 0.5).index == 4
        assert five_decision(-0.1, NORMAL, 0.5).index == 2

    def test_alpha_domain(self):
        for alpha in (0.0, -0.05, 0.6, 1.0):
            with pytest.raises(ValueError):
                five_decision(1.0, NORMAL, alpha)

    def test_rejects_non_finite_t(self):
        with pytest.raises(ValueError):
            five_decision(math.inf, NORMAL, 0.05)

    def test_rejects_non_numbers(self):
        with pytest.raises(ValueError, match="t_stat must be a number, got None"):
            five_decision(None, NORMAL, 0.05)
        with pytest.raises(ValueError, match="alpha must be a number, got 'x'"):
            five_decision(1.0, NORMAL, "x")

    @pytest.mark.parametrize("alpha", [1e-17, 2.0**-54, 5e-324])
    def test_alpha_below_resolution_named(self, alpha):
        # 1 - alpha/2 rounds to 1: refused with the alpha given, not with
        # the quantile's p = 1.0.
        with pytest.raises(ValueError, match=f"alpha {alpha!r} is too small"):
            decision_regions(NORMAL, alpha)

    def test_smallest_resolved_alpha_accepted(self):
        alpha = 2.0**-52
        assert 1.0 - alpha / 2.0 < 1.0
        assert decision_regions(NORMAL, alpha).boundaries[3] > 8.0

    def test_side_never_flips_as_alpha_grows(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            t = float(rng.normal(0, 2.5))
            a1 = float(rng.uniform(0.005, 0.25))
            a2 = float(rng.uniform(a1, 0.5))
            first = five_decision(t, NORMAL, a1).index
            if first in (1, 5):
                second = five_decision(t, NORMAL, a2).index
                assert second in ({1, 2} if first == 1 else {4, 5})

    def test_p_value_shortcut_at_five_percent(self):
        # decision in {4,5} iff t > 0 and p < 0.10; decision 4 iff
        # additionally p >= 0.05.
        rng = np.random.default_rng(22)
        for null in (NORMAL, T18):
            for _ in range(200):
                r = wald(float(rng.normal(0, 2)), 1.0, 0.0)
                t = r.t_stat
                from fivedecision.distributions import cdf

                p = 2.0 * (1.0 - cdf(null, abs(t)))
                idx = five_decision(t, null, 0.05).index
                assert (idx in (4, 5)) == (t > 0 and p < 0.10)
                if idx == 4:
                    assert t > 0 and 0.05 <= p < 0.10


class TestThreeTestFormulation:
    def test_examples(self):
        assert five_decision_via_three_tests(-2.5, NORMAL, 0.05).index == 1
        assert five_decision_via_three_tests(1.8, NORMAL, 0.05).index == 4

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.5])
    def test_grid_equivalence(self, alpha):
        for null in (NORMAL, T18):
            for t in np.linspace(-5, 5, 2001):
                t = float(t)
                assert (
                    five_decision_via_three_tests(t, null, alpha).index
                    == five_decision(t, null, alpha).index
                )

    def test_boundary_agreement(self):
        q1, q2, q3, q4 = decision_regions(T18, 0.05).boundaries
        for t in (q1, q2, q3, q4):
            assert (
                five_decision_via_three_tests(t, T18, 0.05).index
                == five_decision(t, T18, 0.05).index
            )


class TestCiFormulation:
    def test_worked_example(self):
        assert five_decision_via_ci(CHICK, 0.0, 0.05).index == 4

    def test_estimate_at_theta0(self):
        r = wald(1.5, 0.8, 1.5)
        assert five_decision_via_ci(r, 1.5, 0.05).index == 3

    def test_randomized_equivalence(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            est = float(rng.normal(0, 2))
            se = float(rng.uniform(0.2, 3))
            theta0 = float(rng.normal(0, 2))
            alpha = float(rng.uniform(0.01, 0.5))
            r = wald(est, se, theta0)
            assert (
                five_decision_via_ci(r, theta0, alpha).index
                == five_decision(r.t_stat, r.null, alpha).index
            )

    @pytest.mark.parametrize("theta0", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_theta0(self, theta0):
        with pytest.raises(ValueError, match=f"theta0 must be finite, got {theta0!r}"):
            five_decision_via_ci(CHICK, theta0, 0.05)

    def test_alpha_half_degenerate_narrow_interval(self):
        r = wald(1.0, 1.0, 0.0)
        assert five_decision_via_ci(r, 0.0, 0.5).index == 5
        r0 = wald(0.0, 1.0, 0.0)
        assert five_decision_via_ci(r0, 0.0, 0.5).index == 3


class TestKaiser:
    def test_worked_example(self):
        assert kaiser_decision(CHICK.t_stat, T18, 0.05).index == 3

    def test_clear_rejection(self):
        assert kaiser_decision(2.5, NORMAL, 0.05).index == 5

    def test_is_merge_of_five_decision(self):
        for t in np.linspace(-5, 5, 1001):
            t = float(t)
            five = five_decision(t, T18, 0.05).index
            merged = 3 if five in (2, 3, 4) else five
            assert kaiser_decision(t, T18, 0.05).index == merged

    def test_restricted_index_set(self):
        rng = np.random.default_rng(24)
        indices = {
            kaiser_decision(float(rng.normal(0, 3)), NORMAL, 0.2).index
            for _ in range(500)
        }
        assert indices <= {1, 3, 5}


class TestJonesTukey:
    def test_worked_example(self):
        d = jones_tukey_decision(CHICK.t_stat, T18, 0.05)
        assert d.index == 4
        assert d.rejected is Hypothesis.H4

    def test_zero_statistic(self):
        assert jones_tukey_decision(0.0, NORMAL, 0.05).index == 3

    def test_is_merge_of_five_decision(self):
        for t in np.linspace(-5, 5, 1001):
            t = float(t)
            five = five_decision(t, T18, 0.05).index
            merged = {1: 2, 2: 2, 3: 3, 4: 4, 5: 4}[five]
            assert jones_tukey_decision(t, T18, 0.05).index == merged

    def test_decision_one_implies_left_rejection(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            t = float(rng.normal(0, 3))
            alpha = float(rng.uniform(0.01, 0.5))
            if five_decision(t, NORMAL, alpha).index == 1:
                assert jones_tukey_decision(t, NORMAL, alpha).index == 2


class TestWrongSide:
    """One table of what each hypothesis asserts decides both the
    wrong rejections the simulation counts and the power advisory."""

    @pytest.mark.parametrize(
        "procedure, effect, wrong",
        [
            (Procedure.FIVE_DECISION, -1.0, (4, 5)),
            (Procedure.FIVE_DECISION, -0.0, (1, 5)),
            (Procedure.FIVE_DECISION, 0.0, (1, 5)),
            (Procedure.FIVE_DECISION, 1.0, (1, 2)),
            (Procedure.KAISER, -1.0, (5,)),
            (Procedure.KAISER, -0.0, (1, 5)),
            (Procedure.KAISER, 0.0, (1, 5)),
            (Procedure.KAISER, 1.0, (1,)),
            (Procedure.JONES_TUKEY, -1.0, (4,)),
            (Procedure.JONES_TUKEY, -0.0, (2, 4)),
            (Procedure.JONES_TUKEY, 0.0, (2, 4)),
            (Procedure.JONES_TUKEY, 1.0, (2,)),
        ],
    )
    def test_wrong_indices(self, procedure, effect, wrong):
        assert _wrong_indices(procedure, effect) == wrong

    @pytest.mark.parametrize("effect", [-1.0, -0.0, 0.0, 1.0])
    @pytest.mark.parametrize(
        "target", [Hypothesis.H1, Hypothesis.H2, Hypothesis.H4, Hypothesis.H5]
    )
    def test_power_warns_exactly_at_simulated_wrong_rejections(self, target, effect):
        region = {Hypothesis.H1: 1, Hypothesis.H2: 2, Hypothesis.H4: 4, Hypothesis.H5: 5}
        wrong = region[target] in _wrong_indices(Procedure.FIVE_DECISION, effect)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            power_wald(PowerSpec(0.05, effect, target))
        assert len(caught) == wrong
        if wrong:
            assert str(caught[0].message) == (
                f"rejecting {target.value} is a wrong rejection at effect {effect}: "
                f"theta {target.comparator} theta0 holds there"
            )


class TestDecisionRegions:
    def test_normal_boundaries_at_three_decimals(self):
        q = decision_regions(NORMAL, 0.05).boundaries
        assert [round(v, 3) for v in q] == [-1.960, -1.645, 1.645, 1.960]

    def test_t18_boundaries_at_two_decimals(self):
        q = decision_regions(T18, 0.05).boundaries
        assert [round(v, 2) for v in q] == [-2.10, -1.73, 1.73, 2.10]

    def test_strictly_increasing_below_half(self):
        for alpha in (0.01, 0.05, 0.2, 0.49):
            q = decision_regions(T18, alpha).boundaries
            assert q[0] < q[1] < q[2] < q[3]

    def test_middle_boundaries_coincide_at_half(self):
        q = decision_regions(T18, 0.5).boundaries
        assert q[1] == q[2] == 0.0

    def test_symmetric_boundaries(self):
        q1, q2, q3, q4 = decision_regions(T18, 0.05).boundaries
        assert q1 == -q4
        assert q2 == -q3

    def test_intervals_cover_the_line(self):
        regions = decision_regions(T18, 0.05)
        spans = regions.intervals()
        assert [s.index for s in spans] == [1, 2, 3, 4, 5]
        assert spans[0].lower == -math.inf
        assert spans[-1].upper == math.inf
        for left, right in zip(spans, spans[1:]):
            assert left.upper == right.lower
            # Shared endpoints belong to exactly one side.
            assert left.upper_closed != right.lower_closed
        assert spans[2].rejected is Hypothesis.NONE
        assert spans[3].rejected is Hypothesis.H4


class TestBoundariesSolvedOnce:
    """decision_regions is the one place that turns alpha into
    quantiles; the CI oracle, the CLI intervals and Wald power read its
    cached boundaries."""

    @pytest.fixture
    def solves(self, monkeypatch):
        # The (null, p) of each quantile solve, i.e. each miss of the
        # quantile cache, however the caller reaches it, in the order the
        # solves finish: a t solve's normal start comes before it.
        solved = []
        cached = distributions._upper_quantile

        def recording(null, p):
            misses = cached.cache_info().misses
            q = cached(null, p)
            if cached.cache_info().misses > misses:
                solved.append((null, p))
            return q

        for module in (distributions, decisions, stattests):
            monkeypatch.setattr(module, "_upper_quantile", recording)
        decision_regions.cache_clear()
        cached.cache_clear()
        return solved

    def test_cold_regions_solve_two_quantiles(self, solves):
        decision_regions(T18, 0.05)
        assert solves == [(NORMAL, 0.95), (T18, 0.95), (NORMAL, 0.975), (T18, 0.975)]

    def test_warm_consumers_solve_nothing(self, solves, capsys):
        decision_regions(T18, 0.05)
        decision_regions(NORMAL, 0.05)
        solves.clear()
        five_decision_via_ci(CHICK, 0.0, 0.05)
        assert main(["decide", "--summary", "10,205.6,65.2,10,258.9,70.3"]) == 0
        # H1 and H5 hold at effect 0, so power_wald warns for them.
        with pytest.warns(UserWarning, match="wrong rejection at effect 0.0"):
            for target in (Hypothesis.H1, Hypothesis.H2, Hypothesis.H4, Hypothesis.H5):
                power_wald(PowerSpec(0.05, 0.0, target))
        assert solves == []
        assert "decision 4" in capsys.readouterr().out

    def test_warm_sample_size_solves_only_the_power_quantile(self, solves):
        decision_regions(NORMAL, 0.05)
        solves.clear()
        sample_size(SampleSizeInputs(alpha=0.05, psi=0.8, delta=1.0, tau=1.0))
        assert solves == [(NORMAL, 0.8)]

    @pytest.mark.parametrize("null", [NORMAL, T18, student_t(1), student_t(1e6)])
    def test_lower_boundaries_mirror_the_upper_bitwise(self, null):
        for alpha in (1e-8, 0.001, 0.01, 0.05, 0.1, 0.3, 0.49):
            q1, q2, q3, q4 = decision_regions(null, alpha).boundaries
            assert q1.hex() == (-q4).hex() == quantile(null, alpha / 2.0).hex()
            assert q2.hex() == (-q3).hex() == quantile(null, alpha).hex()

    def test_middle_boundaries_are_positive_zero_at_half(self):
        for null in (NORMAL, T18):
            _, q2, q3, _ = decision_regions(null, 0.5).boundaries
            assert math.copysign(1.0, q2) == math.copysign(1.0, q3) == 1.0


T3 = student_t(3)
ENGINES = {
    "five_decision": five_decision,
    "kaiser_decision": kaiser_decision,
    "jones_tukey_decision": jones_tukey_decision,
    "five_decision_via_three_tests": five_decision_via_three_tests,
}
# Each takes a null in place of T3 (or CHICK's null) at alpha 0.05.
NULL_CALLS = {
    "decision_regions": lambda null: decision_regions(null, 0.05),
    **{
        name: lambda null, engine=engine: engine(2.5, null, 0.05)
        for name, engine in ENGINES.items()
    },
    "five_decision_via_ci": lambda null: five_decision_via_ci(
        CHICK._replace(null=null), 0.0, 0.05
    ),
    "quantile": lambda null: quantile(null, 0.9),
    "cdf": lambda null: cdf(null, 1.0),
    "density": lambda null: density(null, 1.0),
}
ALPHA_CALLS = {
    "decision_regions": lambda alpha: decision_regions(T3, alpha),
    **{
        name: lambda alpha, engine=engine: engine(2.5, T3, alpha)
        for name, engine in ENGINES.items()
    },
}


class TestInputsCheckedBeforeTheCaches:
    """A null that is not a NullDistribution, and an alpha that cannot
    be hashed, meet their rule's ValueError whether or not the caches
    hold an equal T3 entry: the outcome never depends on their history."""

    @pytest.fixture(params=["cold", "warm"])
    def caches(self, request):
        decision_regions.cache_clear()
        distributions._upper_quantile.cache_clear()
        if request.param == "warm":
            decision_regions(T3, 0.05)
            quantile(T3, 0.9)

    # The tuple equals T3 and hashes as it does, so a cache keyed by T3
    # would answer for it.
    @pytest.mark.parametrize(
        "null", ["t", None, (Kind.STUDENT_T, 3.0)], ids=["str", "None", "tuple"]
    )
    @pytest.mark.parametrize("call", NULL_CALLS)
    def test_null_that_is_not_a_null_distribution(self, caches, call, null):
        with pytest.raises(ValueError) as exc:
            NULL_CALLS[call](null)
        assert str(exc.value) == f"null must be a NullDistribution, got {null!r}"

    @pytest.mark.parametrize("call", ALPHA_CALLS)
    def test_unhashable_alpha(self, caches, call):
        with pytest.raises(ValueError) as exc:
            ALPHA_CALLS[call]([0.05])
        assert str(exc.value) == "alpha must be a number, got [0.05]"

    def test_the_cache_counts_every_lookup(self):
        # The traced benchmark reads decision_regions.cache_info() to
        # tag each call cold or warm, and clears the cache before a run.
        decision_regions.cache_clear()
        decision_regions(T3, 0.05)
        info = decision_regions.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        decision_regions(T3, 0.05)
        assert decision_regions.cache_info().hits == 1
        five_decision(2.5, T3, 0.05)
        info = decision_regions.cache_info()
        assert (info.hits, info.misses) == (2, 1)


class TestNestedIntervals:
    @pytest.mark.parametrize("alpha", [0.10, 0.05, 0.01, 0.005])
    def test_equal_confidence_interval_at_round_levels(self, alpha):
        wide, narrow = decision_regions(CHICK.null, alpha).nested_intervals(
            CHICK.estimate, CHICK.se
        )
        assert wide == confidence_interval(CHICK, 1.0 - alpha)
        assert narrow == confidence_interval(CHICK, 1.0 - 2.0 * alpha)

    def test_narrow_interval_is_the_estimate_at_half(self):
        wide, narrow = decision_regions(T18, 0.5).nested_intervals(1.25, 2.0)
        assert narrow == (1.25, 1.25)
        assert wide[0] < 1.25 < wide[1]

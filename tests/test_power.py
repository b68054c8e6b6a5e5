"""Wald power formulas, sample-size planning, and the strict-target
reduction table."""

import math
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from fivedecision.decisions import Hypothesis
from fivedecision.power import (
    DEFAULT_TABLE_ALPHAS,
    DEFAULT_TABLE_PSIS,
    PowerSpec,
    SampleSizeInputs,
    as_whole_percent,
    power_wald,
    reduction,
    reduction_table,
    sample_size,
)

# Reference 4x5 table of whole-percent reductions, rows over
# alpha = 5%, 1%, 0.5%, 0.1%, columns over psi = 50..99%.
REDUCTION_PERCENTS = [
    [30, 21, 18, 17, 14],
    [18, 14, 13, 11, 10],
    [16, 12, 11, 10, 9],
    [12, 9, 9, 8, 7],
]

# scipy cross-checked values at alpha=0.05, effect=2.5.
PSI_5 = 0.705413902442457
PSI_4 = 0.8037649400154937
PSI_1 = 4.098671343101083e-06
PSI_2 = 1.700154203168282e-05

PLAN = SampleSizeInputs(alpha=0.05, psi=0.80, delta=0.5, tau=math.sqrt(2.0))


class TestPowerWald:
    def test_frozen_values_at_effect_two_and_half(self):
        specs = {
            Hypothesis.H5: PSI_5,
            Hypothesis.H4: PSI_4,
        }
        for target, expected in specs.items():
            got = power_wald(PowerSpec(0.05, 2.5, target))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_frozen_wrong_side_values(self):
        with pytest.warns(UserWarning):
            psi1 = power_wald(PowerSpec(0.05, 2.5, Hypothesis.H1))
        with pytest.warns(UserWarning):
            psi2 = power_wald(PowerSpec(0.05, 2.5, Hypothesis.H2))
        assert psi1 == pytest.approx(PSI_1, rel=1e-9)
        assert psi2 == pytest.approx(PSI_2, rel=1e-9)

    def test_display_percentages(self):
        assert round(100 * power_wald(PowerSpec(0.05, 2.5, Hypothesis.H5)), 1) == 70.5
        assert round(100 * power_wald(PowerSpec(0.05, 2.5, Hypothesis.H4)), 1) == 80.4

    def test_size_at_null_effect(self):
        assert power_wald(PowerSpec(0.05, 0.0, Hypothesis.H4)) == pytest.approx(
            0.05, abs=1e-12
        )
        assert power_wald(PowerSpec(0.05, 0.0, Hypothesis.H5)) == pytest.approx(
            0.025, abs=1e-12
        )

    def test_scipy_cross_check(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            alpha = float(rng.uniform(0.005, 0.5))
            effect = float(rng.uniform(0.0, 4.0))
            mine = power_wald(PowerSpec(alpha, effect, Hypothesis.H5))
            ref = float(sps.norm.cdf(sps.norm.ppf(alpha / 2) + effect))
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_strict_rejection_is_easier(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            alpha = float(rng.uniform(0.005, 0.5))
            effect = float(rng.uniform(0.0, 4.0))
            psi4 = power_wald(PowerSpec(alpha, effect, Hypothesis.H4))
            psi5 = power_wald(PowerSpec(alpha, effect, Hypothesis.H5))
            assert psi4 >= psi5
            psi1 = power_wald(PowerSpec(alpha, -effect, Hypothesis.H1))
            psi2 = power_wald(PowerSpec(alpha, -effect, Hypothesis.H2))
            assert psi2 >= psi1

    def test_monotone_in_effect(self):
        values = [
            power_wald(PowerSpec(0.05, e, Hypothesis.H5))
            for e in np.linspace(0, 5, 101)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_sign_mismatch_warns(self):
        with pytest.warns(UserWarning):
            PowerSpec(0.05, -1.0, Hypothesis.H5)
        with pytest.warns(UserWarning):
            PowerSpec(0.05, 1.0, Hypothesis.H2)

    def test_zero_effect_does_not_warn(self, recwarn):
        PowerSpec(0.05, 0.0, Hypothesis.H4)
        assert len(recwarn) == 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            PowerSpec(0.0, 1.0, Hypothesis.H5)
        with pytest.raises(ValueError):
            PowerSpec(0.6, 1.0, Hypothesis.H5)
        with pytest.raises(ValueError):
            PowerSpec(0.05, 1.0, Hypothesis.NONE)


class TestSampleSize:
    def test_worked_example(self):
        non_strict = sample_size(PLAN, strict=False)
        strict = sample_size(PLAN, strict=True)
        assert non_strict.n == 63
        assert strict.n == 50
        assert non_strict.n_exact == pytest.approx(62.79103787479271, abs=1e-9)
        assert strict.n_exact == pytest.approx(49.46045785615813, abs=1e-9)

    def test_strict_needs_fewer(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            inputs = SampleSizeInputs(
                alpha=float(rng.uniform(0.001, 0.2)),
                psi=float(rng.uniform(0.5, 0.99)),
                delta=float(rng.uniform(0.1, 2.0)),
                tau=float(rng.uniform(0.5, 3.0)),
            )
            assert (
                sample_size(inputs, strict=True).n_exact
                <= sample_size(inputs, strict=False).n_exact
            )

    def test_doubling_delta_quarters_n(self):
        wide = sample_size(PLAN, strict=False).n_exact
        inputs = SampleSizeInputs(alpha=0.05, psi=0.80, delta=1.0, tau=math.sqrt(2.0))
        assert sample_size(inputs, strict=False).n_exact == wide / 4.0

    def test_reduction_matches_size_ratio(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            alpha = float(rng.uniform(0.001, 0.2))
            psi = float(rng.uniform(0.5, 0.99))
            inputs = SampleSizeInputs(alpha=alpha, psi=psi, delta=0.7, tau=1.3)
            ratio = (
                sample_size(inputs, strict=True).n_exact
                / sample_size(inputs, strict=False).n_exact
            )
            assert 1.0 - ratio == pytest.approx(reduction(alpha, psi), abs=1e-12)

    def test_power_roundtrip(self):
        # The effect implied by n_exact returns exactly the planned
        # power through the matching psi formula.
        for strict, target in ((False, Hypothesis.H5), (True, Hypothesis.H4)):
            n_exact = sample_size(PLAN, strict=strict).n_exact
            effect = PLAN.delta * math.sqrt(n_exact) / PLAN.tau
            got = power_wald(PowerSpec(PLAN.alpha, effect, target))
            assert got == pytest.approx(PLAN.psi, abs=1e-9)

    def test_infeasible_power(self):
        with pytest.raises(ValueError):
            sample_size(SampleSizeInputs(alpha=0.05, psi=0.01, delta=0.5, tau=1.0))

    def test_underflow_to_zero_is_out_of_range(self):
        # tau**2 underflows to 0, which would read as a plan of n = 0.
        inputs = SampleSizeInputs(alpha=0.05, psi=0.8, delta=10.0, tau=math.sqrt(5e-324))
        with pytest.raises(ValueError, match="out of range"):
            sample_size(inputs)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            SampleSizeInputs(alpha=0.05, psi=0.8, delta=0.0, tau=1.0)
        with pytest.raises(ValueError):
            SampleSizeInputs(alpha=0.05, psi=0.8, delta=0.5, tau=0.0)
        with pytest.raises(ValueError):
            SampleSizeInputs(alpha=0.05, psi=1.0, delta=0.5, tau=1.0)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 0\.5\]"):
            SampleSizeInputs(alpha=0.7, psi=0.8, delta=0.5, tau=1.0)


def _decimal_half_up(fraction):
    # to_integral_value, unlike quantize, needs no context precision.
    return int(Decimal(fraction * 100.0).to_integral_value(rounding=ROUND_HALF_UP))


class TestReduction:
    def test_frozen_value(self):
        assert reduction(0.05, 0.80) == pytest.approx(0.21230067968005517, abs=1e-12)

    def test_display_values(self):
        assert as_whole_percent(reduction(0.05, 0.80)) == 21
        assert as_whole_percent(reduction(0.05, 0.50)) == 30
        assert as_whole_percent(reduction(0.001, 0.99)) == 7

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(1.5e306)  # 100 times it overflows
    def test_whole_percent_matches_decimal_half_up(self, fraction):
        if not math.isfinite(fraction * 100.0):
            with pytest.raises(OverflowError):
                as_whole_percent(fraction)
        else:
            assert as_whole_percent(fraction) == _decimal_half_up(fraction)

    def test_whole_percent_ties_round_away_from_zero(self):
        for k in range(-300, 300):
            fraction = (k + 0.5) / 100.0
            assert as_whole_percent(fraction) == _decimal_half_up(fraction)
        assert as_whole_percent(0.005) == 1
        assert as_whole_percent(-0.005) == -1
        assert as_whole_percent(0.125) == 13

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_whole_percent_refuses_non_finite(self, value):
        # The CLI reports (ValueError, ArithmeticError) as a usage error.
        with pytest.raises((ValueError, ArithmeticError)):
            as_whole_percent(value)

    def test_strictly_positive(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            assert reduction(float(rng.uniform(0.001, 0.3)), float(rng.uniform(0.4, 0.99))) > 0


class TestReductionTable:
    def test_all_twenty_cells(self):
        table = reduction_table()
        got = [[as_whole_percent(cell) for cell in row] for row in table]
        assert got == REDUCTION_PERCENTS

    def test_single_cell(self):
        assert reduction_table([0.05], [0.8])[0][0] == reduction(0.05, 0.8)

    def test_monotone_rows_and_columns(self):
        table = reduction_table()
        for row in table:
            assert all(b < a for a, b in zip(row, row[1:]))
        for j in range(len(DEFAULT_TABLE_PSIS)):
            column = [table[i][j] for i in range(len(DEFAULT_TABLE_ALPHAS))]
            assert all(b < a for a, b in zip(column, column[1:]))

"""Monte Carlo harness checks: substream determinism, agreement with
the scalar pipeline, exactness against the noncentral t, merge
structure, and error-rate bands."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

import fivedecision.decisions
import fivedecision.simulation
from fivedecision.decisions import five_decision
from fivedecision.distributions import student_t
from fivedecision.simulation import (
    Procedure,
    SimulationConfig,
    SimulationReport,
    _CHUNK_TRIALS,
    _trial_draws,
    run_simulation,
    wrong_rejection_grid,
)

BASE = SimulationConfig(
    n_per_group=30,
    mean_diff_over_sigma=0.0,
    alpha=0.05,
    trials=20000,
    seed=1,
    procedure=Procedure.FIVE_DECISION,
)


def _band(rate: float, trials: int) -> float:
    return 4.0 * math.sqrt(rate * (1.0 - rate) / trials)


def _draws_equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def _joined(*parts):
    return tuple(np.concatenate(col) for col in zip(*parts))


class TestSubstreams:
    def test_chunking_invariance(self):
        mono = _trial_draws(7, 0, 600, 17)
        parts = _joined(
            _trial_draws(7, 0, 1, 17),
            _trial_draws(7, 1, 299, 17),
            _trial_draws(7, 300, 300, 17),
        )
        assert _draws_equal(mono, parts)

    def test_chunking_invariance_across_blocks(self):
        edge = _CHUNK_TRIALS - 300
        mono = _trial_draws(7, edge, 600, 17)
        parts = _joined(
            _trial_draws(7, edge, 300, 17), _trial_draws(7, edge + 300, 300, 17)
        )
        assert _draws_equal(mono, parts)

    def test_draws_in_domain(self):
        z, v = _trial_draws(3, 0, 200, 10)
        assert z.shape == v.shape == (200,)
        assert np.isfinite(z).all()
        assert np.isfinite(v).all() and v.min() > 0.0

    def test_distinct_seeds_differ(self):
        for a, b in zip(_trial_draws(1, 0, 10, 5), _trial_draws(2, 0, 10, 5)):
            assert not np.array_equal(a, b)


class TestScalarAgreement:
    def test_tallies_match_scalar_pipeline(self):
        # Rebuild every trial's t in plain Python from its (Z, V) and
        # classify it with the scalar decision engine; the vectorized
        # tallies must agree exactly.  The run spans two stream blocks.
        cfg = SimulationConfig(
            n_per_group=6,
            mean_diff_over_sigma=0.4,
            alpha=0.05,
            trials=_CHUNK_TRIALS + 400,
            seed=99,
            procedure=Procedure.FIVE_DECISION,
        )
        report = run_simulation(cfg)

        n = cfg.n_per_group
        null = student_t(2 * n - 2)
        shift = cfg.mean_diff_over_sigma * math.sqrt(n / 2.0)
        counts = {k: 0 for k in (1, 2, 3, 4, 5)}
        z, v = _trial_draws(cfg.seed, 0, cfg.trials, n)
        for z_i, v_i in zip(z.tolist(), v.tolist()):
            t = (shift + z_i) / math.sqrt(v_i / (2 * n - 2))
            counts[five_decision(t, null, cfg.alpha).index] += 1
        assert counts == report.counts


def _binomial_z(count: int, trials: int, p: float) -> float:
    # Normal deviate of the exact binomial tail on the count's side of
    # the mean; stays meaningful where the expected count is below one.
    if count >= trials * p:
        tail = stats.binom.sf(count - 1, trials, p)
    else:
        tail = stats.binom.cdf(count, trials, p)
    return float(stats.norm.isf(min(tail, 0.5)))


class TestExactDistribution:
    # The pooled t under the simulated model is noncentral t with
    # df = 2n-2 and ncp = effect*sqrt(n/2), so every decision count is
    # binomial with a region probability from scipy's nct.  n = 2 is
    # the gamma shape-1 edge.
    TRIALS = 1 << 18

    @pytest.mark.parametrize("effect", [0.0, 0.5])
    @pytest.mark.parametrize("n", [2, 10, 63, 500])
    def test_counts_match_noncentral_t(self, n, effect):
        alpha = 0.05
        cfg = SimulationConfig(
            n_per_group=n,
            mean_diff_over_sigma=effect,
            alpha=alpha,
            trials=self.TRIALS,
            seed=1,
        )
        report = run_simulation(cfg)
        df = 2 * n - 2
        edges = stats.t.ppf([alpha / 2, alpha, 1 - alpha, 1 - alpha / 2], df)
        cdf = stats.nct(df, effect * math.sqrt(n / 2.0)).cdf(edges)
        probs = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
        for k, p in zip((1, 2, 3, 4, 5), probs):
            z = _binomial_z(report.counts[k], self.TRIALS, float(p))
            assert z <= 5.0, (k, report.counts[k], p, z)


class TestDeterminism:
    def test_identical_runs(self):
        a = run_simulation(BASE)
        b = run_simulation(BASE)
        assert a == b
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_worker_count_is_invisible(self):
        serial = run_simulation(BASE)
        parallel = run_simulation(BASE, workers=2)
        assert serial.counts == parallel.counts
        assert serial == parallel

    def test_seed_matters(self):
        other = dataclasses.replace(BASE, seed=2)
        assert run_simulation(other).counts != run_simulation(BASE).counts


class TestReportShape:
    def test_counts_and_freq_identities(self):
        report = run_simulation(BASE)
        assert sum(report.counts.values()) == BASE.trials
        assert sum(report.freq.values()) == pytest.approx(1.0, abs=1e-12)
        assert set(report.counts) == {1, 2, 3, 4, 5}
        assert all(se >= 0 for se in report.mc_se.values())

    def test_restricted_index_sets(self):
        kaiser = run_simulation(
            dataclasses.replace(BASE, procedure=Procedure.KAISER)
        )
        jt = run_simulation(
            dataclasses.replace(BASE, procedure=Procedure.JONES_TUKEY)
        )
        assert set(kaiser.counts) == {1, 3, 5}
        assert set(jt.counts) == {2, 3, 4}

    def test_single_trial_frequencies(self):
        cfg = dataclasses.replace(BASE, trials=1)
        report = run_simulation(cfg)
        assert sorted(report.freq.values()) == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_to_dict_schema(self):
        d = run_simulation(dataclasses.replace(BASE, trials=50)).to_dict()
        assert d["schema_version"] == 2
        assert d["procedure"] == "five-decision"
        assert set(d["counts"]) == {"1", "2", "3", "4", "5"}


class TestMergeStructure:
    def test_procedure_is_the_decisions_enum(self):
        # bench/workloads.py reaches the enum through this module.
        assert fivedecision.simulation.Procedure is fivedecision.decisions.Procedure

    def test_procedures_merge_the_same_draws(self):
        # Identical seed and effect give identical statistics, so the
        # classical procedures' tallies are exact merges of the
        # five-decision tallies.
        five = run_simulation(BASE).counts
        kaiser = run_simulation(
            dataclasses.replace(BASE, procedure=Procedure.KAISER)
        ).counts
        jt = run_simulation(
            dataclasses.replace(BASE, procedure=Procedure.JONES_TUKEY)
        ).counts
        assert kaiser[1] == five[1]
        assert kaiser[3] == five[2] + five[3] + five[4]
        assert kaiser[5] == five[5]
        assert jt[2] == five[1] + five[2]
        assert jt[3] == five[3]
        assert jt[4] == five[4] + five[5]


class TestErrorRates:
    def test_size_at_null(self):
        report = run_simulation(BASE)
        rate = report.freq[1] + report.freq[5]
        assert abs(rate - BASE.alpha) <= _band(rate, BASE.trials)
        assert abs(report.freq[1] - 0.025) <= _band(report.freq[1], BASE.trials)
        assert abs(report.freq[5] - 0.025) <= _band(report.freq[5], BASE.trials)
        assert report.wrong_rejection_rate == pytest.approx(rate, abs=1e-15)

    def test_kaiser_size_at_null(self):
        report = run_simulation(dataclasses.replace(BASE, procedure=Procedure.KAISER))
        assert abs(report.wrong_rejection_rate - BASE.alpha) <= _band(
            report.wrong_rejection_rate, BASE.trials
        )

    def test_jones_tukey_rate_reported_unbounded(self):
        # At the null the two-one-sided procedure's directional calls
        # are tallied and reported; no alpha bound is claimed.
        report = run_simulation(
            dataclasses.replace(BASE, procedure=Procedure.JONES_TUKEY)
        )
        assert report.wrong_rejection_rate == pytest.approx(
            report.freq[2] + report.freq[4], abs=1e-15
        )
        assert 0.0 <= report.wrong_rejection_rate <= 1.0

    def test_conservative_off_null(self):
        rows = wrong_rejection_grid([-0.5, 0.5], BASE)
        for effect, rate, mc_se in rows:
            assert rate <= BASE.alpha + 4.0 * mc_se

    @pytest.mark.parametrize(
        "procedure, wrong_up, wrong_down",
        [
            (Procedure.FIVE_DECISION, (1, 2), (4, 5)),
            (Procedure.KAISER, (1,), (5,)),
            (Procedure.JONES_TUKEY, (2,), (4,)),
        ],
    )
    def test_wrong_side_classification(self, procedure, wrong_up, wrong_down):
        for effect, wrong in ((0.8, wrong_up), (-0.8, wrong_down)):
            report = run_simulation(
                dataclasses.replace(
                    BASE, procedure=procedure, mean_diff_over_sigma=effect
                )
            )
            assert report.wrong_rejection_rate == pytest.approx(
                sum(report.freq[k] for k in wrong), abs=1e-15
            )


class TestPowerBehavior:
    def test_rejection_grows_with_effect_and_n(self):
        small = run_simulation(
            dataclasses.replace(BASE, mean_diff_over_sigma=0.2, trials=5000)
        )
        medium = run_simulation(
            dataclasses.replace(BASE, mean_diff_over_sigma=0.5, trials=5000)
        )
        bigger_n = run_simulation(
            dataclasses.replace(
                BASE, mean_diff_over_sigma=0.5, n_per_group=60, trials=5000
            )
        )
        def upper(report: SimulationReport) -> float:
            return report.freq[4] + report.freq[5]
        assert upper(medium) > upper(small)
        assert upper(bigger_n) > upper(medium)
        assert upper(medium) >= medium.freq[5]

    def test_tracks_paper_scale_power(self):
        cfg = SimulationConfig(
            n_per_group=63,
            mean_diff_over_sigma=0.5,
            alpha=0.05,
            trials=20000,
            seed=1,
        )
        report = run_simulation(cfg)
        assert abs(report.freq[5] - 0.793) <= _band(report.freq[5], cfg.trials)


class TestValidation:
    def test_config_domain_errors(self):
        good = dict(
            n_per_group=10,
            mean_diff_over_sigma=0.0,
            alpha=0.05,
            trials=10,
            seed=0,
        )
        for bad in (
            {"n_per_group": 1},
            {"trials": 0},
            {"alpha": 0.0},
            {"alpha": 0.6},
            {"seed": -1},
            {"seed": 2**64},
            {"mean_diff_over_sigma": math.inf},
        ):
            with pytest.raises(ValueError):
                SimulationConfig(**{**good, **bad})

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            SimulationConfig(
                n_per_group=10**6,
                mean_diff_over_sigma=0.0,
                alpha=0.05,
                trials=10**9,
                seed=0,
            )

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            run_simulation(BASE, workers=0)

    @pytest.fixture
    def inline_pool(self, monkeypatch):
        """Stand-ins for the pool and the chunk kernel that run every task
        here, so no worker process is ever started.  Returns the pool
        sizes built and the (start, count) of every task, in order."""
        import concurrent.futures

        sizes, tasks = [], []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        chunk = fivedecision.simulation._simulate_chunk

        def recording_chunk(task):
            tasks.append(task[1:3])
            return chunk(task)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(fivedecision.simulation, "_simulate_chunk", recording_chunk)
        return sizes, tasks

    @pytest.mark.parametrize("workers, pool_size", [(2, 2), (64, 3)])
    def test_pool_never_larger_than_task_count(self, inline_pool, workers, pool_size):
        sizes, tasks = inline_pool
        cfg = dataclasses.replace(BASE, trials=2 * _CHUNK_TRIALS + 5)
        report = run_simulation(cfg, workers=workers)
        assert sizes == [pool_size]
        # Contiguous, block-aligned, covering [0, trials), at most one
        # task per worker.
        assert len(tasks) == pool_size <= workers
        assert tasks[0][0] == 0
        for (start, count), (next_start, _) in zip(tasks, tasks[1:]):
            assert next_start == start + count
        assert all(start % _CHUNK_TRIALS == 0 for start, _ in tasks)
        assert sum(count for _, count in tasks) == cfg.trials
        assert report == run_simulation(cfg, workers=1)

    def test_five_blocks_on_two_workers_split_three_and_two(self, inline_pool):
        sizes, tasks = inline_pool
        cfg = dataclasses.replace(BASE, trials=5 * _CHUNK_TRIALS)
        report = run_simulation(cfg, workers=2)
        assert sizes == [2]
        assert tasks == [(0, 3 * _CHUNK_TRIALS), (3 * _CHUNK_TRIALS, 2 * _CHUNK_TRIALS)]
        assert report == run_simulation(cfg, workers=1)

    def test_one_worker_runs_one_task_and_no_pool(self, inline_pool):
        sizes, tasks = inline_pool
        cfg = dataclasses.replace(BASE, trials=3 * _CHUNK_TRIALS + 7)
        run_simulation(cfg, workers=1)
        assert sizes == []
        assert tasks == [(0, cfg.trials)]

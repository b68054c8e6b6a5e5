"""Monte Carlo harness checks: substream determinism, agreement with
the scalar pipeline, exactness against the noncentral t, merge
structure, and error-rate bands."""

import json
import math
import os
import selectors
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import fivedecision.decisions
import fivedecision.simulation
from fivedecision.decisions import (
    decision_regions,
    five_decision,
    jones_tukey_decision,
    kaiser_decision,
)
from fivedecision.distributions import student_t
from fivedecision.simulation import (
    Procedure,
    SimulationConfig,
    SimulationReport,
    _CHUNK_TRIALS,
    _draws,
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


def _trial_draws(seed, start, count, n_per_group):
    """Copies of the (Z, V) of trials [start, start+count), joined: the
    blocks they touch, drawn as in a run of start + count trials, then
    cut at start."""
    end = start + count
    first = start // _CHUNK_TRIALS
    blocks = range(first, (end - 1) // _CHUNK_TRIALS + 1)
    draws = _draws(seed, blocks, end, n_per_group)
    zs, vs = zip(*[(z.copy(), v.copy()) for z, v in draws])
    lo = start - first * _CHUNK_TRIALS
    return np.concatenate(zs)[lo:], np.concatenate(vs)[lo:]


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

    @pytest.mark.parametrize("size", [_CHUNK_TRIALS, 700], ids=["full", "short"])
    def test_block_is_keyed_sfc64(self, size):
        # The stream definition, rebuilt independently: block b draws
        # from SFC64 keyed by child b of SeedSequence(seed), all B
        # normals first, then 2 * Gamma(n - 1) for the block's trials.
        seed, block, n = 12345, 3, 9
        gen = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block,)))
        )
        z = gen.standard_normal(_CHUNK_TRIALS)[:size]
        v = 2 * gen.standard_gamma(n - 1, size)
        assert _draws_equal(_trial_draws(seed, block * _CHUNK_TRIALS, size, n), (z, v))

    def test_seed_and_block_keys_do_not_alias(self):
        a = _trial_draws(0, _CHUNK_TRIALS, 100, 5)
        b = _trial_draws(1, 0, 100, 5)
        for x, y in zip(a, b):
            assert not np.array_equal(x, y)

    def test_largest_seed_draws(self):
        z, v = _trial_draws(2**64 - 1, 0, 50, 5)
        assert np.isfinite(z).all() and (v > 0.0).all()


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

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    @pytest.mark.parametrize(
        "procedure, engine",
        [
            (Procedure.FIVE_DECISION, five_decision),
            (Procedure.KAISER, kaiser_decision),
            (Procedure.JONES_TUKEY, jones_tukey_decision),
        ],
    )
    def test_ties_at_the_boundaries_match_the_scalar_engines(
        self, monkeypatch, alpha, procedure, engine
    ):
        # With V = 2n - 2 and no effect, t = Z exactly, so Z at each
        # boundary and one float step to either side probe the tie rule.
        n = 10
        null = student_t(2 * n - 2)
        ts = [
            x
            for q in decision_regions(null, alpha).boundaries
            for x in (math.nextafter(q, -math.inf), q, math.nextafter(q, math.inf))
        ]

        def boundary_draws(seed, blocks, trials, n_per_group):
            assert list(blocks) == [0]
            yield np.array(ts), np.full(trials, 2.0 * n_per_group - 2)

        monkeypatch.setattr(fivedecision.simulation, "_draws", boundary_draws)
        cfg = BASE._replace(n_per_group=n, alpha=alpha, trials=len(ts), procedure=procedure)
        expected = dict.fromkeys(procedure.index_set, 0)
        for t in ts:
            expected[engine(t, null, alpha).index] += 1
        assert run_simulation(cfg).counts == expected


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

    def test_worker_count_is_invisible(self, monkeypatch):
        # Five blocks, so that workers=2 forms two shares on two CPUs.
        monkeypatch.setattr(fivedecision.simulation, "_available_cpus", lambda: 2)
        cfg = BASE._replace(trials=5 * _CHUNK_TRIALS)
        serial = run_simulation(cfg)
        parallel = run_simulation(cfg, workers=2)
        assert serial.counts == parallel.counts
        assert serial == parallel

    def test_seed_matters(self):
        other = BASE._replace(seed=2)
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
            BASE._replace(procedure=Procedure.KAISER)
        )
        jt = run_simulation(
            BASE._replace(procedure=Procedure.JONES_TUKEY)
        )
        assert set(kaiser.counts) == {1, 3, 5}
        assert set(jt.counts) == {2, 3, 4}

    def test_single_trial_frequencies(self):
        cfg = BASE._replace(trials=1)
        report = run_simulation(cfg)
        assert sorted(report.freq.values()) == [0.0, 0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize("effect, decision", [(1e308, 5), (-1e308, 1)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_statistics_warn_nothing(
        self, monkeypatch, effect, decision, workers
    ):
        # At n = 2 the shift is the effect itself, so dividing by a
        # sqrt(V / 2) below 1 overflows t to +-inf in both shares.
        monkeypatch.setattr(fivedecision.simulation, "_available_cpus", lambda: 2)
        cfg = BASE._replace(
            n_per_group=2, mean_diff_over_sigma=effect, trials=4 * _CHUNK_TRIALS + 1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_simulation(cfg, workers=workers)
        assert report.counts[decision] == cfg.trials

    def test_to_dict_schema(self):
        d = run_simulation(BASE._replace(trials=50)).to_dict()
        assert d["schema_version"] == 3
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
            BASE._replace(procedure=Procedure.KAISER)
        ).counts
        jt = run_simulation(
            BASE._replace(procedure=Procedure.JONES_TUKEY)
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
        report = run_simulation(BASE._replace(procedure=Procedure.KAISER))
        assert abs(report.wrong_rejection_rate - BASE.alpha) <= _band(
            report.wrong_rejection_rate, BASE.trials
        )

    def test_jones_tukey_rate_reported_unbounded(self):
        # At the null the two-one-sided procedure's directional calls
        # are tallied and reported; no alpha bound is claimed.
        report = run_simulation(
            BASE._replace(procedure=Procedure.JONES_TUKEY)
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
                BASE._replace(procedure=procedure, mean_diff_over_sigma=effect)
            )
            assert report.wrong_rejection_rate == pytest.approx(
                sum(report.freq[k] for k in wrong), abs=1e-15
            )


class TestPowerBehavior:
    def test_rejection_grows_with_effect_and_n(self):
        small = run_simulation(
            BASE._replace(mean_diff_over_sigma=0.2, trials=5000)
        )
        medium = run_simulation(
            BASE._replace(mean_diff_over_sigma=0.5, trials=5000)
        )
        bigger_n = run_simulation(
            BASE._replace(mean_diff_over_sigma=0.5, n_per_group=60, trials=5000)
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
        with pytest.raises(ValueError, match="workers must be an integer, got 1.5"):
            run_simulation(BASE, workers=1.5)

    @pytest.fixture
    def inline_pool(self, monkeypatch):
        """Stand-ins for the thread pool and the chunk kernel that run
        every task in the calling thread, on a machine of 64 CPUs.
        Returns the pool sizes built and the block range of every task,
        in order."""
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
            tasks.append(task[1])
            return chunk(task)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(fivedecision.simulation, "_simulate_chunk", recording_chunk)
        monkeypatch.setattr(fivedecision.simulation, "_available_cpus", lambda: 64)
        return sizes, tasks

    @pytest.mark.parametrize("workers, task_count", [(2, 2), (64, 3)])
    def test_pool_never_larger_than_task_count(self, inline_pool, workers, task_count):
        sizes, tasks = inline_pool
        cfg = BASE._replace(trials=6 * _CHUNK_TRIALS + 5)
        report = run_simulation(cfg, workers=workers)
        # The calling thread runs the first task.
        assert sizes == [task_count - 1]
        # The seven blocks dealt out, at most one task per worker and
        # per two blocks.
        assert len(tasks) == task_count <= min(workers, 7 // 2)
        assert tasks == [range(k, 7, task_count) for k in range(task_count)]
        assert report == run_simulation(cfg, workers=1)

    def test_five_blocks_on_two_workers_split_three_and_two(self, inline_pool):
        sizes, tasks = inline_pool
        cfg = BASE._replace(trials=5 * _CHUNK_TRIALS)
        report = run_simulation(cfg, workers=2)
        assert sizes == [1]
        assert tasks == [range(0, 5, 2), range(1, 5, 2)]
        assert report == run_simulation(cfg, workers=1)

    def test_no_more_tasks_than_cpus(self, inline_pool, monkeypatch):
        sizes, tasks = inline_pool
        monkeypatch.setattr(fivedecision.simulation, "_available_cpus", lambda: 2)
        cfg = BASE._replace(trials=5 * _CHUNK_TRIALS)
        report = run_simulation(cfg, workers=100000)
        assert sizes == [1]
        assert tasks == [range(0, 5, 2), range(1, 5, 2)]
        assert report == run_simulation(cfg, workers=1)

    def test_one_worker_runs_one_task_and_no_pool(self, inline_pool):
        sizes, tasks = inline_pool
        cfg = BASE._replace(trials=3 * _CHUNK_TRIALS + 7)
        run_simulation(cfg, workers=1)
        assert sizes == []
        assert tasks == [range(4)]

    def test_below_the_floor_starts_no_pool(self, inline_pool):
        # A share runs two blocks or more, so a call of one to three
        # blocks, its last one full or short, runs on the calling thread
        # for any worker count.
        sizes, tasks = inline_pool
        for blocks in range(1, 4):
            for trials in (blocks * _CHUNK_TRIALS, blocks * _CHUNK_TRIALS - 700):
                cfg = BASE._replace(trials=trials)
                serial = run_simulation(cfg, workers=1)
                for workers in range(2, 9):
                    sizes.clear()
                    tasks.clear()
                    report = run_simulation(cfg, workers=workers)
                    assert sizes == []
                    assert tasks == [range(blocks)]
                    assert report == serial

    def test_every_block_runs_once_in_one_share_per_worker_block_and_cpu(
        self, inline_pool, monkeypatch
    ):
        sizes, tasks = inline_pool
        # Up to seven blocks, so that up to three shares form.
        for full in range(1, 7):
            for partial in (0, 1):
                cfg = BASE._replace(trials=full * _CHUNK_TRIALS + partial)
                blocks = full + partial
                serial = run_simulation(cfg)
                for cpus in range(1, 9):
                    monkeypatch.setattr(
                        fivedecision.simulation, "_available_cpus", lambda cpus=cpus: cpus
                    )
                    for workers in range(1, 9):
                        sizes.clear()
                        tasks.clear()
                        report = run_simulation(cfg, workers=workers)
                        shares = max(1, min(workers, blocks // 2, cpus))
                        assert sizes == ([shares - 1] if shares > 1 else [])
                        assert tasks == [range(k, blocks, shares) for k in range(shares)]
                        assert sorted(b for share in tasks for b in share) == list(
                            range(blocks)
                        )
                        assert report == serial


class TestThreads:
    def test_concurrent_callers_match_serial_reports(self):
        # 4 callers on 2 threads each, more threads than cores, with a
        # short switch interval: a buffer, cache or stop event shared
        # between calls would change some report.
        configs = [
            BASE._replace(n_per_group=n, mean_diff_over_sigma=effect, trials=trials, seed=seed)
            for n, effect, trials, seed in [
                (2, 0.0, 3 * _CHUNK_TRIALS + 7, 11),
                (10, 0.5, 4 * _CHUNK_TRIALS, 12),
                (63, -0.3, 4 * _CHUNK_TRIALS + 1, 13),
                (500, 0.2, 5 * _CHUNK_TRIALS - 3, 14),
            ]
        ]
        serial = [run_simulation(cfg, workers=1) for cfg in configs]
        fivedecision.decisions.decision_regions.cache_clear()
        start = threading.Barrier(len(configs))
        reports = [None] * len(configs)

        def call(i):
            start.wait(timeout=30)
            reports[i] = [run_simulation(configs[i], workers=2) for _ in range(3)]

        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert reports == [[report] * 3 for report in serial]

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_shares_read_the_boundaries_from_their_task(self, monkeypatch, workers):
        # The call solves the boundaries once and hands them to every
        # share, so no share touches the region cache.
        calls = []

        def counting_regions(null, alpha):
            calls.append((null, alpha))
            return decision_regions(null, alpha)

        monkeypatch.setattr(fivedecision.simulation, "decision_regions", counting_regions)
        monkeypatch.setattr(fivedecision.simulation, "_available_cpus", lambda: 64)
        # Ten blocks, so that workers=5 forms five shares.
        cfg = BASE._replace(trials=10 * _CHUNK_TRIALS)
        run_simulation(cfg, workers=workers)
        assert calls == [(student_t(2 * cfg.n_per_group - 2), cfg.alpha)]

    def test_error_in_one_share_stops_the_others(self, monkeypatch):
        # Share 1 fails on its first block.  The caller's share is held
        # before its first block until share 1 has ended, and must stop
        # after that block; the call re-raises share 1's error.
        draws = fivedecision.simulation._draws
        chunk = fivedecision.simulation._simulate_chunk
        share_1_ended = threading.Event()
        caller_blocks = []

        def failing_draws(seed, blocks, trials, n_per_group):
            if blocks.start:
                raise RuntimeError("share 1 failed")
            for block in draws(seed, blocks, trials, n_per_group):
                if not caller_blocks:
                    assert share_1_ended.wait(timeout=30)
                caller_blocks.append(blocks.start)
                yield block

        def signalling_chunk(task):
            try:
                return chunk(task)
            finally:
                if task[1].start:
                    share_1_ended.set()

        monkeypatch.setattr(fivedecision.simulation, "_draws", failing_draws)
        monkeypatch.setattr(fivedecision.simulation, "_simulate_chunk", signalling_chunk)
        monkeypatch.setattr(fivedecision.simulation, "_available_cpus", lambda: 2)
        cfg = BASE._replace(trials=20 * _CHUNK_TRIALS)
        with pytest.raises(RuntimeError, match="share 1 failed"):
            run_simulation(cfg, workers=2)
        assert len(caller_blocks) == 1

    @pytest.mark.skipif(sys.platform == "win32", reason="needs POSIX SIGINT")
    def test_sigint_stops_the_threads(self):
        # The child announces when a thread starts its task, is sent
        # SIGINT, and must exit long before its 10^9 trials (a minute on
        # two threads) could finish, with one line and status 130.  Each
        # announcement is one write: print writes the newline apart, so
        # two threads could interleave as "runningrunning\n\n".
        child = (
            "import sys\n"
            "from fivedecision import cli, simulation\n"
            "chunk = simulation._simulate_chunk\n"
            "def announcing_chunk(task):\n"
            "    sys.stdout.write('running\\n')\n"
    "    sys.stdout.flush()\n"
            "    return chunk(task)\n"
            "simulation._simulate_chunk = announcing_chunk\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        argv = ["simulate", "--n", "63", "--trials", "1000000000", "--workers", "2"]
        src = str(Path(fivedecision.simulation.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", child, *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                assert sel.select(timeout=30), "the simulation never started"
            assert proc.stdout.readline() == "running\n"
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=10)
            assert proc.returncode == 130
            assert proc.stderr.read() == "error: interrupted\n"
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()

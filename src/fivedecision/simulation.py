"""Seeded Monte Carlo harness for two-group normal experiments.

Each trial stands for two groups of n normal observations (the first
group shifted by the standardized mean difference, sigma fixed at 1)
and their pooled t statistic, classified by the configured procedure's
row of the merge table in decisions (home of `Procedure`) and tallied.
The observations themselves are never drawn: with sigma = 1 the
pooled t is a function of two independent sufficient statistics,

    t = (effect * sqrt(n/2) + Z) / sqrt(G / (n - 1)),
    Z ~ N(0, 1),  G ~ Gamma(n - 1) = chi^2(2n - 2) / 2,

which is its exact sampling distribution, so a trial costs O(1) for
any n.  Frequencies estimate the per-decision probabilities; the
wrong-rejection rate scores decisions against the true side of the
effect, read off the same table.

Reproducibility contract (`schema_version` 3): trials are grouped in
fixed blocks of _CHUNK_TRIALS, and block b draws all its Z values, then
all its G values, from its own SFC64 stream, keyed by
`SeedSequence(seed, spawn_key=(b,))`: child b of `SeedSequence(seed)`.
A trial's (Z, G) is therefore a pure function of seed and trial index,
and integer tallies merge associatively, so any split of the blocks
into shares, and so any worker count, yields identical reports.  The
draws come from numpy's normal and gamma samplers, so a numpy release
that changes either sampler changes the stream.

This is the package's one numpy module; it imports numpy inside its
functions, so importing it loads none.  A run solves the region
boundaries once, and a share (the blocks one thread runs) reads them
from its task, not from a cache.
"""

from __future__ import annotations

import math
import os
import threading
from collections import namedtuple

from .decisions import Procedure, decision_regions
from .decisions import _MERGE, _TIES_UP, _wrong_indices
from .distributions import _check_alpha, _check_finite, _check_int, _Checked, student_t

__all__ = [
    "Procedure",
    "SimulationConfig",
    "SimulationReport",
    "run_simulation",
]

# Trials per random-stream block, and shares are sets of whole blocks;
# part of the stream definition, so changing it changes every report.
_CHUNK_TRIALS = 16384
# Each share of a pooled call runs at least this many blocks, so a call
# of fewer than twice this many runs on the calling thread alone.  A
# pool thread's start and hand-off cost more than one block of work
# saves: in the benchmark's two-block two-worker calls
# (BENCH_5003df9.json) one block per share cost 1.10-1.37x the
# one-worker time per trial in every run.
_MIN_BLOCKS_PER_SHARE = 2


class SimulationConfig(
    _Checked,
    namedtuple(
        "SimulationConfig",
        "n_per_group mean_diff_over_sigma alpha trials seed procedure",
    )
):
    __slots__ = ()

    def __new__(
        cls,
        n_per_group: int,
        mean_diff_over_sigma: float,
        alpha: float,
        trials: int,
        seed: int,
        procedure: Procedure = Procedure.FIVE_DECISION,
    ):
        n_per_group = _check_int(n_per_group, "n_per_group", 2)
        trials = _check_int(trials, "trials", 1)
        seed = _check_int(seed, "seed")
        mean_diff_over_sigma = _check_finite(mean_diff_over_sigma, "mean_diff_over_sigma")
        alpha = _check_alpha(alpha)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if not isinstance(procedure, Procedure):
            raise ValueError(f"unknown procedure {procedure!r}")
        student_t(2 * n_per_group - 2)  # refuses df = 2n - 2 above 2**53
        return super().__new__(
            cls, n_per_group, mean_diff_over_sigma, alpha, trials, seed, procedure
        )


def _binomial_se(freq: float, trials: int) -> float:
    return math.sqrt(freq * (1.0 - freq) / trials)


class SimulationReport(namedtuple("SimulationReport", "config counts")):
    """counts maps each verdict of the procedure to its count; freq and
    mc_se, computed from it, to its frequency and Monte Carlo SE."""

    __slots__ = ()

    @property
    def freq(self) -> dict:
        return {k: c / self.config.trials for k, c in self.counts.items()}

    @property
    def mc_se(self) -> dict:
        return {k: _binomial_se(f, self.config.trials) for k, f in self.freq.items()}

    @property
    def wrong_rejection_rate(self) -> float:
        cfg = self.config
        wrong = _wrong_indices(cfg.procedure, cfg.mean_diff_over_sigma)
        return sum(self.counts[k] for k in wrong) / cfg.trials

    @property
    def wrong_rejection_mc_se(self) -> float:
        return _binomial_se(self.wrong_rejection_rate, self.config.trials)

    def to_dict(self) -> dict:
        """JSON-ready form; keys are stable and values full precision."""
        config = {**self.config._asdict(), "procedure": self.config.procedure.value}
        return {
            "schema_version": 3,
            **config,
            "counts": {str(k): v for k, v in self.counts.items()},
            "freq": {str(k): v for k, v in self.freq.items()},
            "mc_se": {str(k): v for k, v in self.mc_se.items()},
            "wrong_rejection_rate": self.wrong_rejection_rate,
            "wrong_rejection_mc_se": self.wrong_rejection_mc_se,
        }


def _draws(seed: int, blocks: range, trials: int, n_per_group: int):
    """Yield the (Z, G) sufficient statistics of each stream block in
    `blocks`, one view per block, of a run of `trials` trials: Z standard
    normal and G ~ Gamma(n_per_group - 1), which callers divide by
    n_per_group - 1.

    Block b holds trials [b*B, (b+1)*B) with B = _CHUNK_TRIALS, clipped
    at `trials`, so only the run's last block can be short; its SFC64
    stream is keyed by `SeedSequence(seed, spawn_key=(b,))`, numpy's
    way to derive independent streams, so a block's draws depend only
    on (seed, b).  Every block is drawn into the same two buffers,
    which callers may transform in place; the next block overwrites
    them.  Fresh block-sized buffers would be freed at the top of the
    heap, handed back to the system and faulted in again, which can
    cost a fifth of the run time.
    """
    import numpy as np

    z, v = np.empty(_CHUNK_TRIALS), np.empty(_CHUNK_TRIALS)
    for block in blocks:
        size = min(_CHUNK_TRIALS, trials - block * _CHUNK_TRIALS)
        gen = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block,)))
        )
        # All B normals come first, so the gammas start at the same
        # stream position however few of them are needed.
        gen.standard_normal(out=z)
        gen.standard_gamma(n_per_group - 1, out=v[:size])
        yield z[:size], v[:size]


def _simulate_chunk(task: tuple) -> list[int]:
    """How many trials of the blocks of a (cfg, blocks, stop, boundaries)
    task fall in each region 1-5 of `boundaries`, transforming the draws
    in place.  It runs in the calling thread or a pool thread; once the
    event `stop` is set, it returns after the block it is on, with the
    counts so far.  An error sets `stop`, so the other shares of the
    call end too.
    """
    import numpy as np

    cfg, blocks, stop, boundaries = task
    n = cfg.n_per_group
    shift = cfg.mean_diff_over_sigma * math.sqrt(n / 2.0)
    # past[k] counts the trials past boundaries 1..k (past[0] all
    # trials, past[5] none), so region k holds past[k - 1] - past[k];
    # counting past each boundary allocates no index array.
    past = [0] * 6
    try:
        # A t that overflows to +-inf still lies past q4 or below q1.
        # numpy's error state is per thread, so it is set here.
        with np.errstate(over="ignore"):
            for t, s in _draws(cfg.seed, blocks, cfg.trials, n):
                s /= n - 1
                np.sqrt(s, out=s)
                t += shift
                t /= s
                past[0] += t.size
                for k, (q, up) in enumerate(zip(boundaries, _TIES_UP), 1):
                    past[k] += int(np.count_nonzero(t >= q if up else t > q))
                if stop.is_set():
                    break
    except BaseException:
        stop.set()
        raise
    return [past[k] - past[k + 1] for k in range(5)]


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_simulation(cfg: SimulationConfig, workers: int = 1) -> SimulationReport:
    """Run all trials and tally decisions.

    The stream blocks are dealt out to min(`workers`, blocks // 2,
    available CPUs) shares, at least one, so that every share runs two
    blocks or more: share k runs blocks k, k + shares, k + 2 * shares,
    ...  A call of fewer than four blocks (65,536 trials) thus runs on
    the calling thread alone.  The first share runs in the calling
    thread, and the others on a thread pool with one thread each; they
    overlap because numpy's samplers and ufunc loops release the
    interpreter lock.  Whether that beats one share depends on the
    machine and the trial count.
    The report is identical for any worker count.  If any share raises,
    or the caller is interrupted (Ctrl-C), the other shares stop after
    their current block and the error propagates.
    """
    # numpy and its random module load here, not at module import, so
    # importing the package and every other CLI command start without
    # them; and before any pool thread starts, so that a Ctrl-C cannot
    # land in an import that another thread waits on.
    import numpy.random  # noqa: F401

    workers = _check_int(workers, "workers", 1)
    # Solved once, here: a solve that fails raises in the calling
    # thread, and the shares read the boundaries from their tasks.
    boundaries = decision_regions(student_t(2 * cfg.n_per_group - 2), cfg.alpha).boundaries

    # Share k runs blocks k, k + shares, ...: at most one share per
    # worker, per _MIN_BLOCKS_PER_SHARE blocks and per available CPU.
    # The event belongs to this call, so concurrent calls never stop
    # each other.
    blocks = -(-cfg.trials // _CHUNK_TRIALS)
    shares = max(1, min(workers, blocks // _MIN_BLOCKS_PER_SHARE, _available_cpus()))
    stop = threading.Event()
    tasks = [(cfg, range(k, blocks, shares), stop, boundaries) for k in range(shares)]
    if shares == 1:
        regions = _simulate_chunk(tasks[0])
    else:
        # The pool is imported only here, so a one-share call never loads it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=shares - 1) as pool:
            try:
                others = pool.map(_simulate_chunk, tasks[1:])
                tallies = [_simulate_chunk(tasks[0]), *others]
            finally:
                stop.set()
        regions = [sum(tally) for tally in zip(*tallies)]

    merge = _MERGE[cfg.procedure]
    counts = dict.fromkeys(cfg.procedure.index_set, 0)
    for region, count in enumerate(regions, 1):
        counts[merge[region]] += count
    return SimulationReport(cfg, counts)

"""Seeded Monte Carlo harness for two-group normal experiments.

Each trial stands for two groups of n normal observations (the first
group shifted by the standardized mean difference, sigma fixed at 1)
and their pooled t statistic, classified by the configured procedure's
row of the merge table in decisions (home of `Procedure`) and tallied.
The observations themselves are never drawn: with sigma = 1 the
pooled t is a function of two independent sufficient statistics,

    t = (effect * sqrt(n/2) + Z) / sqrt(V / (2n - 2)),
    Z ~ N(0, 1),  V ~ chi^2(2n - 2) = 2 * Gamma(n - 1),

which is its exact sampling distribution, so a trial costs O(1) for
any n.  Frequencies estimate the per-decision probabilities; the
wrong-rejection rate scores decisions against the true side of the
effect, read off the same table.

Reproducibility contract: trials are grouped in fixed blocks of
_CHUNK_TRIALS, and block b draws all its Z values, then all its V
values, from its own Philox stream (key = seed, counter word 2 = b).
A trial's (Z, V) is therefore a pure function of seed and trial index,
and integer tallies merge associatively, so any chunking or worker
count yields identical reports.  The draws come from numpy's normal
and gamma samplers, so a numpy release that changes either sampler
changes the stream.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .decisions import Procedure, decision_regions
from .decisions import _MERGE, _check_alpha, _index_from_boundaries, _wrong_indices
from .distributions import student_t

__all__ = [
    "Procedure",
    "SimulationConfig",
    "SimulationReport",
    "run_simulation",
    "wrong_rejection_grid",
]

# Trials per random-stream block, and tasks are whole runs of blocks;
# part of the stream definition, so changing it changes every report.
_CHUNK_TRIALS = 16384
# Refuse configurations that stand for more observations (2n per
# trial) than this.  The kernel draws two numbers per trial whatever
# n is, so this caps the modelled data size, not the draws.
_MAX_DRAWS = 1 << 40


@dataclass(frozen=True)
class SimulationConfig:
    n_per_group: int
    mean_diff_over_sigma: float
    alpha: float
    trials: int
    seed: int
    procedure: Procedure = Procedure.FIVE_DECISION

    def __post_init__(self) -> None:
        if self.n_per_group < 2:
            raise ValueError(f"n_per_group must be at least 2, got {self.n_per_group}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not math.isfinite(self.mean_diff_over_sigma):
            raise ValueError("mean_diff_over_sigma must be finite")
        _check_alpha(self.alpha)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if not isinstance(self.procedure, Procedure):
            raise ValueError(f"unknown procedure {self.procedure!r}")
        if 2 * self.n_per_group * self.trials > _MAX_DRAWS:
            raise ValueError("trials * n_per_group is too large to simulate")


@dataclass(frozen=True)
class SimulationReport:
    config: SimulationConfig
    counts: dict[int, int]
    freq: dict[int, float]
    mc_se: dict[int, float]
    wrong_rejection_rate: float
    wrong_rejection_mc_se: float
    seed: int

    def to_dict(self) -> dict:
        """JSON-ready form; keys are stable and values full precision."""
        return {
            "schema_version": 2,
            "procedure": self.config.procedure.value,
            "n_per_group": self.config.n_per_group,
            "mean_diff_over_sigma": self.config.mean_diff_over_sigma,
            "alpha": self.config.alpha,
            "trials": self.config.trials,
            "seed": self.seed,
            "counts": {str(k): v for k, v in self.counts.items()},
            "freq": {str(k): v for k, v in self.freq.items()},
            "mc_se": {str(k): v for k, v in self.mc_se.items()},
            "wrong_rejection_rate": self.wrong_rejection_rate,
            "wrong_rejection_mc_se": self.wrong_rejection_mc_se,
        }


def _draws(seed: int, start: int, count: int, n_per_group: int):
    """Yield the (Z, V) sufficient statistics of trials [start,
    start+count), one view per stream block they touch.

    Block b holds trials [b*B, (b+1)*B) with B = _CHUNK_TRIALS; its
    Philox counter starts at b in word 2, so blocks never share counter
    values, and a block's draws depend only on (seed, b).  Every block
    is drawn into the same two buffers, which callers may transform in
    place; the next block overwrites them.  Fresh block-sized buffers
    would be freed at the top of the heap, handed back to the system
    and faulted in again, which can cost a fifth of the run time.
    """
    import numpy as np

    z, v = np.empty(_CHUNK_TRIALS), np.empty(_CHUNK_TRIALS)
    end = start + count
    for block in range(start // _CHUNK_TRIALS, (end - 1) // _CHUNK_TRIALS + 1):
        first = block * _CHUNK_TRIALS
        lo, hi = max(start, first) - first, min(end, first + _CHUNK_TRIALS) - first
        gen = np.random.Generator(np.random.Philox(key=seed, counter=block << 128))
        # All B normals come first, so the gammas start at the same
        # stream position however few of them are needed.
        gen.standard_normal(out=z)
        gen.standard_gamma(n_per_group - 1, out=v[:hi])
        v[lo:hi] *= 2.0
        yield z[lo:hi], v[lo:hi]


def _trial_draws(
    seed: int, start: int, count: int, n_per_group: int
) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the (Z, V) of trials [start, start+count), joined."""
    import numpy as np

    draws = _draws(seed, start, count, n_per_group)
    zs, vs = zip(*[(z.copy(), v.copy()) for z, v in draws])
    return np.concatenate(zs), np.concatenate(vs)


def _simulate_chunk(args: tuple) -> np.ndarray:
    """Decision tallies (length-6 array indexed by decision) for trials
    [start, start+count), transforming the draws in place.  Top level
    so process pools can pickle it.
    """
    import numpy as np

    seed, start, count, n, effect, boundaries, merge = args
    shift = effect * math.sqrt(n / 2.0)
    merge = np.array(merge)
    totals = np.zeros(6, dtype=np.int64)
    for t, s in _draws(seed, start, count, n):
        s /= 2 * n - 2
        np.sqrt(s, out=s)
        t += shift
        t /= s
        idx = _index_from_boundaries(t, *boundaries)
        totals += np.bincount(merge[idx], minlength=6)
    return totals


def run_simulation(cfg: SimulationConfig, workers: int = 1) -> SimulationReport:
    """Run all trials and tally decisions.

    The trials are cut into at most `workers` contiguous, block-aligned
    tasks of equal block count (the last may be shorter).  One task
    runs in this process; more run on a process pool with one worker
    per task.  The report is identical for any worker count.
    """
    # numpy and the pool load here, not at module import, so importing
    # the package and every other CLI command start without them.  numpy
    # loads before the pool starts, so forked workers inherit it.
    import numpy as np

    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    null = student_t(2 * cfg.n_per_group - 2)
    boundaries = decision_regions(null, cfg.alpha).boundaries

    # ceil(blocks / workers) blocks per task
    blocks = -(-cfg.trials // _CHUNK_TRIALS)
    span = -(-blocks // workers) * _CHUNK_TRIALS
    tasks = [
        (
            cfg.seed,
            start,
            min(span, cfg.trials - start),
            cfg.n_per_group,
            cfg.mean_diff_over_sigma,
            boundaries,
            _MERGE[cfg.procedure],
        )
        for start in range(0, cfg.trials, span)
    ]
    if len(tasks) == 1:
        totals = _simulate_chunk(tasks[0])
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            totals = sum(pool.map(_simulate_chunk, tasks), np.zeros(6, np.int64))

    keys = cfg.procedure.index_set
    counts = {k: int(totals[k]) for k in keys}
    freq = {k: counts[k] / cfg.trials for k in keys}
    mc_se = {
        k: math.sqrt(freq[k] * (1.0 - freq[k]) / cfg.trials) for k in keys
    }
    wrong = _wrong_indices(cfg.procedure, cfg.mean_diff_over_sigma)
    wrong_count = sum(counts[k] for k in wrong)
    wrong_rate = wrong_count / cfg.trials
    wrong_se = math.sqrt(wrong_rate * (1.0 - wrong_rate) / cfg.trials)
    return SimulationReport(
        config=cfg,
        counts=counts,
        freq=freq,
        mc_se=mc_se,
        wrong_rejection_rate=wrong_rate,
        wrong_rejection_mc_se=wrong_se,
        seed=cfg.seed,
    )


def wrong_rejection_grid(
    effects: Sequence[float], cfg_template: SimulationConfig, workers: int = 1
) -> list[tuple[float, float, float]]:
    """Wrong-rejection rate at each effect, holding everything else
    (including the seed) fixed.  Returns (effect, rate, mc_se) rows."""
    rows = []
    for effect in effects:
        cfg = dataclasses.replace(cfg_template, mean_diff_over_sigma=float(effect))
        report = run_simulation(cfg, workers=workers)
        rows.append(
            (float(effect), report.wrong_rejection_rate, report.wrong_rejection_mc_se)
        )
    return rows

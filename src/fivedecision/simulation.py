"""Seeded Monte Carlo harness for two-group normal experiments.

Each trial stands for two groups of n normal observations (the first
group shifted by the standardized mean difference, sigma fixed at 1)
and their pooled t statistic, classified with the configured procedure
and tallied.  The observations themselves are never drawn: with sigma
= 1 the pooled t is a function of two independent sufficient
statistics,

    t = (effect * sqrt(n/2) + Z) / sqrt(V / (2n - 2)),
    Z ~ N(0, 1),  V ~ chi^2(2n - 2) = 2 * Gamma(n - 1),

which is its exact sampling distribution, so a trial costs O(1) for
any n.  Frequencies estimate the per-decision probabilities; the
wrong-rejection rate scores decisions against the true side of the
effect.

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
import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .decisions import _MERGE, _check_alpha, _index_from_boundaries, decision_regions
from .distributions import student_t

__all__ = [
    "Procedure",
    "SimulationConfig",
    "SimulationReport",
    "run_simulation",
    "wrong_rejection_grid",
]

# Trials per random-stream block, and per task on a process pool; part
# of the stream definition, so changing it changes every report.
_CHUNK_TRIALS = 16384
# Refuse configurations that stand for more observations (2n per
# trial) than this.  The kernel draws two numbers per trial whatever
# n is, so this caps the modelled data size, not the draws.
_MAX_DRAWS = 1 << 40


class Procedure(enum.Enum):
    FIVE_DECISION = "five-decision"
    KAISER = "kaiser"
    JONES_TUKEY = "jones-tukey"

    @property
    def index_set(self) -> tuple[int, ...]:
        return tuple(sorted(set(_MERGE[self.value][1:])))


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


def _blocks(start: int, count: int):
    """(block, lo, hi) for each stream block that trials
    [start, start+count) touch, where lo:hi is their span in the block."""
    end = start + count
    for block in range(start // _CHUNK_TRIALS, (end - 1) // _CHUNK_TRIALS + 1):
        first = block * _CHUNK_TRIALS
        yield block, max(start, first) - first, min(end, first + _CHUNK_TRIALS) - first


def _draw_block(seed: int, block: int, hi: int, n_per_group: int, z, v) -> None:
    """Fill z with block's B normals and v[:hi] with its first hi V values."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(key=seed, counter=block << 128))
    # All B normals come first, so the gammas start at the same
    # stream position however few of them are needed.
    gen.standard_normal(out=z)
    gen.standard_gamma(n_per_group - 1, out=v[:hi])
    v[:hi] *= 2.0


def _trial_draws(
    seed: int, start: int, count: int, n_per_group: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sufficient statistics (Z, V) of trials [start, start+count).

    Block b holds trials [b*B, (b+1)*B) with B = _CHUNK_TRIALS; its
    Philox counter starts at b in word 2, so blocks never share
    counter values.  A block's draws depend only on (seed, b), and any
    span of trials is sliced out of the blocks it touches.
    """
    import numpy as np

    z, v = np.empty(_CHUNK_TRIALS), np.empty(_CHUNK_TRIALS)
    zs, vs = [], []
    for block, lo, hi in _blocks(start, count):
        _draw_block(seed, block, hi, n_per_group, z, v)
        zs.append(z[lo:hi].copy())
        vs.append(v[lo:hi].copy())
    return np.concatenate(zs), np.concatenate(vs)


def _simulate_chunk(args: tuple) -> np.ndarray:
    """Decision tallies (length-6 array indexed by decision) for trials
    [start, start+count).  Top level so process pools can pickle it.

    Every block is drawn into the same two buffers and transformed in
    place.  Block-sized temporaries freed at the top of the heap are
    handed back to the system by the allocator and faulted in again on
    the next block, which can cost a fifth of the run time.
    """
    import numpy as np

    seed, start, count, n, effect, boundaries, procedure_value = args
    shift = effect * math.sqrt(n / 2.0)
    merge = np.array(_MERGE[procedure_value])
    z, v = np.empty(_CHUNK_TRIALS), np.empty(_CHUNK_TRIALS)
    totals = np.zeros(6, dtype=np.int64)
    for block, lo, hi in _blocks(start, count):
        _draw_block(seed, block, hi, n, z, v)
        t, s = z[lo:hi], v[lo:hi]
        s /= 2 * n - 2
        np.sqrt(s, out=s)
        t += shift
        t /= s
        idx = _index_from_boundaries(t, *boundaries)
        totals += np.bincount(merge[idx], minlength=6)
    return totals


def _wrong_indices(effect: float, procedure: Procedure) -> tuple[int, ...]:
    # Decisions that misstate the true side of the effect.  With the
    # effect exactly at zero the two-one-sided procedure has no valid
    # no-rejection guarantee; its directional decisions are counted and
    # reported without an alpha bound.
    if effect > 0:
        wrong = {1, 2}
    elif effect < 0:
        wrong = {4, 5}
    elif procedure is Procedure.JONES_TUKEY:
        wrong = {2, 4}
    else:
        wrong = {1, 5}
    return tuple(sorted(wrong & set(procedure.index_set)))


def run_simulation(cfg: SimulationConfig, workers: int = 1) -> SimulationReport:
    """Run all trials and tally decisions.

    workers > 1 distributes fixed-size chunks over a process pool; the
    report is identical for any worker count.
    """
    # numpy and the pool load here, not at module import, so importing
    # the package and every other CLI command start without them.
    import numpy as np

    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    null = student_t(2 * cfg.n_per_group - 2)
    boundaries = decision_regions(null, cfg.alpha).boundaries

    # One worker runs every block in one task, reusing its buffers; a
    # pool gets one task per block.
    span = cfg.trials if workers == 1 else _CHUNK_TRIALS
    tasks = [
        (
            cfg.seed,
            start,
            min(span, cfg.trials - start),
            cfg.n_per_group,
            cfg.mean_diff_over_sigma,
            boundaries,
            cfg.procedure.value,
        )
        for start in range(0, cfg.trials, span)
    ]
    totals = np.zeros(6, dtype=np.int64)
    if workers == 1 or len(tasks) == 1:
        for task in tasks:
            totals += _simulate_chunk(task)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            for counts in pool.map(_simulate_chunk, tasks):
                totals += counts

    keys = cfg.procedure.index_set
    counts = {k: int(totals[k]) for k in keys}
    freq = {k: counts[k] / cfg.trials for k in keys}
    mc_se = {
        k: math.sqrt(freq[k] * (1.0 - freq[k]) / cfg.trials) for k in keys
    }
    wrong_count = sum(counts[k] for k in _wrong_indices(cfg.mean_diff_over_sigma, cfg.procedure))
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

"""The cli_oneshot workload, plus what every benchmark process shares:
the checkout's paths, subprocess helpers, the JSON-lines output, peak
RSS, and the inputs' common design constants.

This module imports nothing from the package.  That matters for
``peak_rss_mb``: a process started by exec begins its ``ru_maxrss`` at
the peak RSS of the process that started it, so the CLI subprocesses
must be started by a process that has not loaded numpy.  Run as a
script, this is the measured process of ``cli_oneshot``:

    python3 bench/cli_workload.py --seed 1 --seconds 30

It starts ``python -m fivedecision`` subprocesses one at a time (a
closed loop with one caller) and prints the same JSON lines as
``bench/workloads.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "fivedecision"

ALPHAS = (0.10, 0.05, 0.01, 0.005)
PSIS = (0.80, 0.90, 0.95, 0.99)

def child_env() -> dict:
    """Environment for subprocesses: the same src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_python(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=False
    )


def emit(workload: str, outs: list, latencies_ns: list) -> None:
    """Print one batch of outputs and latencies as a JSON line."""
    sys.stdout.write(json.dumps({"w": workload, "out": outs, "lat": latencies_ns}) + "\n")
    sys.stdout.flush()


def time_python(args: list[str], env: dict) -> float:
    """Wall time of one fresh interpreter running ``args``."""
    start = perf_counter()
    proc = run_python(args, env)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{args} failed: {proc.stderr}")
    return elapsed


def wall_times_s(args: list[str], reps: int, env: dict) -> list[float]:
    """Wall times of ``reps`` fresh interpreters running ``args``, after
    one untimed run so that bytecode compilation is never timed."""
    run_python(args, env)
    return [time_python(args, env) for _ in range(reps)]


SETUP_ARGS = ["-c", "import fivedecision"]
START_ARGS = ["-S", "-c", "pass"]  # a bare interpreter: process start alone
SETUP_DURING = 20  # set-up samples spread across the timed loop
REFERENCE_LOOPS = 30_000  # 2 to 3 ms of pure Python on a shared 2-vCPU x86 VM


def loop_s() -> float:
    """Wall time of a fixed pure-Python loop that touches nothing of the
    package: how fast the machine runs this process right now."""
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return perf_counter() - start


class Sampler:
    """What a timed loop samples between its operations, to tell the
    machine's speed from the code's: ``loop_s`` after every operation or
    batch, and a bare interpreter start too if the operations start
    processes (``starts``); set-up time (a fresh interpreter importing
    the package) ``reps`` times at even intervals, each with a bare
    interpreter start.  The loop calls ``between_operations``, so no
    sample lands inside a timed operation."""

    def __init__(self, seconds: float, reps: int, starts: bool = False) -> None:
        start = perf_counter()
        self.due = [start + seconds * (i + 0.5) / reps for i in range(reps)]
        self.starts = starts
        self.env = child_env()
        self.samples: dict[str, list[float]] = {"setup_s": [], "start_s": [], "loop_s": []}

    def between_operations(self) -> None:
        self.samples["loop_s"].append(loop_s())
        if self.starts:
            self.samples["start_s"].append(time_python(START_ARGS, self.env))
        while self.due and perf_counter() >= self.due[0]:
            self.due.pop(0)
            self._setup()

    def _setup(self) -> None:
        self.samples["setup_s"].append(time_python(SETUP_ARGS, self.env))
        self.samples["start_s"].append(time_python(START_ARGS, self.env))

    def finish(self) -> dict[str, list[float]]:
        """Take the set-up samples not yet due; return every sample."""
        for _ in self.due:
            self._setup()
        self.due = []
        return self.samples


# Common designs (n_a, n_b), most popular first; requests pick them with
# Zipf weights, so they stay in the 512-entry region cache.  The rest of
# the two-group requests draw distinct group sizes up to A/B-test scale,
# which miss it.
POPULAR_DESIGNS = (
    (10, 10), (20, 20), (30, 30), (15, 15), (50, 50), (12, 12), (25, 25),
    (8, 8), (40, 40), (100, 100), (10, 12), (60, 60), (5, 5), (20, 25),
    (75, 75), (15, 20), (200, 200), (12, 15), (30, 40), (150, 150),
    (6, 8), (250, 250), (45, 50), (500, 500), (8, 10), (100, 120),
    (1000, 1000), (24, 30), (2000, 2000), (5000, 5000),
)
POPULAR_CUM_WEIGHTS = list(
    itertools.accumulate(1.0 / (rank + 1) ** 1.1 for rank in range(len(POPULAR_DESIGNS)))
)
CLI_KINDS = (
    "decide-summary",
    "decide-csv",
    "power",
    "samplesize",
    "table",
    "regions",
    "simulate",
)
_CLI_WEIGHTS = (25, 15, 12, 12, 10, 14, 12)  # assumed, not from usage data
CSV_PLACEHOLDER = "{csv}"
MIN_CLI_SAMPLES = 100  # ten samples above p90


def cli_invocations(seed: int):
    """Endless seeded mix of (kind, argv, csv rows or None)."""
    rng = random.Random(seed)
    while True:
        yield _cli_invocation(rng, rng.choices(CLI_KINDS, weights=_CLI_WEIGHTS)[0])


def cli_cycles(seed: int):
    """Endless cycles holding one invocation of every kind."""
    rng = random.Random(seed)
    while True:
        yield [_cli_invocation(rng, kind) for kind in CLI_KINDS]


def _cli_invocation(rng: random.Random, kind: str) -> tuple:
    fmt = rng.choice(("text", "json", "tsv"))
    alpha = rng.choice(ALPHAS)
    rows = None
    if kind == "decide-summary":
        n1, n2 = rng.choices(POPULAR_DESIGNS, cum_weights=POPULAR_CUM_WEIGHTS)[0]
        summary = f"{n1},{rng.uniform(-5, 5)!r},{rng.uniform(0.5, 2)!r},{n2},{rng.uniform(-5, 5)!r},{rng.uniform(0.5, 2)!r}"
        argv = ["decide", "--summary", summary, "--alpha", repr(alpha)]
    elif kind == "decide-csv":
        n1, n2 = rng.randint(3, 40), rng.randint(3, 40)
        shift = rng.gauss(0.0, 0.8)
        rows = [("ctrl", rng.gauss(0.0, 1.0)) for _ in range(n1)]
        rows += [("trt", rng.gauss(shift, 1.0)) for _ in range(n2)]
        argv = ["decide", "--csv", CSV_PLACEHOLDER, "--alpha", repr(alpha)]
    elif kind == "power":
        argv = ["power", "--alpha", repr(alpha), "--effect", repr(rng.uniform(-4, 4))]
        if rng.random() < 0.5:
            argv += ["--target", rng.choice(("H1", "H2", "H4", "H5"))]
    elif kind == "samplesize":
        argv = [
            "samplesize", "--alpha", repr(alpha), "--power", repr(rng.choice(PSIS)),
            "--delta", repr(rng.uniform(0.1, 2)), "--tau-sq", repr(rng.uniform(0.5, 9)),
        ]
    elif kind == "table":
        argv = ["table"]
        if rng.random() < 0.5:
            argv += ["--alphas", ",".join(repr(a) for a in rng.sample(ALPHAS, 2))]
            argv += ["--powers", ",".join(repr(p) for p in rng.sample(PSIS, 3))]
    elif kind == "regions":
        argv = ["regions"]
        if rng.random() < 0.25:
            argv += ["--null", "normal"]
        else:
            argv += ["--df", repr(float(rng.randint(2, 400)))]
        for a in rng.sample(ALPHAS, rng.randint(1, 3)):
            argv += ["--alpha", repr(a)]
    elif kind == "simulate":
        # trials * n is fixed, so every simulate invocation needs the same
        # memory and the children's peak RSS does not depend on the draw.
        n = rng.choice((5, 10, 20))
        argv = [
            "simulate", "--n", str(n),
            "--effect", rng.choice(("0", "0.3")), "--alpha", repr(alpha),
            "--trials", str(100_000 // n), "--seed", str(rng.randint(1, 10**6)),
            "--procedure", rng.choice(("five-decision", "kaiser", "jones-tukey")),
        ]
    else:
        raise ValueError(kind)
    return kind, argv + ["--format", fmt], rows


def run_cli(argv: list[str], rows, tmp: Path, index: int, env: dict) -> subprocess.CompletedProcess:
    if rows is not None:
        path = tmp / f"groups-{index}.csv"
        with open(path, "w", encoding="utf-8") as out:
            out.write("group,value\n")
            out.writelines(f"{g},{v!r}\n" for g, v in rows)
        argv = [str(path) if a == CSV_PLACEHOLDER else a for a in argv]
    return run_python(["-m", "fivedecision", *argv], env)


def cli_loop(invocations, seconds, min_samples, tracer=None, sampler=None) -> None:
    """One CLI subprocess at a time until ``seconds`` have passed and
    at least ``min_samples`` were taken; ``sampler`` is a Sampler."""
    env = child_env()
    tmp = ROOT / ".bench_tmp" / f"cli-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    count = 0
    try:
        for kind in CLI_KINDS:  # untimed: compiles bytecode, warms the file cache
            run_cli(*_first_of_kind(kind), tmp, -1, env)
        start_all = perf_counter()
        for index, (kind, argv, rows) in enumerate(invocations):
            if perf_counter() - start_all >= seconds and count >= min_samples:
                break
            if tracer is not None:
                tracer.request = index
                token = tracer.begin("cli." + kind.split("-")[0])
            start = perf_counter_ns()
            proc = run_cli(argv, rows, tmp, index, env)
            elapsed = perf_counter_ns() - start
            if tracer is not None:
                tracer.end(token)
            count += 1
            emit("cli_oneshot", [[proc.returncode, proc.stdout, proc.stderr[-2000:]]], [elapsed])
            if sampler is not None:
                sampler.between_operations()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _first_of_kind(kind: str) -> tuple:
    return _cli_invocation(random.Random(0), kind)[1:]


def peak_rss_mb() -> float:
    """Peak RSS of this process (its own VmHWM, which starts afresh at
    exec) and of its reaped children (their ru_maxrss), in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        own_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args(argv)
    min_samples = 5 if args.tiny else MIN_CLI_SAMPLES
    sampler = Sampler(args.seconds, 1 if args.tiny else SETUP_DURING, starts=True)
    cli_loop(cli_invocations(args.seed), args.seconds, min_samples, sampler=sampler)
    summary = {**sampler.finish(), "peak_rss_mb": peak_rss_mb()}
    sys.stdout.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

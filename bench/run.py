"""Benchmark of the fivedecision package, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it measures the package in that
checkout's ``src/`` without installing it, and refuses to run on any
other copy.  Workloads (closed loops with one caller; inputs come from
``--seed`` only):

  analysis_stream  in-process two-group, Wald and planning requests;
                   the quantile solver and the region cache do the work
  simulate         run_simulation over n in {10, 63, 500}, one worker,
                   with each n=63 five-decision run repeated on two
  cli_oneshot      ``python -m fivedecision`` subprocesses, one at a time

``--trace 0`` measures the end-to-end metrics.  A shared host's speed
drifts by a quarter or more within minutes, so between operations the
benchmark also times two references that run nothing of the package
(``Sampler`` in ``bench/cli_workload.py``): a fixed pure-Python loop,
and a bare interpreter start.  The metrics BENCHMARK.json gates are
scaled to a machine that runs the loop in LOOP_S and starts the bare
interpreter in START_S: in-process operations by the loop's median time
in the run (``work_scale``), subprocesses and ``setup_s`` by the start's
(``start_scale``); times are multiplied, and rates divided, by the
scale.  The workload's own metrics (``analyses_per_s`` and the rest)
and ``setup_s_measured`` are printed as measured, beside the scales.

``--trace 1`` is the separate traced run: it records a span around
every call into the package's public functions, over all three
workloads, and derives the per-layer metrics from the spans (written to
``.bench_trace/``).

The measured process is ``bench/workloads.py``; this process sets it up,
regenerates its inputs, checks every output against scipy
(``bench/oracle.py``), and prints a provenance line, one
``name value unit`` line per metric, and last the JSON result.
``bench/predictions.json`` maps each per-layer metric to the end-to-end
metrics it should (and should not) move.  ``python3 bench/selftest.py``
checks the benchmark itself at tiny sizes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict

import cli_workload as cw
import oracle
import workloads as wl  # pins the package to this checkout's src/

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "distributions.quantile_t_us": "us",
    "distributions.quantile_t_p99_us": "us",
    "distributions.quantile_normal_us": "us",
    "distributions.cdf_t_us": "us",
    "distributions.quantile_max_rel_err": "ratio",
    "stattests.two_sample_t_us": "us",
    "stattests.two_sample_t_raw_us": "us",
    "stattests.wald_us": "us",
    "stattests.confidence_interval_us": "us",
    "decisions.decision_regions_cold_us": "us",
    "decisions.decision_regions_warm_us": "us",
    "decisions.region_cache_hit_ratio": "ratio",
    "decisions.region_cache_hits": "count",
    "decisions.region_cache_misses": "count",
    "decisions.five_decision_us": "us",
    "decisions.kaiser_decision_us": "us",
    "decisions.jones_tukey_decision_us": "us",
    "decisions.five_decision_via_ci_us": "us",
    "power.power_wald_us": "us",
    "power.sample_size_us": "us",
    "power.reduction_table_us": "us",
    "simulation.trials_per_s_n10": "1/s",
    "simulation.trials_per_s_n63": "1/s",
    "simulation.trials_per_s_n500": "1/s",
    "simulation.parallel_efficiency": "ratio",
    "simulation.max_abs_z": "z",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.decide_s": "s",
    "cli.power_s": "s",
    "cli.samplesize_s": "s",
    "cli.table_s": "s",
    "cli.regions_s": "s",
    "cli.simulate_s": "s",
    "cli.main_decide_us": "us",
    "trace.overhead_ratio": "ratio",
}
SETUP_REPS = 5  # before and again after the workload
# What the gated metrics are scaled to: a machine that runs the
# reference loop in LOOP_S and starts a bare interpreter in START_S.
LOOP_S = 0.002
START_S = 0.015
RSS_METHOD = (
    "max of the workload process's own VmHWM and ru_maxrss of its reaped "
    "children (RUSAGE_CHILDREN); not ru_maxrss of the workload process, which "
    "Linux starts at the peak RSS of the process that started it"
)


def run_workload(workload, seed, seconds, trace, tiny) -> tuple[dict, dict, dict]:
    """Run the measured process; return its outputs and latencies (ns)
    by workload, and its summary."""
    if workload == "cli_oneshot" and not trace:
        cmd = [sys.executable, str(cw.ROOT / "bench" / "cli_workload.py")]
    else:
        cmd = [sys.executable, str(cw.ROOT / "bench" / "workloads.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    outputs = defaultdict(list)
    latencies = defaultdict(list)
    summary = None
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=cw.child_env()) as proc:
        for line in proc.stdout:
            record = json.loads(line)
            if "summary" in record:
                summary = record["summary"]
            else:
                outputs[record["w"]].extend(record["out"])
                latencies[record["w"]].extend(record["lat"])
    if proc.returncode != 0 or summary is None:
        raise SystemExit(f"bench: workload process failed with exit code {proc.returncode}")
    return outputs, latencies, summary


def library_json(kind: str, argv: list[str], rows) -> dict | None:
    """What ``decide``/``simulate`` JSON must hold, computed in process."""
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    if kind == "simulate":
        cfg = wl.simulation.SimulationConfig(
            n_per_group=int(opt["--n"]),
            mean_diff_over_sigma=float(opt["--effect"]),
            alpha=float(opt["--alpha"]),
            trials=int(opt["--trials"]),
            seed=int(opt["--seed"]),
            procedure=wl.simulation.Procedure(opt["--procedure"]),
        )
        return json.loads(json.dumps(wl.simulation.run_simulation(cfg).to_dict()))
    if not kind.startswith("decide"):
        return None
    alpha = float(opt["--alpha"])
    st = wl.stattests
    if rows is None:
        n1, m1, s1, n2, m2, s2 = opt["--summary"].split(",")
        first = st.GroupSummary(int(n1), float(m1), float(s1))
        second = st.GroupSummary(int(n2), float(m2), float(s2))
        r = st.two_sample_t(second, first, 0.0)
    else:
        groups = defaultdict(list)
        for label, value in rows:
            groups[label].append(value)
        (_, first), (_, second) = groups.items()
        r = st.two_sample_t_raw(second, first, 0.0)
    d = wl.decisions
    return {
        "t_stat": r.t_stat,
        "df": r.null.df,
        "p_two_sided": r.p_two_sided,
        "estimate": r.estimate,
        "se": r.se,
        "ci": {
            "wide": list(st.confidence_interval(r, 1 - alpha)),
            "narrow": list(st.confidence_interval(r, 1 - 2 * alpha)),
        },
        "decisions": {
            name: {"index": fn(r.t_stat, r.null, alpha).index}
            for name, fn in (
                ("five_decision", d.five_decision),
                ("kaiser", d.kaiser_decision),
                ("jones_tukey", d.jones_tukey_decision),
            )
        },
    }


def regenerate_inputs(workload: str, seed: int, count: int, trace: bool, tiny: bool) -> list:
    """The first ``count`` inputs the measured process was given."""
    if workload == "analysis_stream":
        stream = itertools.islice(wl.analysis_requests(seed), wl.warmup_for(tiny), None)
    elif workload == "simulate":
        stream = itertools.chain.from_iterable(wl.simulate_rounds(seed, wl.scale_for(tiny)))
    elif trace:
        stream = itertools.chain.from_iterable(cw.cli_cycles(seed))
    else:
        stream = cw.cli_invocations(seed)
    return list(itertools.islice(stream, count))


def check_outputs(inputs: dict, outputs: dict):
    """Check each workload's outputs against its regenerated inputs."""
    check = oracle.Check()
    for workload, outs in outputs.items():
        if workload == "analysis_stream":
            check += oracle.check_analysis(inputs[workload], outs)
        elif workload == "simulate":
            check += oracle.check_simulation(inputs[workload], outs)
        else:
            check += oracle.check_cli(inputs[workload], outs, library_json)
    return check


def speed_scales(workload: str, samples: dict) -> tuple[float, float]:
    """(the factor that scales this workload's operation times, the one
    that scales set-up time) to the machine of LOOP_S and START_S:
    in-process work by the reference loop, work in a fresh process by a
    bare interpreter start, each over its median in the run."""
    start = START_S / statistics.median(samples["start_s"])
    work = start if workload == "cli_oneshot" else LOOP_S / statistics.median(samples["loop_s"])
    return work, start


def end_to_end(workload: str, summary: dict, latencies_ns: list, inputs: list) -> tuple[dict, dict]:
    """(this workload's own metrics, as measured, by name with unit; the
    end-to-end metrics every workload reports, as BENCHMARK.json names
    them, before scaling to the reference speed)."""
    if workload == "analysis_stream":
        lat_us = [ns / 1e3 for ns in latencies_ns]
        rate = len(lat_us) / summary["busy_s"]
        p50, tail = statistics.median(lat_us), wl.percentile(lat_us, 99)
        named = {
            "analyses_per_s": (rate, "1/s"),
            "analysis_latency_p50_us": (p50, "us"),
            "analysis_latency_p99_us": (tail, "us"),
        }
        return named, {"ops_per_s": rate, "latency_p50_ms": p50 / 1e3, "latency_tail_ms": tail / 1e3}
    if workload == "simulate":
        calls = [(c["trials"], w, ns) for (c, w), ns in zip(inputs, latencies_ns)]

        def rate(workers, among=calls):
            chosen = [(t, ns) for t, w, ns in among if w == workers]
            return sum(t for t, _ in chosen) / (sum(ns for _, ns in chosen) / 1e9)

        # The loop runs whole rounds, each the same sweep of configs.
        per_round = len(wl.SWEEP) + len(wl.PARALLEL)
        rounds = [calls[i:i + per_round] for i in range(0, len(calls), per_round)]
        # The pool calls are gated on their own: ms per 1000 trials.
        pool_ms_per_1k = statistics.median(
            ns / 1e6 / (t / 1e3) for t, w, ns in calls if w == wl.PARALLEL_WORKERS
        )
        named = {
            "sim_trials_per_s": (rate(1), "1/s"),
            "sim_parallel_trials_per_s": (rate(wl.PARALLEL_WORKERS), "1/s"),
        }
        return named, {
            "ops_per_s": statistics.median(rate(1, r) for r in rounds),
            # Of whole rounds: the median of calls of ten sizes would
            # jump between them.
            "latency_p50_ms": statistics.median(sum(ns for *_, ns in r) / 1e6 for r in rounds),
            "latency_tail_ms": pool_ms_per_1k,
        }
    lat_s = [ns / 1e9 for ns in latencies_ns]
    p50, tail = statistics.median(lat_s), wl.percentile(lat_s, 90)
    named = {"cli_latency_p50_s": (p50, "s"), "cli_latency_p90_s": (tail, "s")}
    return named, {
        "ops_per_s": len(lat_s) / sum(lat_s),
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
    }


def _git_commit() -> str | None:
    try:
        return subprocess.run(["git", "-C", str(cw.ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, check=True).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.CalledProcessError):
        l3 = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fivedecision": wl.fivedecision.__version__,
        "package_dir": str(cw.PACKAGE_DIR),
        "git_commit": _git_commit(),
        "workers": {"simulate": [1, wl.PARALLEL_WORKERS], "other": 1},
        "rss": RSS_METHOD,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run.  Returns (result dict for the last line,
    report lines to print before it)."""
    lines = ["provenance " + json.dumps(provenance(workload, seed, trace))]
    env = cw.child_env()
    where = cw.run_python(["-c", "import fivedecision; print(fivedecision.__file__)"], env)
    if where.returncode != 0 or os.path.dirname(where.stdout.strip()) != str(cw.PACKAGE_DIR):
        raise SystemExit(f"bench: subprocesses import fivedecision from {where.stdout!r}")
    # Set-up, and a bare interpreter start to scale it by, are timed
    # before, during (by the measured process, between operations) and
    # after the workload, so that they sample the whole stretch of the
    # machine's varying speed.
    reps = 1 if tiny else SETUP_REPS
    samples = {"setup_s": [], "start_s": []}

    def sample_setup():
        if not trace:
            samples["setup_s"] += cw.wall_times_s(cw.SETUP_ARGS, reps, env)
            samples["start_s"] += cw.wall_times_s(cw.START_ARGS, reps, env)

    sample_setup()
    outputs, latencies, summary = run_workload(workload, seed, seconds, trace, tiny)
    sample_setup()
    inputs = {w: regenerate_inputs(w, seed, len(outs), trace, tiny) for w, outs in outputs.items()}
    check = check_outputs(inputs, outputs)
    lines += [f"check-failure {e}" for e in check.examples]
    ratio = check.failed / check.attempted
    lines.append(f"failed_ratio {ratio!r} ratio ({check.failed} failed of "
                 f"{check.attempted} attempted; {check.ties} boundary ties)")

    if trace:
        values = dict(summary["per_layer"])
        values["distributions.quantile_max_rel_err"] = float(
            oracle.quantile_max_rel_err(summary["replayed_quantiles"]))
        values["simulation.max_abs_z"] = check.max_abs_z
        units = PER_LAYER_UNITS
    else:
        named, values = end_to_end(workload, summary, latencies[workload], inputs[workload])
        lines += [f"{name} {value!r} {unit}" for name, (value, unit) in named.items()]
        for name in samples:
            samples[name] += summary[name]
        samples["loop_s"] = summary["loop_s"]
        work, start = speed_scales(workload, samples)
        setup = statistics.median(samples["setup_s"])
        lines += [f"setup_s_measured {setup!r} s", f"work_scale {work!r} ratio",
                  f"start_scale {start!r} ratio"]
        values = {name: v / work if name == "ops_per_s" else v * work for name, v in values.items()}
        values["setup_s"] = setup * start
        values["peak_rss_mb"] = summary["peak_rss_mb"]
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines += [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

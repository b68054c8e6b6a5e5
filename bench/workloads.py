"""Benchmark workloads: seeded input generators and the timed loops.

Run as a script, this is the measured process of ``analysis_stream``,
``simulate`` and the traced run (``cli_oneshot`` runs from
``bench/cli_workload.py``).  It imports the package from the checkout's
``src/`` and nothing heavier (never scipy), runs one workload for the
given time, and prints JSON lines to stdout:
``{"w": <workload>, "out": [...], "lat": [...]}`` batches of
per-operation outputs and latencies (ns), in input order, then one
``{"summary": {...}}``.  Nothing grows with the number of operations,
so peak RSS does not depend on speed.  ``bench/run.py`` starts it,
regenerates the inputs from the same seed, and checks the outputs.

    python3 bench/workloads.py --workload analysis_stream --seed 1 --seconds 30

Every workload is a closed loop with one caller: the next operation
starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import random
import statistics
import sys
import warnings
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

from cli_workload import (
    ALPHAS,
    CLI_KINDS,
    PACKAGE_DIR,
    POPULAR_CUM_WEIGHTS,
    POPULAR_DESIGNS,
    PSIS,
    ROOT,
    SETUP_DURING,
    SRC,
    Sampler,
    child_env,
    cli_cycles,
    cli_loop,
    emit,
    peak_rss_mb,
    run_python,
)


def _pin_package():
    """Import the package from this checkout's src/, never from an
    installed copy, and fail loudly if that is not what was imported."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise SystemExit(f"bench: no package at {PACKAGE_DIR}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fivedecision

    if Path(fivedecision.__file__).resolve().parent != PACKAGE_DIR:
        raise SystemExit(
            f"bench: imported fivedecision from {fivedecision.__file__}, not {PACKAGE_DIR}"
        )
    return fivedecision


fivedecision = _pin_package()
from fivedecision import cli, decisions, distributions, power, simulation, stattests  # noqa: E402

WORKLOADS = ("analysis_stream", "simulate", "cli_oneshot")
TARGETS = (
    decisions.Hypothesis.H1,
    decisions.Hypothesis.H2,
    decisions.Hypothesis.H4,
    decisions.Hypothesis.H5,
)

# ------------------------------------------------- the calls we time

# Every public function the workloads call, under its traced name.
PUBLIC = {
    "two_sample_t": ("stattests.two_sample_t", stattests.two_sample_t),
    "two_sample_t_raw": ("stattests.two_sample_t_raw", stattests.two_sample_t_raw),
    "wald": ("stattests.wald", stattests.wald),
    "confidence_interval": ("stattests.confidence_interval", stattests.confidence_interval),
    "decision_regions": ("decisions.decision_regions", decisions.decision_regions),
    "five_decision": ("decisions.five_decision", decisions.five_decision),
    "five_decision_via_ci": ("decisions.five_decision_via_ci", decisions.five_decision_via_ci),
    "kaiser_decision": ("decisions.kaiser_decision", decisions.kaiser_decision),
    "jones_tukey_decision": ("decisions.jones_tukey_decision", decisions.jones_tukey_decision),
    "power_wald": ("power.power_wald", power.power_wald),
    "sample_size": ("power.sample_size", power.sample_size),
    "reduction_table": ("power.reduction_table", power.reduction_table),
    "run_simulation": ("simulation.run_simulation", simulation.run_simulation),
    "cli_main": ("cli.main", cli.main),
}


def make_api(tracer=None) -> SimpleNamespace:
    """The public functions, plain or each wrapped in a span."""
    if tracer is None:
        return SimpleNamespace(**{attr: fn for attr, (_, fn) in PUBLIC.items()})
    api = {attr: tracer.wrap(name, fn) for attr, (name, fn) in PUBLIC.items()}
    regions = decisions.decision_regions

    def traced_regions(null, alpha):
        # Cold or warm by whether the call added a cache miss.
        misses = regions.cache_info().misses
        token = tracer.begin("decisions.decision_regions")
        try:
            return regions(null, alpha)
        finally:
            span = tracer.end(token)
            cold = regions.cache_info().misses > misses
            tracer.spans[-1] = span._replace(tag="cold" if cold else "warm")

    api["decision_regions"] = traced_regions
    return SimpleNamespace(**api)


# -------------------------------------------------------- analysis_stream

# The mix below (popular share, tail range, raw-value share, and the
# Zipf exponent of POPULAR_DESIGNS) is assumed, not taken from usage
# data.  It gives a region-cache miss on about 37% of two-group requests.
POPULAR_SHARE = 0.6
MAX_TAIL_N = 5e5
WARMUP_REQUESTS = 2000
BATCH = 256


def warmup_for(tiny: bool) -> int:
    """Untimed requests before the stream is timed."""
    return 50 if tiny else WARMUP_REQUESTS


def scale_for(tiny: bool) -> int:
    """Divisor of the simulation trial counts."""
    return 16 if tiny else 1


def analysis_requests(seed: int):
    """Endless request stream: 10% Wald, 10% planning, 80% two-group
    (a share of those from raw values)."""
    rng = random.Random(seed)
    while True:
        yield _analysis_request(rng)


def _analysis_request(rng: random.Random) -> tuple:
    alpha = rng.choice(ALPHAS)
    u = rng.random()
    if u < 0.10:
        se = rng.uniform(0.1, 5.0)
        return ("wald", alpha, rng.gauss(0.0, 3.0) * se, se)
    if u < 0.20:
        return (
            "plan",
            alpha,
            rng.uniform(-4.0, 4.0),
            rng.choice(PSIS),
            rng.uniform(0.1, 2.0),
            rng.uniform(0.5, 3.0),
        )
    if rng.random() < POPULAR_SHARE:
        n_a, n_b = rng.choices(POPULAR_DESIGNS, cum_weights=POPULAR_CUM_WEIGHTS)[0]
    else:
        n_a = round(math.exp(rng.uniform(math.log(3.0), math.log(MAX_TAIL_N))))
        n_b = max(2, round(n_a * math.exp(rng.uniform(-0.2, 0.2))))
    sd_a, sd_b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    pooled = ((n_a - 1) * sd_a**2 + (n_b - 1) * sd_b**2) / (n_a + n_b - 2)
    se = math.sqrt(pooled * (1.0 / n_a + 1.0 / n_b))
    mean_b = rng.uniform(-10.0, 10.0)
    # Statistics around +-2.5 reach all five regions at every alpha.
    mean_a = mean_b + rng.gauss(0.0, 2.5) * se
    if max(n_a, n_b) <= 100 and rng.random() < 0.15:
        xs_a = [rng.gauss(mean_a, sd_a) for _ in range(n_a)]
        xs_b = [rng.gauss(mean_b, sd_b) for _ in range(n_b)]
        return ("raw", alpha, xs_a, xs_b)
    return ("summary", alpha, n_a, mean_a, sd_a, n_b, mean_b, sd_b)


def statistic_for(api, req):
    """The test statistic a two-group or Wald request asks for."""
    kind = req[0]
    if kind == "wald":
        return api.wald(req[2], req[3])
    if kind == "raw":
        return api.two_sample_t_raw(req[2], req[3])
    _, _, n_a, m_a, s_a, n_b, m_b, s_b = req
    return api.two_sample_t(
        stattests.GroupSummary(n_a, m_a, s_a), stattests.GroupSummary(n_b, m_b, s_b)
    )


def run_request(api, req) -> list:
    """What ``cmd_decide`` (or a planning session) computes for one
    request, as a flat list of numbers."""
    alpha = req[1]
    if req[0] == "plan":
        _, _, effect, psi, delta, tau = req
        powers = [api.power_wald(power.PowerSpec(alpha, effect, h)) for h in TARGETS]
        inputs = power.SampleSizeInputs(alpha, psi, delta, tau)
        wide = api.sample_size(inputs, strict=False)
        narrow = api.sample_size(inputs, strict=True)
        return powers + [wide.n_exact, wide.n, narrow.n_exact, narrow.n]
    r = statistic_for(api, req)
    api.decision_regions(r.null, alpha)
    lo_w, hi_w = api.confidence_interval(r, 1.0 - alpha)
    lo_n, hi_n = api.confidence_interval(r, 1.0 - 2.0 * alpha)
    t, null = r.t_stat, r.null
    return [
        t,
        r.p_two_sided,
        r.estimate,
        r.se,
        lo_w,
        hi_w,
        lo_n,
        hi_n,
        api.five_decision(t, null, alpha).index,
        api.kaiser_decision(t, null, alpha).index,
        api.jones_tukey_decision(t, null, alpha).index,
    ]


def _guarded(api, req):
    try:
        return run_request(api, req)
    except Exception as exc:  # counted as a failed operation
        print(f"bench: {req[0]} request raised {exc!r}", file=sys.stderr)
        return None


def analysis_stream(seed, seconds, warmup, apis, sampler=None) -> dict:
    """Run the stream for ``seconds`` after ``warmup`` untimed requests.
    ``apis`` holds (api, tracer or None) pairs that take turns by batch,
    so a traced and an untraced api see the same stretch of the stream
    and of the machine; ``sampler`` is a Sampler.  Returns requests
    and busy seconds per api."""
    requests = analysis_requests(seed)
    for req in itertools.islice(requests, warmup):
        _guarded(apis[0][0], req)
    count = [0] * len(apis)
    busy_ns = [0] * len(apis)
    deadline = perf_counter() + seconds
    for turn in itertools.cycle(range(len(apis))):
        if perf_counter() >= deadline:
            break
        api, tracer = apis[turn]
        batch = list(itertools.islice(requests, BATCH))
        outs, lats = [], []
        batch_start = perf_counter_ns()
        for req in batch:
            if tracer is not None:
                tracer.request = sum(count) + len(outs)
                token = tracer.begin("request." + req[0])
            start = perf_counter_ns()
            outs.append(_guarded(api, req))
            lats.append(perf_counter_ns() - start)
            if tracer is not None:
                tracer.end(token)
        busy_ns[turn] += perf_counter_ns() - batch_start
        count[turn] += len(batch)
        emit("analysis_stream", outs, lats)
        if sampler is not None:
            sampler.between_operations()
    return {"count": count, "busy_s": [ns / 1e9 for ns in busy_ns]}


# ---------------------------------------------------------------- simulate

# (n, effect, procedure, trials).  Trial counts give each call, and so
# each n, a similar share of the wall time on one worker.
SWEEP = (
    (10, 0.0, "five-decision", 163840),
    (10, 0.5, "five-decision", 163840),
    (10, 0.5, "jones-tukey", 163840),
    (63, 0.0, "five-decision", 32768),
    (63, 0.5, "five-decision", 32768),
    (63, 0.0, "kaiser", 32768),
    (500, 0.0, "five-decision", 5120),
    (500, 0.5, "five-decision", 5120),
)
# Sweep entries re-run on the process pool right after their one-worker
# run; the two reports must be identical.
PARALLEL = (3, 4)
PARALLEL_WORKERS = 2


def simulate_rounds(seed: int, scale: int = 1):
    """Endless rounds; each is a list of (config kwargs, workers) calls."""
    rng = random.Random(seed)
    while True:
        cfgs = [
            dict(
                n_per_group=n,
                mean_diff_over_sigma=effect,
                alpha=rng.choice(ALPHAS),
                trials=max(1, trials // scale),
                seed=rng.getrandbits(63),
                procedure=procedure,
            )
            for n, effect, procedure, trials in SWEEP
        ]
        yield [(c, 1) for c in cfgs] + [(cfgs[i], PARALLEL_WORKERS) for i in PARALLEL]


def simulation_config(c: dict) -> simulation.SimulationConfig:
    return simulation.SimulationConfig(**{**c, "procedure": simulation.Procedure(c["procedure"])})


def simulate_loop(api, seed, seconds, scale=1, tracer=None, sampler=None) -> None:
    """Whole rounds until ``seconds`` have passed; ``sampler`` is a
    Sampler."""
    warm = next(simulate_rounds(seed + 1, scale=64))
    for c, workers in warm:
        simulation.run_simulation(simulation_config(c), workers=workers)
    calls = 0
    deadline = perf_counter() + seconds
    for rnd in simulate_rounds(seed, scale):
        if perf_counter() >= deadline:
            break
        outs, lats = [], []
        for c, workers in rnd:
            cfg = simulation_config(c)
            if tracer is not None:
                tracer.request = calls
            start = perf_counter_ns()
            try:
                report = api.run_simulation(cfg, workers=workers)
                out = [report.counts[k] for k in sorted(report.counts)]
            except Exception as exc:  # counted as a failed operation
                print(f"bench: run_simulation raised {exc!r}", file=sys.stderr)
                out = None
            elapsed = perf_counter_ns() - start
            if tracer is not None:
                tag = [c["n_per_group"], workers, c["trials"], c["procedure"]]
                tracer.spans[-1] = tracer.spans[-1]._replace(tag=tag)
            calls += 1
            outs.append(out)
            lats.append(elapsed)
            if sampler is not None:
                sampler.between_operations()
        emit("simulate", outs, lats)


# ---------------------------------------------------------- traced run

REPLAY_REQUESTS = 500
REDUCTION_TABLE_CALLS = 20
MAIN_DECIDE_CALLS = 200
CLI_TRACE_CYCLES = 3
STARTUP_REPS = 5


def replay_points(seed: int, warmup: int, count: int) -> dict:
    """The (null, p) quantile points, and the t values at which a CDF is
    evaluated, of the first ``count`` requests after ``warmup``."""
    normal = distributions.standard_normal()
    quantiles, cdfs = [], []
    plain = make_api()
    for req in itertools.islice(analysis_requests(seed), warmup, warmup + count):
        alpha = req[1]
        ps = (alpha / 2.0, alpha, 1.0 - alpha, 1.0 - alpha / 2.0)
        if req[0] == "plan":
            quantiles += [(None, p) for p in ps + (req[3],)]
            continue
        r = statistic_for(plain, req)
        df = r.null.df
        quantiles += [(df, p) for p in ps]
        cdfs.append((df, abs(r.t_stat)))
    nulls = {}

    def null_of(df):
        if df not in nulls:
            nulls[df] = normal if df is None else distributions.student_t(df)
        return nulls[df]

    return {
        "quantiles": [(null_of(df), df, p) for df, p in quantiles],
        "cdfs": [(null_of(df), df, t) for df, t in cdfs],
    }


def traced_run(seed, seconds, tiny) -> dict:
    from tracing import Tracer

    warmup = warmup_for(tiny)
    plain = make_api()
    tracer = Tracer()
    api = make_api(tracer)

    # analysis_stream, batches alternating between untraced and traced.
    decisions.decision_regions.cache_clear()
    stream = analysis_stream(seed, 0.3 * seconds, warmup, [(plain, None), (api, tracer)])
    tracer.request = None

    points = replay_points(seed, warmup, 50 if tiny else REPLAY_REQUESTS)
    replayed = []
    for null, df, p in points["quantiles"]:
        token = tracer.begin("distributions.quantile")
        q = distributions.quantile(null, p)
        tracer.end(token, "normal" if df is None else "t")
        replayed.append((df, p, q))
    for null, df, t in points["cdfs"]:
        token = tracer.begin("distributions.cdf")
        distributions.cdf(null, t)
        tracer.end(token, "normal" if df is None else "t")
    for req in itertools.islice(analysis_requests(seed), warmup, warmup + 200):
        if req[0] in ("summary", "raw"):
            api.five_decision_via_ci(statistic_for(plain, req), 0.0, req[1])
    for _ in range(REDUCTION_TABLE_CALLS):
        api.reduction_table()

    simulate_loop(api, seed, 0.3 * seconds, scale=scale_for(tiny), tracer=tracer)

    env = child_env()
    for name, args in (("cli.interpreter", ["-c", "pass"]), ("cli.import", ["-c", "import fivedecision.cli"])):
        run_python(args, env)  # untimed: compiles bytecode
        for _ in range(1 if tiny else STARTUP_REPS):
            token = tracer.begin(name)
            run_python(args, env)
            tracer.end(token)
    cycles = 1 if tiny else CLI_TRACE_CYCLES
    cli_loop(itertools.chain.from_iterable(cli_cycles(seed)), 0, cycles * len(CLI_KINDS), tracer=tracer)
    argv = ["decide", "--summary", "20,10.5,2.1,20,12.0,2.3", "--format", "json"]
    for _ in range(20 if tiny else MAIN_DECIDE_CALLS):
        with contextlib.redirect_stdout(io.StringIO()):
            api.cli_main(argv)

    return {
        "per_layer": per_layer_metrics(tracer, stream),
        "replayed_quantiles": replayed,
        "spans": tracer,
    }


def percentile(values, q: int) -> float:
    """Percentile q (1-99), by the exclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100)[q - 1]


def per_layer_metrics(tracer, stream) -> dict:
    m = {}
    med = tracer.median_us
    t_quantiles = tracer.durations_us("distributions.quantile", "t")
    m["distributions.quantile_t_us"] = statistics.median(t_quantiles)
    m["distributions.quantile_t_p99_us"] = percentile(t_quantiles, 99)
    m["distributions.quantile_normal_us"] = med("distributions.quantile", "normal")
    m["distributions.cdf_t_us"] = med("distributions.cdf", "t")
    for name in ("two_sample_t", "two_sample_t_raw", "wald", "confidence_interval"):
        m[f"stattests.{name}_us"] = med(f"stattests.{name}")
    cold = tracer.durations_us("decisions.decision_regions", "cold")
    warm = tracer.durations_us("decisions.decision_regions", "warm")
    m["decisions.decision_regions_cold_us"] = statistics.median(cold)
    m["decisions.decision_regions_warm_us"] = statistics.median(warm)
    m["decisions.region_cache_hits"] = len(warm)
    m["decisions.region_cache_misses"] = len(cold)
    m["decisions.region_cache_hit_ratio"] = len(warm) / (len(warm) + len(cold))
    for name in ("five_decision", "kaiser_decision", "jones_tukey_decision", "five_decision_via_ci"):
        m[f"decisions.{name}_us"] = med(f"decisions.{name}")
    for name in ("power_wald", "sample_size", "reduction_table"):
        m[f"power.{name}_us"] = med(f"power.{name}")

    runs = [s for s in tracer.spans if s.name == "simulation.run_simulation"]

    def rate(pick):
        chosen = [s for s in runs if pick(*s.tag)]
        return sum(s.tag[2] for s in chosen) / (sum(s.us for s in chosen) / 1e6)

    for n in (10, 63, 500):
        m[f"simulation.trials_per_s_n{n}"] = rate(lambda sn, w, t, proc, n=n: sn == n and w == 1)
    twins = {(SWEEP[i][0], SWEEP[i][2]) for i in PARALLEL}
    m["simulation.parallel_efficiency"] = rate(
        lambda n, w, t, proc: w == PARALLEL_WORKERS and (n, proc) in twins
    ) / (PARALLEL_WORKERS * rate(lambda n, w, t, proc: w == 1 and (n, proc) in twins))

    m["cli.interpreter_s"] = med("cli.interpreter") / 1e6
    m["cli.import_s"] = med("cli.import") / 1e6
    for sub in ("decide", "power", "samplesize", "table", "regions", "simulate"):
        m[f"cli.{sub}_s"] = med(f"cli.{sub}") / 1e6
    m["cli.main_decide_us"] = med("cli.main")
    (plain_n, traced_n), (plain_s, traced_s) = stream["count"], stream["busy_s"]
    m["trace.overhead_ratio"] = (traced_n / traced_s) / (plain_n / plain_s)
    return m


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--trace", action="store_true", help="the traced per-layer run; spans go to .bench_trace/"
    )
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args(argv)
    # Planning requests ask for all four targets, as `fivedecision power`
    # does; two of them always draw the wrong-side advisory warning.
    warnings.simplefilter("ignore")
    if args.trace:
        summary = traced_run(args.seed, args.seconds, args.tiny)
        tracer = summary.pop("spans")
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    elif args.workload == "analysis_stream":
        sampler = Sampler(args.seconds, 1 if args.tiny else SETUP_DURING)
        stream = analysis_stream(
            args.seed, args.seconds, warmup_for(args.tiny), [(make_api(), None)], sampler
        )
        summary = {"busy_s": stream["busy_s"][0]}
    elif args.workload == "simulate":
        sampler = Sampler(args.seconds, 1 if args.tiny else SETUP_DURING)
        simulate_loop(
            make_api(), args.seed, args.seconds, scale=scale_for(args.tiny), sampler=sampler
        )
        summary = {}
    else:
        parser.error("cli_oneshot runs from bench/cli_workload.py")
    if not args.trace:
        summary.update(sampler.finish())
    summary["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

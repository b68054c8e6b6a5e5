"""Command-line surface.

Subcommands:

    decide      run all three decision procedures on two-group data
    power       directional rejection probabilities at a given effect
    samplesize  required n for a target power, strict and non-strict
    table       grid of strict-over-non-strict sample-size reductions
    simulate    seeded Monte Carlo decision frequencies
    regions     decision-region boundaries for plotting

Each subcommand takes --format {text,json,tsv}.  JSON output is always
full precision with sorted keys; --precision only affects the rounded
text and tsv views, except that regions --format tsv prints each
number's full repr (for plotting) and table prints whole percents at
any precision.  Exit codes: 0 success, 1 stdout closed before
the output was written (as by `| head`), 2 usage or parse errors,
3 degenerate data, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

from .decisions import (
    Decision,
    Hypothesis,
    Procedure,
    _TARGETS,
    _also_rejected,
    _merged_decision,
    decision_regions,
)
from .distributions import Kind, NullDistribution, _check_positive

__all__ = ["main"]

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_INTERRUPTED = 130

SCHEMA_VERSION = 1


def _fmt(x: float, precision: int) -> str:
    return f"{x:.{precision}g}"


def _percent_label(level: float) -> str:
    return f"{100.0 * level:g}%"


# ---------------------------------------------------------------- decide

def _int_or_float(text: str) -> int | float:
    # So a group size of 10.5 or 1e1 meets GroupSummary's integer check.
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_summary(text: str) -> tuple[GroupSummary, GroupSummary]:
    from .stattests import GroupSummary

    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 6:
        raise ValueError(
            "--summary needs 6 comma-separated values: n1,mean1,sd1,n2,mean2,sd2"
        )
    try:
        n1, n2 = _int_or_float(parts[0]), _int_or_float(parts[3])
        mean1, sd1 = float(parts[1]), float(parts[2])
        mean2, sd2 = float(parts[4]), float(parts[5])
    except ValueError as exc:
        raise ValueError(f"--summary has a non-numeric field: {exc}") from exc
    try:
        return GroupSummary(n1, mean1, sd1), GroupSummary(n2, mean2, sd2)
    except ValueError as exc:
        raise ValueError(f"--summary describes an invalid group: {exc}") from exc


def _parse_csv(path: str) -> dict[str, list[float]]:
    """Groups in order of first appearance from a group,value file."""
    import csv

    groups: dict[str, list[float]] = {}
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != ["group", "value"]:
            raise ValueError(
                f"{path}: line 1: expected header 'group,value', got {','.join(header)!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(
                    f"{path}: line {line_no}: expected 2 fields, got {len(row)}"
                )
            label = row[0].strip()
            if not label:
                raise ValueError(f"{path}: line {line_no}: empty group label")
            try:
                value = float(row[1])
            except ValueError:
                raise ValueError(
                    f"{path}: line {line_no}: non-numeric value {row[1]!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {line_no}: non-finite value")
            groups.setdefault(label, []).append(value)
    if len(groups) != 2:
        raise ValueError(
            f"{path}: expected exactly 2 distinct groups, found {len(groups)}"
        )
    return groups


def _decision_sentence(d: Decision, t0: str) -> str:
    if d.rejected is Hypothesis.NONE:
        return "no hypothesis rejected"
    acc = d.accepted_implicitly
    return (
        f"reject {d.rejected.value}: theta {d.rejected.comparator} {t0}"
        f" => accept {acc.value}: theta {acc.comparator} {t0}"
    )


def cmd_decide(args: argparse.Namespace) -> tuple[dict, list, list]:
    from .stattests import two_sample_t, two_sample_t_raw

    theta0 = args.theta0
    if args.summary is not None:
        first, second = _parse_summary(args.summary)
        result = two_sample_t(second, first, theta0)
        first_label, second_label = "group 1", "group 2"
        source = {"summary": args.summary}
    else:
        groups = _parse_csv(args.csv)
        first_label, second_label = groups
        result = two_sample_t_raw(groups[second_label], groups[first_label], theta0)
        source = {"csv": args.csv}

    alpha = args.alpha
    wide_level = 1.0 - alpha
    narrow_level = 1.0 - 2.0 * alpha
    _, _, q3, q4 = decision_regions(result.null, alpha).boundaries
    ci_wide, ci_narrow = result.interval(q4), result.interval(q3)

    p = args.precision
    direction = f"{second_label} minus {first_label}"
    stats = {
        "estimate": result.estimate,
        "se": result.se,
        "df": result.null.df,
        "t_stat": result.t_stat,
        "p_two_sided": result.p_two_sided,
    }
    shown = {name: _fmt(x, p) for name, x in stats.items()}
    rows = [["field", "value"], ["direction", direction]] + [
        [name, text] for name, text in shown.items()
    ]
    lines = [
        f"difference taken as {direction}",
        f"estimate = {shown['estimate']}, se = {shown['se']}",
        f"t_stat = {shown['t_stat']}, df = {shown['df']}, "
        f"two-sided p = {shown['p_two_sided']}",
    ]
    for level, ci in ((wide_level, ci_wide), (narrow_level, ci_narrow)):
        label, low, high = _percent_label(level), _fmt(ci[0], p), _fmt(ci[1], p)
        rows += [[f"ci_{label}_low", low], [f"ci_{label}_high", high]]
        lines.append(f"{label} CI: [{low}, {high}]")
    t0 = _fmt(theta0, p)
    titles = {
        Procedure.FIVE_DECISION: f"five-decision (alpha={_fmt(alpha, p)})",
        Procedure.KAISER: "directional two-sided, levels alpha/2",
        Procedure.JONES_TUKEY: "two one-sided at full alpha (theta0 impossible)",
    }
    decisions = {
        procedure: _merged_decision(procedure, result.t_stat, result.null, alpha)
        for procedure in titles
    }
    for procedure, d in decisions.items():
        rows.append([procedure.name.lower(), str(d.index)])
        lines.append(f"{titles[procedure]}: decision {d.index}, {_decision_sentence(d, t0)}")
        also = _also_rejected(procedure, d.index)
        if also is not None:
            lines[-1] += (
                f"; with theta0 excluded this also rejects "
                f"{also.value}: theta {also.comparator} {t0}"
            )

    payload = {
        "input": source,
        "direction": direction,
        "alpha": alpha,
        "theta0": theta0,
        **stats,
        "ci": {
            "wide_level": wide_level,
            "wide": list(ci_wide),
            "narrow_level": narrow_level,
            "narrow": list(ci_narrow),
        },
        "decisions": {
            procedure.name.lower(): {
                "index": d.index,
                "rejected": d.rejected.value,
                "accepted_implicitly": d.accepted_implicitly.value,
            }
            for procedure, d in decisions.items()
        },
    }
    return payload, rows, lines


# ----------------------------------------------------------------- power

def cmd_power(args: argparse.Namespace) -> tuple[dict, list, list]:
    from .power import PowerSpec, power_wald

    # power_wald warns when a chosen target holds at the effect.  That
    # warning is caught whatever the warning filters say, so that it
    # gives one line on stderr and the report.
    # Reporting all four sides includes hypotheses that hold by design,
    # so that advisory is dropped.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        targets = [Hypothesis(args.target)] if args.target else _TARGETS
        values = {
            h.value: power_wald(PowerSpec(args.alpha, args.effect, h)) for h in targets
        }
    if args.target:
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
    payload = {
        "alpha": args.alpha,
        "effect": args.effect,
        "power": values,
    }
    rows = [["target", "power"]]
    lines = []
    for name, v in values.items():
        power = _fmt(v, args.precision)
        rows.append([name, power])
        lines.append(f"psi({name}) = {power} ({_fmt(100.0 * v, args.precision)}%)")
    return payload, rows, lines


def cmd_samplesize(args: argparse.Namespace) -> tuple[dict, list, list]:
    from .power import SampleSizeInputs, as_whole_percent, reduction, sample_size

    # Checked under its own name before the root, which refuses < 0.
    tau = math.sqrt(_check_positive(args.tau_sq, "--tau-sq"))
    inputs = SampleSizeInputs(alpha=args.alpha, psi=args.power, delta=args.delta, tau=tau)
    payload = {
        "alpha": args.alpha,
        "power": args.power,
        "delta": args.delta,
        "tau_sq": args.tau_sq,
    }
    p = args.precision
    rows, lines = [["target", "n", "n_exact"]], []
    for label, strict in (("non-strict", False), ("strict", True)):
        size = sample_size(inputs, strict=strict)
        payload[label.replace("-", "_")] = {"n": size.n, "n_exact": size.n_exact}
        exact = _fmt(size.n_exact, p)
        rows.append([label, str(size.n), exact])
        lines.append(f"{label + ' target:':18} n = {size.n} (exact {exact})")
    saving = reduction(args.alpha, args.power)
    payload["reduction"] = saving
    percent, exact_saving = f"{as_whole_percent(saving)}%", _fmt(saving, p)
    rows.append(["reduction", percent, exact_saving])
    lines.append(f"reduction from strict target: {percent} (exact {exact_saving})")
    return payload, rows, lines


def _parse_float_list(
    text: str | None, flag: str, default: tuple[float, ...]
) -> list[float]:
    # Absent, the default grid; given, every field must be a number.
    if text is None:
        return list(default)
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated numbers: {exc}") from exc


def cmd_table(args: argparse.Namespace) -> tuple[dict, list, list]:
    from .power import (
        DEFAULT_TABLE_ALPHAS,
        DEFAULT_TABLE_PSIS,
        as_whole_percent,
        reduction_table,
    )

    alphas = _parse_float_list(args.alphas, "--alphas", DEFAULT_TABLE_ALPHAS)
    psis = _parse_float_list(args.powers, "--powers", DEFAULT_TABLE_PSIS)
    fractions = reduction_table(alphas, psis)
    percents = [[as_whole_percent(cell) for cell in row] for row in fractions]
    payload = {
        "alphas": alphas,
        "powers": psis,
        "fractions": fractions,
        "percents": percents,
    }
    rows = [["alpha\\psi"] + [_percent_label(p) for p in psis]] + [
        [_percent_label(a)] + [f"{c}%" for c in row]
        for a, row in zip(alphas, percents)
    ]
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows]
    return payload, rows, lines


# -------------------------------------------------------------- simulate

def cmd_simulate(args: argparse.Namespace) -> tuple[dict, list, list]:
    from .simulation import SimulationConfig, run_simulation

    cfg = SimulationConfig(
        n_per_group=args.n,
        mean_diff_over_sigma=args.effect,
        alpha=args.alpha,
        trials=args.trials,
        seed=args.seed,
        procedure=Procedure(args.procedure),
    )
    report = run_simulation(cfg, workers=args.workers)
    p = args.precision
    rows = [["decision", "count", "freq", "mc_se"]]
    lines = [
        f"procedure={cfg.procedure.value} n={cfg.n_per_group} "
        f"effect={_fmt(cfg.mean_diff_over_sigma, p)} alpha={_fmt(cfg.alpha, p)} "
        f"trials={cfg.trials} seed={cfg.seed}"
    ]
    freqs, ses = report.freq, report.mc_se  # each read computes them anew
    for k in sorted(freqs):
        freq, se = _fmt(freqs[k], p), _fmt(ses[k], p)
        rows.append([str(k), str(report.counts[k]), freq, se])
        lines.append(f"decision {k}: freq {freq} +- {se} ({report.counts[k]} trials)")
    wrong = _fmt(report.wrong_rejection_rate, p)
    wrong_se = _fmt(report.wrong_rejection_mc_se, p)
    rows.append(["wrong_rejection", "", wrong, wrong_se])
    lines.append(f"wrong-rejection rate: {wrong} +- {wrong_se}")
    return report.to_dict(), rows, lines


# --------------------------------------------------------------- regions

def cmd_regions(args: argparse.Namespace) -> tuple[dict, list, list]:
    # --df defaults to 18 for t; given with the normal, NullDistribution refuses it.
    df = 18.0 if args.df is None and args.null == "t" else args.df
    null = NullDistribution(Kind.STUDENT_T if args.null == "t" else Kind.STANDARD_NORMAL, df)
    all_regions = [decision_regions(null, a) for a in args.alpha or [0.10, 0.05, 0.01]]
    p = args.precision
    regions = []
    rows = ["alpha decision lower upper lower_closed upper_closed rejected".split()]
    lines = []
    for r in all_regions:
        intervals = []
        lines.append(
            f"alpha={_fmt(r.alpha, p)}: boundaries "
            f"({', '.join(_fmt(q, p) for q in r.boundaries)})"
        )
        for s in r.intervals():
            intervals.append(
                {
                    "decision": s.index,
                    "lower": None if s.lower == -math.inf else s.lower,
                    "upper": None if s.upper == math.inf else s.upper,
                    "lower_closed": s.lower_closed,
                    "upper_closed": s.upper_closed,
                    "rejected": s.rejected.value,
                }
            )
            rows.append(
                [
                    repr(r.alpha),
                    str(s.index),
                    repr(s.lower),
                    repr(s.upper),
                    str(int(s.lower_closed)),
                    str(int(s.upper_closed)),
                    s.rejected.value,
                ]
            )
            left = "[" if s.lower_closed else "("
            right = "]" if s.upper_closed else ")"
            lo, hi = _fmt(s.lower, p), _fmt(s.upper, p)
            label = (
                "no rejection"
                if s.rejected is Hypothesis.NONE
                else f"reject {s.rejected.value}"
            )
            lines.append(f"  decision {s.index}: {left}{lo}, {hi}{right}  {label}")
        regions.append(
            {"alpha": r.alpha, "boundaries": list(r.boundaries), "intervals": intervals}
        )
    payload = {
        "null": args.null,
        "df": null.df,
        "regions": regions,
    }
    return payload, rows, lines


# ---------------------------------------------------------------- parser

def _precision(text: str) -> int:
    """Argument type of --precision: an integer >= 0."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fivedecision",
        description="Directional five-decision testing, power, and simulation tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options shared by subcommands, given to each through parents=.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format",
        choices=("text", "json", "tsv"),
        default="text",
        help="output format (default: text)",
    )
    output.add_argument(
        "--precision",
        type=_precision,
        default=4,
        help="significant digits in text/tsv, but not regions tsv or table (default: 4)",
    )
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--alpha", type=float, default=0.05)

    p_decide = sub.add_parser(
        "decide",
        parents=[level, output],
        help="run the three decision procedures on two-group data",
        description=(
            "Pooled two-sample t-test plus all three decision procedures. "
            "The difference is always taken as the second group minus the "
            "first (CSV groups are ordered by first appearance)."
        ),
    )
    src = p_decide.add_mutually_exclusive_group(required=True)
    src.add_argument("--csv", help="CSV file with header group,value")
    src.add_argument(
        "--summary",
        help="inline summaries: n1,mean1,sd1,n2,mean2,sd2",
    )
    p_decide.add_argument("--theta0", type=float, default=0.0)
    p_decide.set_defaults(func=cmd_decide)

    p_power = sub.add_parser(
        "power",
        parents=[level, output],
        help="directional rejection probabilities at a given effect",
    )
    p_power.add_argument(
        "--effect",
        type=float,
        required=True,
        help="standardized effect (theta - theta0)/SE",
    )
    p_power.add_argument(
        "--target",
        choices=[h.value for h in _TARGETS],
        help="hypothesis to reject (default: report all four)",
    )
    p_power.set_defaults(func=cmd_power)

    p_size = sub.add_parser(
        "samplesize",
        parents=[level, output],
        help="required n per the strict and non-strict targets",
    )
    p_size.add_argument("--power", type=float, required=True, help="target power")
    p_size.add_argument(
        "--delta", type=float, required=True, help="difference to detect"
    )
    p_size.add_argument(
        "--tau-sq",
        type=float,
        required=True,
        dest="tau_sq",
        help="tau squared, where SE = tau/sqrt(n)",
    )
    p_size.set_defaults(func=cmd_samplesize)

    p_table = sub.add_parser(
        "table",
        parents=[output],
        help="sample-size reduction grid over alpha and power",
    )
    p_table.add_argument("--alphas", help="comma-separated levels (default grid)")
    p_table.add_argument("--powers", help="comma-separated powers (default grid)")
    p_table.set_defaults(func=cmd_table)

    p_sim = sub.add_parser(
        "simulate",
        parents=[level, output],
        help="seeded Monte Carlo decision frequencies",
    )
    # Integers parse as numbers, so 10.5 or 1e5 meets the integer rule's message.
    p_sim.register("type", "number", _int_or_float)
    p_sim.add_argument("--n", type="number", required=True, help="observations per group")
    p_sim.add_argument(
        "--effect",
        type=float,
        default=0.0,
        help="standardized mean difference (default 0)",
    )
    p_sim.add_argument("--trials", type="number", default=100000)
    p_sim.add_argument("--seed", type="number", default=1)
    p_sim.add_argument(
        "--procedure",
        choices=[p.value for p in Procedure],
        default=Procedure.FIVE_DECISION.value,
    )
    p_sim.add_argument(
        "--workers",
        type="number",
        default=1,
        help=(
            "shares of the trials run at once (default 1), at most one per "
            "CPU and per two 16384-trial blocks, so a run of under 65536 "
            "trials uses one thread; the calling thread runs the first "
            "share, and a thread each the others; the output is the same"
        ),
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_regions = sub.add_parser(
        "regions",
        parents=[output],
        help="decision-region boundaries and intervals",
    )
    p_regions.add_argument("--null", choices=("t", "normal"), default="t")
    p_regions.add_argument(
        "--df", type=float, help="degrees of freedom for --null t (default 18)"
    )
    p_regions.add_argument(
        "--alpha",
        type=float,
        action="append",
        help="level; repeat for several (default: 0.10 0.05 0.01)",
    )
    p_regions.set_defaults(func=cmd_regions)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except KeyboardInterrupt:
        # A pooled simulate has stopped its threads by now.
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def _run(args: argparse.Namespace) -> int:
    try:
        # Each cmd_* returns what it prints, rendered below as JSON (the
        # payload), TSV (the rows) or text (the lines).
        payload, rows, lines = args.func(args)
    except (ValueError, ArithmeticError) as exc:
        from .stattests import DegenerateDataError  # only decide raises one

        if isinstance(exc, DegenerateDataError):
            print(f"error: degenerate data: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # simulate's report carries its own, later version.
    payload.setdefault("schema_version", SCHEMA_VERSION)
    try:
        if args.format == "json":
            import json

            print(json.dumps(payload, sort_keys=True, indent=2))
        elif args.format == "tsv":
            for row in rows:
                print("\t".join(row))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point the rest of stdout at devnull, so
        # that the interpreter's final flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Independent checks of every benchmark output, against scipy.

Each ``check_*`` takes the regenerated inputs and the outputs the
measured process printed, in the same order, and returns a ``Check``:
how many operations failed, how many verdicts were ties (a statistic
within ``TIE`` of a region boundary, where rounding may pick either
side), and the first few failures for the log.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, stats

REL = 1e-9  # agreement required of statistics, intervals and powers
TIE = 1e-9  # a statistic this close to a boundary is a tie
Z_LIMIT = 6.0  # binomial z (see binomial_z) allowed per simulated decision

# Five-decision index -> reported index under each procedure.
MERGES = {
    "five-decision": np.array([0, 1, 2, 3, 4, 5]),
    "kaiser": np.array([0, 1, 3, 3, 3, 5]),
    "jones-tukey": np.array([0, 2, 2, 3, 4, 4]),
}
INDEX_SETS = {
    "five-decision": (1, 2, 3, 4, 5),
    "kaiser": (1, 3, 5),
    "jones-tukey": (2, 3, 4),
}


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    ties: int = 0
    max_abs_z: float = 0.0
    examples: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(what)

    def __iadd__(self, other: "Check") -> "Check":
        self.attempted += other.attempted
        self.failed += other.failed
        self.ties += other.ties
        self.max_abs_z = max(self.max_abs_z, other.max_abs_z)
        self.examples += other.examples[: 5 - len(self.examples)]
        return self


def _close(got, want, scale) -> np.ndarray:
    return np.abs(np.asarray(got, float) - want) <= REL * scale


def region_index(t, q) -> np.ndarray:
    """Five-decision index of statistics ``t`` given boundaries ``q``
    (shape (4, len(t))): 1 + [t>=q1] + [t>=q2] + [t>q3] + [t>q4]."""
    return 1 + (t >= q[0]) + (t >= q[1]) + (t > q[2]) + (t > q[3])


def _boundaries(alpha, df) -> np.ndarray:
    ps = np.stack([alpha / 2, alpha, 1 - alpha, 1 - alpha / 2])
    if df is None:
        return stats.norm.ppf(ps)
    return stats.t.ppf(ps, df)


def check_analysis(requests: list, outputs: list) -> Check:
    """Two-group and Wald requests: statistic, p, estimate, SE, both
    intervals, and the three verdicts.  Planning requests: the four
    Wald powers and both sample sizes."""
    check = Check(attempted=len(outputs))
    groups: dict[str, list] = {"t": [], "wald": [], "plan": []}
    for i, (req, out) in enumerate(zip(requests, outputs, strict=True)):
        if out is None:
            check.fail(f"request {i} ({req[0]}) raised")
            continue
        kind = {"summary": "t", "raw": "t"}.get(req[0], req[0])
        groups[kind].append((i, req, out))
    if groups["t"]:
        _check_tests(check, groups["t"], normal=False)
    if groups["wald"]:
        _check_tests(check, groups["wald"], normal=True)
    if groups["plan"]:
        _check_plans(check, groups["plan"])
    return check


def _summaries(req) -> tuple:
    if req[0] == "raw":
        a, b = np.asarray(req[2]), np.asarray(req[3])
        return len(a), a.mean(), a.std(ddof=1), len(b), b.mean(), b.std(ddof=1)
    return tuple(req[2:])


def _check_tests(check: Check, items: list, normal: bool) -> None:
    ids = [i for i, _, _ in items]
    alpha = np.array([req[1] for _, req, _ in items])
    out = np.array([o for _, _, o in items], dtype=float)
    if normal:
        est = np.array([req[2] for _, req, _ in items])
        se = np.array([req[3] for _, req, _ in items])
        t = est / se
        p = 2 * stats.norm.sf(np.abs(t))
        df = None
    else:
        n_a, m_a, s_a, n_b, m_b, s_b = map(np.array, zip(*(_summaries(r) for _, r, _ in items)))
        t, p = stats.ttest_ind_from_stats(m_a, s_a, n_a, m_b, s_b, n_b, equal_var=True)
        df = n_a + n_b - 2.0
        est = m_a - m_b
        se = np.sqrt(((n_a - 1) * s_a**2 + (n_b - 1) * s_b**2) / df * (1 / n_a + 1 / n_b))
    q = _boundaries(alpha, df)
    hw_wide, hw_narrow = q[3] * se, q[2] * se
    ok = (
        _close(out[:, 0], t, np.maximum(1.0, np.abs(t)))
        & (np.abs(out[:, 1] - p) <= REL)
        & _close(out[:, 2], est, np.abs(est) + se)
        & _close(out[:, 3], se, se)
    )
    for col, ref, hw in ((4, est - hw_wide, hw_wide), (5, est + hw_wide, hw_wide),
                         (6, est - hw_narrow, hw_narrow), (7, est + hw_narrow, hw_narrow)):
        ok &= _close(out[:, col], ref, np.abs(ref) + hw)
    idx = region_index(t, q)
    tie = (np.abs(q - t).min(axis=0) <= TIE * np.maximum(1.0, np.abs(t)))
    verdicts = out[:, 8:11].astype(int)
    ok &= tie | (
        (verdicts[:, 0] == idx)
        & (verdicts[:, 1] == MERGES["kaiser"][idx])
        & (verdicts[:, 2] == MERGES["jones-tukey"][idx])
    )
    check.ties += int(tie.sum())
    for j in np.flatnonzero(~ok):
        check.fail(
            f"request {ids[j]}: got {out[j].tolist()}, scipy t={t[j]!r} p={p[j]!r} "
            f"boundaries={q[:, j].tolist()} index={idx[j]}"
        )


def _check_plans(check: Check, items: list) -> None:
    ids = [i for i, _, _ in items]
    alpha, effect, psi, delta, tau = (np.array(c) for c in zip(*(r[1:] for _, r, _ in items)))
    out = np.array([o for _, _, o in items], dtype=float)
    z_half, z_full = stats.norm.ppf(alpha / 2), stats.norm.ppf(alpha)
    powers = np.stack([
        stats.norm.cdf(z_half - effect),
        stats.norm.cdf(z_full - effect),
        stats.norm.cdf(z_full + effect),
        stats.norm.cdf(z_half + effect),
    ], axis=1)
    ok = np.all(np.isclose(out[:, :4], powers, rtol=REL, atol=1e-12), axis=1)
    z_psi = stats.norm.ppf(psi)
    for col, z in ((4, -z_half), (6, -z_full)):
        n_exact = (z + z_psi) ** 2 * tau**2 / delta**2
        ok &= _close(out[:, col], n_exact, n_exact)
        near_integer = np.abs(n_exact - np.round(n_exact)) <= REL * n_exact
        ok &= near_integer | (out[:, col + 1] == np.ceil(n_exact))
    for j in np.flatnonzero(~ok):
        check.fail(f"planning request {ids[j]}: got {out[j].tolist()}")


@functools.lru_cache(maxsize=None)
def exact_probabilities(n: int, effect: float, alpha: float, procedure: str) -> dict:
    """Exact decision probabilities of one simulated configuration: the
    pooled t of two N(effect, 1) vs N(0, 1) groups of n is noncentral t
    with df = 2n - 2 and noncentrality effect * sqrt(n / 2)."""
    df = 2 * n - 2
    q = _boundaries(np.float64(alpha), df)
    nc = effect * math.sqrt(n / 2)
    if nc:
        cdf = [_noncentral_t_cdf(x, df, nc) for x in q]
        upper = stats.nct.sf(q[3], df, nc)
        upper = upper if np.isfinite(upper) else 1.0 - cdf[3]
    else:
        cdf, upper = stats.t.cdf(q, df), stats.t.sf(q[3], df)
    five = [cdf[0], cdf[1] - cdf[0], cdf[2] - cdf[1], cdf[3] - cdf[2], upper]
    probs = dict.fromkeys(INDEX_SETS[procedure], 0.0)
    merge = MERGES[procedure]
    for k, p in enumerate(five, start=1):
        # Differences of tail values below ~1e-20 can round negative.
        probs[int(merge[k])] += max(0.0, float(p))
    return probs


def _noncentral_t_cdf(q: float, df: int, nc: float) -> float:
    """P(T <= q) for noncentral t: scipy's nct, or where that returns
    nan (far tails at large df), the integral of Phi(q sqrt(v/df) - nc)
    over the chi-square(df) density of v."""
    value = stats.nct.cdf(q, df, nc)
    if np.isfinite(value):
        return float(value)
    chi2 = stats.chi2(df)
    integrand = lambda v: stats.norm.cdf(q * math.sqrt(v / df) - nc) * chi2.pdf(v)  # noqa: E731
    return integrate.quad(integrand, chi2.ppf(1e-16), chi2.isf(1e-16), epsabs=1e-15)[0]


def binomial_z(count: int, trials: int, p: float) -> float:
    """The normal deviate with the same tail probability as ``count``
    under Binomial(trials, p), on the side of p the count lies.  It is
    |freq - p| / SE where the expected count is large, and stays right
    where it is below one: one hit at p = 1e-7 in 32768 trials happens
    in 0.4% of runs, yet lies 16 SEs from p."""
    if count >= trials * p:
        tail = stats.binom.sf(count - 1, trials, p)
    else:
        tail = stats.binom.cdf(count, trials, p)
    return float(stats.norm.isf(min(tail, 0.5)))


def check_simulation(calls: list, outputs: list) -> Check:
    """Counts sum to trials, every count is within Z_LIMIT (as a
    binomial z) of its exact probability, and a configuration re-run on
    more workers reports identical counts."""
    check = Check(attempted=len(outputs))
    by_config: dict[str, list] = {}
    for i, ((cfg, workers), counts) in enumerate(zip(calls, outputs, strict=True)):
        if counts is None:
            check.fail(f"simulation {i} raised")
            continue
        trials = cfg["trials"]
        probs = exact_probabilities(
            cfg["n_per_group"], cfg["mean_diff_over_sigma"], cfg["alpha"], cfg["procedure"]
        )
        if sum(counts) != trials or len(counts) != len(probs):
            check.fail(f"simulation {i}: counts {counts} do not sum to {trials}")
            continue
        z = max(binomial_z(count, trials, p) for count, p in zip(counts, probs.values()))
        check.max_abs_z = max(check.max_abs_z, z)
        key = json.dumps(cfg, sort_keys=True)
        if z > Z_LIMIT:
            check.fail(f"simulation {i} {cfg}: counts {counts}, exact {probs}, |z|={z:.2f}")
        elif key in by_config and by_config[key] != counts:
            check.fail(f"simulation {i} on {workers} workers: {counts} != {by_config[key]}")
        by_config.setdefault(key, counts)
    return check


def check_cli(invocations: list, outputs: list, expected_json) -> Check:
    """Exit code 0 and non-empty output; tsv lines carry tabs; JSON
    parses, and ``decide``/``simulate`` JSON equals
    ``expected_json(kind, argv, rows)``, the in-process result."""
    check = Check(attempted=len(outputs))
    for i, ((kind, argv, rows), (code, stdout, stderr)) in enumerate(
        zip(invocations, outputs, strict=True)
    ):
        fmt = argv[argv.index("--format") + 1]
        if code != 0 or not stdout.strip():
            check.fail(f"cli {i} {argv}: exit {code}: {stderr.strip()}")
            continue
        if fmt == "tsv" and not all("\t" in line for line in stdout.splitlines()):
            check.fail(f"cli {i} {argv}: tsv line without a tab")
        elif fmt == "json":
            try:
                payload = json.loads(stdout)
            except json.JSONDecodeError as exc:
                check.fail(f"cli {i} {argv}: bad JSON: {exc}")
                continue
            want = expected_json(kind, argv, rows)
            if want is not None and _pick(payload, want) != want:
                check.fail(f"cli {i} {argv}: {_pick(payload, want)} != library {want}")
    return check


def _pick(payload: dict, like: dict) -> dict:
    """The keys of ``payload`` that ``like`` has, recursively."""
    return {
        k: _pick(payload[k], v) if isinstance(v, dict) and isinstance(payload.get(k), dict)
        else payload.get(k)
        for k, v in like.items()
    }


def quantile_max_rel_err(replayed: list) -> float:
    """Largest |q - scipy| / |scipy| over the replayed (df, p, q)."""
    worst = 0.0
    for df, p, q in replayed:
        ref = stats.norm.ppf(p) if df is None else stats.t.ppf(p, df)
        worst = max(worst, abs(q - ref) / abs(ref))
    return worst

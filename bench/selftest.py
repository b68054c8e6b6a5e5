"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the input generators are deterministic for a seed, and that the
output checks can fail.
"""

from __future__ import annotations

import copy
import itertools
import json
import unittest
import warnings

import cli_workload as cw
import oracle
import run
import workloads as wl

BENCHMARK = json.loads((cw.ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((cw.ROOT / "bench" / "predictions.json").read_text())
NAMED = {
    "analysis_stream": ("analyses_per_s", "analysis_latency_p50_us", "analysis_latency_p99_us"),
    "simulate": ("sim_trials_per_s", "sim_parallel_trials_per_s"),
    "cli_oneshot": ("cli_latency_p50_s", "cli_latency_p90_s"),
}


def _declared(key: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


class MetricsEmitted(unittest.TestCase):
    def test_end_to_end_metrics_of_every_workload(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(wl.WORKLOADS))
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = run.run(workload, seed=5, seconds=1, trace=False, tiny=True)
                self.assertTrue(result["correct"], lines)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(got, _declared("end_to_end"))
                for name in NAMED[workload] + ("failed_ratio",):
                    self.assertTrue(any(line.startswith(name + " ") for line in lines), name)

    def test_per_layer_metrics_of_the_traced_run(self):
        result, lines = run.run("analysis_stream", seed=5, seconds=2, trace=True, tiny=True)
        self.assertTrue(result["correct"], lines)
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        self.assertEqual(got, _declared("per_layer"))

    def test_every_per_layer_metric_has_a_prediction(self):
        predictions = PREDICTIONS["predictions"]
        self.assertEqual(set(predictions), set(_declared("per_layer")))
        for name, p in predictions.items():
            covered = set(p["moves"]) | set(p["still"])
            self.assertEqual(covered, set(wl.WORKLOADS), name)


class GeneratorsDeterministic(unittest.TestCase):
    GENERATORS = {
        "analysis": wl.analysis_requests,
        "simulate": wl.simulate_rounds,
        "cli": cw.cli_invocations,
        "cli cycles": cw.cli_cycles,
    }

    def test_same_seed_same_inputs(self):
        for name, gen in self.GENERATORS.items():
            with self.subTest(generator=name):
                first = list(itertools.islice(gen(7), 300))
                self.assertEqual(first, list(itertools.islice(gen(7), 300)))
                self.assertNotEqual(first, list(itertools.islice(gen(8), 300)))


class ChecksCanFail(unittest.TestCase):
    def test_wrong_verdict_is_a_failure(self):
        requests = list(itertools.islice(wl.analysis_requests(3), 400))
        api = wl.make_api()
        with warnings.catch_warnings():
            # Planning requests ask for powers on both sides of the effect.
            warnings.simplefilter("ignore", UserWarning)
            outputs = [wl.run_request(api, r) for r in requests]
        self.assertEqual(oracle.check_analysis(requests, outputs).failed, 0)
        i = next(i for i, r in enumerate(requests) if r[0] == "summary")
        wrong = copy.deepcopy(outputs)
        wrong[i][8] = 1 + wrong[i][8] % 5  # five-decision index
        self.assertEqual(oracle.check_analysis(requests, wrong).failed, 1)
        wrong = copy.deepcopy(outputs)
        wrong[i][9] = 3 if wrong[i][9] != 3 else 1  # Kaiser index
        self.assertEqual(oracle.check_analysis(requests, wrong).failed, 1)
        wrong = copy.deepcopy(outputs)
        wrong[i][4] *= 1 + 1e-6  # lower end of the wide interval
        self.assertEqual(oracle.check_analysis(requests, wrong).failed, 1)

    def test_wrong_counts_are_a_failure(self):
        calls = next(wl.simulate_rounds(3, scale=64))
        api = wl.make_api()
        outputs = []
        for c, workers in calls:
            report = api.run_simulation(wl.simulation_config(c), workers=workers)
            outputs.append([report.counts[k] for k in sorted(report.counts)])
        self.assertEqual(oracle.check_simulation(calls, outputs).failed, 0)
        wrong = copy.deepcopy(outputs)
        wrong[-1][0] += 1  # a pool run that disagrees (and no longer sums)
        self.assertEqual(oracle.check_simulation(calls, wrong).failed, 1)
        skewed = copy.deepcopy(outputs)
        skewed[3][0], skewed[3][2] = skewed[3][2], skewed[3][0]  # frequencies off
        self.assertGreaterEqual(oracle.check_simulation(calls, skewed).failed, 1)

    def test_wrong_cli_json_is_a_failure(self):
        kind, argv, rows = next(cw.cli_cycles(1))[0]
        argv[-1] = "json"
        payload = run.library_json(kind, argv, rows)
        good = [0, json.dumps(payload), ""]
        self.assertEqual(oracle.check_cli([(kind, argv, rows)], [good], run.library_json).failed, 0)
        payload["decisions"]["five_decision"]["index"] = 6
        bad = [0, json.dumps(payload), ""]
        self.assertEqual(oracle.check_cli([(kind, argv, rows)], [bad], run.library_json).failed, 1)
        self.assertEqual(oracle.check_cli([(kind, argv, rows)], [[2, "", "x"]], run.library_json).failed, 1)


if __name__ == "__main__":
    unittest.main()

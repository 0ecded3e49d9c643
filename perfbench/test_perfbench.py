#!/usr/bin/env python3
"""The benchmark's own tests.

  python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against the benchmark contract (names, units,
limits), that the driver reports exactly the per-layer metrics
BENCHMARK.json lists, the pass bookkeeping in run.py and the verdicts
of compare.py on synthetic data, and finally builds and runs the C++
tests (span self-time arithmetic, workload-proxy transparency).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per-layer metrics run.py derives from pass timings rather than the driver.
DERIVED = {"exp.overhead_s", "exp.trace_overhead_s", "check.stream_share"}


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkSpec(unittest.TestCase):
    def test_keys_and_limits(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        self.assertEqual(spec["paths"], ["perfbench"])

    def test_names_and_units(self):
        spec = load_spec()
        names = []
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in spec[section]:
                self.assertRegex(entry["name"], NAME)
                names.append(entry["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_workloads_match_run_py(self):
        self.assertEqual([w["name"] for w in load_spec()["workloads"]], list(run.WORKLOADS))


def synthetic_pass(fingerprint, trials, traced=False, wall=2.0, spawn=100.0):
    return {"traced": traced, "wall": wall, "spawn": spawn, "rss_mb": 50.0,
            "report": {"fingerprint": fingerprint, "errors": [],
                       "metrics": {"harness.run_s": wall / 2},
                       "trials": [{"start": spawn + 0.1 + i, "end": spawn + 0.6 + i,
                                   "setup_s": 0.02, "ok": ok, "stream_s": 0.5 if i == 0 else 0.0}
                                  for i, ok in enumerate(trials)]}}


class PassBookkeeping(unittest.TestCase):
    def test_fingerprint_drift_counts_as_a_failure(self):
        attempted, failed, errors = run.tally(
            [synthetic_pass("aa", [True, True]), synthetic_pass("bb", [True, True])])
        self.assertEqual((attempted, failed), (4, 1))
        self.assertIn("fingerprint", errors[0])

    def test_failed_trials_and_crashed_passes(self):
        crashed = {"traced": False, "wall": 1.0, "report": None, "error": "exited with 1"}
        attempted, failed, _ = run.tally([synthetic_pass("aa", [True, False]), crashed])
        self.assertEqual((attempted, failed), (3, 2))

    def test_end_to_end_and_per_layer(self):
        untraced = [synthetic_pass("aa", [True, True], wall=w) for w in (2.0, 3.0, 4.0)]
        values = run.end_to_end(untraced, 6, 0)
        self.assertAlmostEqual(values["wall_s"], 3.0)
        self.assertAlmostEqual(values["trial_p50_s"], 0.5)
        self.assertAlmostEqual(values["setup_s"], 0.1 + 0.04)
        self.assertEqual(values["success_rate"], 1.0)
        traced = [synthetic_pass("aa", [True, True], traced=True, wall=5.0)]
        layer = run.per_layer(traced, untraced)
        self.assertAlmostEqual(layer["exp.overhead_s"], 3.0 - 1.0)
        self.assertAlmostEqual(layer["exp.trace_overhead_s"], 2.0)
        self.assertAlmostEqual(layer["check.stream_share"], 0.5 / 3.0)
        self.assertAlmostEqual(layer["harness.run_s"], 2.5)


class CompareVerdicts(unittest.TestCase):
    base = [10.0, 10.4, 9.8, 10.2, 10.1, 9.9, 10.3, 10.0, 10.2, 9.9]

    def test_clear_gain_is_better(self):
        head = [b * 0.8 for b in self.base]
        self.assertEqual(compare.verdict(self.base, head, "lower", 0.1), ("better", 1.0))

    def test_regression_beyond_the_bound_is_worse(self):
        head = [b * 1.3 for b in self.base]
        self.assertEqual(compare.verdict(self.base, head, "lower", 0.1)[0], "worse")

    def test_higher_is_better_metrics_flip(self):
        head = [b * 1.3 for b in self.base]
        self.assertEqual(compare.verdict(self.base, head, "higher", 0.1)[0], "better")

    def test_noise_wider_than_the_bound_is_unresolved(self):
        noisy = [10, 14, 8, 12, 9, 13, 7, 11, 10, 15]
        head = [11, 12, 10, 13, 9, 12, 10, 11, 12, 13]
        self.assertEqual(compare.verdict(noisy, head, "lower", 0.1)[0], "unresolved")

    def test_small_difference_is_within(self):
        head = [b * 1.02 for b in self.base]
        self.assertEqual(compare.verdict(self.base, head, "lower", 0.1)[0], "within")


class Driver(unittest.TestCase):
    """Builds the C++ side (slow the first time) and checks it."""

    @classmethod
    def setUpClass(cls):
        cls.out_dir = run.build_dir()
        cls.driver = run.build(cls.out_dir)

    def test_metric_names_match_benchmark_json(self):
        listed = subprocess.run([self.driver, "--list-metrics"], capture_output=True,
                                text=True, check=True).stdout.split()
        self.assertEqual(len(listed), len(set(listed)))
        for name in listed:
            self.assertRegex(name, NAME)
        wanted = [m["name"] for m in load_spec()["per_layer"]]
        self.assertEqual(set(listed) | DERIVED, set(wanted))

    def test_cpp_unit_tests(self):
        subprocess.run(["cmake", "--build", self.out_dir, "-j", "4", "--target",
                        "perfbench_tests"], check=True, capture_output=True)
        result = subprocess.run([os.path.join(self.out_dir, "perfbench_tests")],
                                capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stdout[-3000:])


if __name__ == "__main__":
    unittest.main()

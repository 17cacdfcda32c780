#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

- every workload runs end to end in small mode (tiny circuits, a fraction
  of a second) through the same code as a real run, with every output
  check passing and every end-to-end metric of BENCHMARK.json reported;
- the program's self-test: each output check fails on a perturbed estimate,
  count or id, and the tail rule needs 40 samples with 10 beyond the tail;
- a traced run reports every per-layer metric, and its allocation counts
  repeat exactly across two traced runs.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(lines[-1])


class SmallModeTest(unittest.TestCase):
    def test_every_workload_end_to_end(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        # served_mixed runs by name although it is not a BENCHMARK.json
        # workload (see README.md).
        names = [w["name"] for w in SPEC["workloads"]] + ["served_mixed"]
        for name in names:
            with self.subTest(workload=name):
                result = result_of(run("--workload", name, "--seed", "3",
                                       "--seconds", "0.5", "--trace", "0", "--small"))
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 40)
                self.assertEqual(result["failed"], 0)
                reported = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(reported, expected)
                for metric_name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, metric_name)


class SelfTest(unittest.TestCase):
    def test_checks_detect_perturbations(self):
        proc = run("--selftest")
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:])
        self.assertIn("0 failed", proc.stdout)


class TracedRunTest(unittest.TestCase):
    def test_per_layer_metrics_and_repeatable_allocations(self):
        expected = {m["name"] for m in SPEC["per_layer"]}
        first = result_of(run("--workload", "cold_estimate", "--seed", "5", "--seconds", "0.5",
                              "--trace", "1", "--small"))
        second = result_of(run("--workload", "cold_estimate", "--seed", "5", "--seconds", "0.5",
                               "--trace", "1", "--small"))
        self.assertTrue(first["correct"])
        self.assertEqual(set(first["metrics"]), expected)
        allocs = [name for name in expected if "alloc" in name]
        self.assertTrue(allocs)
        for name in allocs:
            self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"],
                             name)


if __name__ == "__main__":
    unittest.main()

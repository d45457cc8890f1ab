#!/usr/bin/env python3
"""The benchmark's own test: short tiny-scale runs of every workload.

    python3 benchmark/test_run.py

Checks, for every workload in BENCHMARK.json:

* an end-to-end run prints every `end_to_end` metric with its unit, and
  a traced run every `per_layer` metric with its unit;
* every count (any metric that is not a time or a ratio of times)
  repeats exactly across two traced runs of the same seed;
* a second seed passes the output check too.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TIME_UNITS = {"s", "ms", "us", "ns/event", "1/s"}


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def is_count(name, unit):
    return unit not in TIME_UNITS and "explained_share" not in name


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                e2e = run(name, 1, 0)
                self.assertTrue(e2e["correct"], e2e)
                self.assertGreaterEqual(e2e["attempted"], 1)
                self.check_metrics(e2e, SPEC["end_to_end"])

                first, second = run(name, 1, 1), run(name, 1, 1)
                self.assertTrue(first["correct"] and second["correct"])
                self.check_metrics(first, SPEC["per_layer"])
                for m in SPEC["per_layer"]:
                    if is_count(m["name"], m["unit"]):
                        self.assertEqual(first["metrics"][m["name"]]["value"],
                                         second["metrics"][m["name"]]["value"], m["name"])

                for trace in (0, 1):
                    other = run(name, 2, trace)
                    self.assertTrue(other["correct"], other)
                    self.assertEqual(other["failed"], 0)


if __name__ == "__main__":
    unittest.main()

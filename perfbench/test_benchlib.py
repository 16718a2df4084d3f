"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke test builds hom_perfbench (minutes on first use) and runs every
workload at a tiny scale. To run only the tests that need no build:

    python3 -m unittest discover -s perfbench -p 'test_*.py' \
        -k NameAndUnitTest -k StatisticsTest
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class NameAndUnitTest(unittest.TestCase):
    def test_accepts_metric_names(self):
        for name in ("setup_s", "highorder.step1_s", "par.build_1t_s",
                     "a-b.c_d", "9lives"):
            self.assertTrue(benchlib.valid_name(name), name)

    def test_rejects_bad_names(self):
        for name in ("", "has space", "slash/name", "tab\tname", "ü",
                     ".leading", "x" * 65, "braces{x}"):
            self.assertFalse(benchlib.valid_name(name), name)

    def test_units(self):
        for unit in ("s", "ms", "1/s", "records/s", "%", "count", "MB/s"):
            self.assertTrue(benchlib.valid_unit(unit), unit)
        for unit in ("", "per second", "u" * 17, "s;"):
            self.assertFalse(benchlib.valid_unit(unit), unit)

    def test_benchmark_json_tables(self):
        names = [row[0] for row in benchlib.END_TO_END + benchlib.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for row in benchlib.END_TO_END + benchlib.PER_LAYER:
            self.assertTrue(benchlib.valid_name(row[0]), row)
            self.assertTrue(benchlib.valid_unit(row[1]), row)
            self.assertIn(row[2], ("higher", "lower"), row)
        for name, _, _, bound in benchlib.END_TO_END:
            self.assertTrue(0 < bound <= 0.25, name)
        setup = [r for r in benchlib.END_TO_END if r[0] == "setup_s"][0]
        self.assertEqual(setup[1:3], ("s", "lower"))
        self.assertEqual(setup[3], max(r[3] for r in benchlib.END_TO_END))

    def test_check_metrics(self):
        table = (("a", "s"), ("b", "count"))
        good = {"a": {"value": 1.5, "unit": "s"},
                "b": {"value": 3, "unit": "count"}}
        self.assertEqual(benchlib.check_metrics(good, table), [])
        bad = {"a": {"value": float("nan"), "unit": "ms"},
               "c": {"value": 1, "unit": "s"}}
        problems = benchlib.check_metrics(bad, table)
        self.assertEqual(len(problems), 4, problems)


class StatisticsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 2, 3]), 2.5)

    def test_quartiles_follow_statistics_quantiles(self):
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(benchlib.quartiles(values), (2.75, 8.25))
        self.assertAlmostEqual(benchlib.spread(values), 5.5 / 5.5)
        self.assertEqual(benchlib.quartiles([7.0]), (7.0, 7.0))

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([5], 99), 5)

    def test_ten_samples_beyond_rule(self):
        # p99 needs ten samples above it: 1000 samples leave exactly ten.
        self.assertTrue(benchlib.resolved(1000, 99))
        self.assertFalse(benchlib.resolved(999, 99))
        self.assertTrue(benchlib.resolved(20, 50))
        self.assertFalse(benchlib.resolved(19, 50))
        self.assertIsNone(benchlib.highest_resolved(15))
        self.assertEqual(benchlib.highest_resolved(100), 90)
        self.assertEqual(benchlib.highest_resolved(1000), 99)
        self.assertEqual(benchlib.highest_resolved(300000), 99.99)


class SmokeTest(unittest.TestCase):
    """Every workload at a tiny scale, in both modes, emits every metric.

    Models built from a few hundred records miss the benchmark's error
    ceiling, so the smoke run asserts the output's shape, not `correct`.
    """

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--scale", "0.02"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=1800)
        self.assertEqual(proc.returncode, 0)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_all_workloads(self):
        for workload in benchlib.WORKLOADS:
            for trace, table in ((0, benchlib.END_TO_END),
                                 (1, benchlib.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertEqual(
                        benchlib.check_metrics(result["metrics"], table), [])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertLessEqual(result["failed"],
                                         result["attempted"])
                    self.assertIsInstance(result["correct"], bool)


if __name__ == "__main__":
    unittest.main()

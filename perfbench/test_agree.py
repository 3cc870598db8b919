#!/usr/bin/env python3
"""Unit tests of the run-set statistics in agree.py.

    python3 perfbench/test_agree.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import agree  # noqa: E402

LAT = {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1}
RATE = {"name": "capacity_rps", "unit": "1/s", "better": "higher",
        "bound": 0.1}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


class SummaryTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [10, 12, 11, 13, 9, 10, 14, 11, 12, 10]
        s = agree.summary(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(s["median"], 11)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / 11)

    def test_constant_runs_have_zero_spread(self):
        self.assertEqual(agree.summary([5.0] * 10)["spread"], 0)

    def test_zero_median_has_infinite_spread(self):
        self.assertEqual(agree.summary([0, 0, 0, 1])["spread"], float("inf"))


class WorseByTest(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(agree.worse_by(100, 110, "lower"), 0.1)
        self.assertAlmostEqual(agree.worse_by(100, 90, "lower"), -0.1)
        self.assertAlmostEqual(agree.worse_by(100, 90, "higher"), 0.1)
        self.assertAlmostEqual(agree.worse_by(100, 110, "higher"), -0.1)


class CheckSetsTest(unittest.TestCase):
    def test_identical_steady_sets_agree(self):
        runs = {"hot8": {"p50_us": [100, 101, 99, 100, 102, 98, 100, 101,
                                    99, 100]}}
        self.assertEqual(agree.check_sets(runs, runs, [LAT]), [])

    def test_wide_spread_is_reported(self):
        wide = {"hot8": {"p50_us": [50, 150, 60, 140, 70, 130, 80, 120, 90,
                                    110]}}
        problems = agree.check_sets(wide, wide, [LAT])
        self.assertEqual(len(problems), 2)
        self.assertIn("spread", problems[0])

    def test_setup_spread_and_median_are_both_gated(self):
        wide = {"hot8": {"setup_s": [1, 2, 1, 2, 1, 2, 1, 2, 1, 2]}}
        problems = agree.check_sets(wide, wide, [SETUP])
        self.assertEqual(len(problems), 2)
        self.assertIn("spread", problems[0])
        steady = {"hot8": {"setup_s": [2.0, 2.1] * 5}}
        self.assertEqual(agree.check_sets(steady, steady, [SETUP]), [])
        slower = {"hot8": {"setup_s": [2.6, 2.7] * 5}}
        problems = agree.check_sets(steady, slower, [SETUP])
        self.assertEqual(len(problems), 1)
        self.assertIn("worse", problems[0])

    def test_regression_beyond_bound_in_either_direction(self):
        base = {"w": {"p50_us": [100] * 10, "capacity_rps": [1000] * 10}}
        worse = {"w": {"p50_us": [120] * 10, "capacity_rps": [800] * 10}}
        better = {"w": {"p50_us": [80] * 10, "capacity_rps": [1200] * 10}}
        self.assertEqual(len(agree.check_sets(base, worse, [LAT, RATE])), 2)
        self.assertEqual(agree.check_sets(base, better, [LAT, RATE]), [])

    def test_missing_metric_is_a_problem(self):
        problems = agree.check_sets({"w": {"p50_us": [1, 1, 1]}}, {"w": {}},
                                    [LAT])
        self.assertEqual(problems, ["w p50_us: missing values"])


class SeedsTest(unittest.TestCase):
    def test_ranges(self):
        self.assertEqual(agree.parse_seeds("3"), [3])
        self.assertEqual(agree.parse_seeds("1-4"), [1, 2, 3, 4])


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's order statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import run
from stats import MIN_BEYOND, percentile, quartiles, spread, tail_percentile


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(tail_percentile(10_000), 99.9)
        self.assertEqual(tail_percentile(1_000), 99.0)
        self.assertEqual(tail_percentile(999), 95.0)
        self.assertEqual(tail_percentile(200), 95.0)
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(40), 75.0)
        self.assertEqual(tail_percentile(20), 50.0)
        self.assertIsNone(tail_percentile(19))

    def test_each_workload_reports_the_rules_percentile_at_its_sample_count(self):
        counts = {"full_grid": run.GRID_WARM_REQUESTS, "fast_suite": 27, "serve_mix": 1_240}
        self.assertEqual(set(counts), set(run.WARM_TAIL))
        for workload, n in counts.items():
            self.assertEqual(run.WARM_TAIL[workload], tail_percentile(n), workload)

    def test_the_rule_leaves_at_least_ten_samples_beyond(self):
        for n in [20, 21, 39, 40, 99, 100, 199, 200, 999, 1_000, 1_001, 9_999, 10_000]:
            p = tail_percentile(n)
            values = list(range(n))
            beyond = sum(v > percentile(values, p) for v in values)
            self.assertGreaterEqual(beyond, MIN_BEYOND, (n, p))

    def test_percentile_interpolates_between_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(percentile(values, 0), 1.0)
        self.assertEqual(percentile(values, 100), 4.0)
        self.assertEqual(percentile(values, 50), 2.5)
        self.assertAlmostEqual(percentile(list(range(1001)), 99), 990.0)
        self.assertEqual(percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            percentile([], 50)


class Quartiles(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(quartiles(values), (2.75, 5.5, 8.25))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(spread([3.0]), 0.0)

    def test_spread_is_the_interquartile_range_over_the_median(self):
        self.assertAlmostEqual(spread([9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]),
                               (8.25 - 2.75) / 5.5)


if __name__ == "__main__":
    unittest.main()

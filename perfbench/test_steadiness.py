#!/usr/bin/env python3
"""Unit tests of steadiness.py's spread and median-gap helpers.

    python3 perfbench/test_steadiness.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import steadiness  # noqa: E402


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        self.assertEqual(steadiness.quartiles(list(range(1, 11))),
                         [2.75, 5.5, 8.25])
        self.assertEqual(steadiness.quartiles([40, 1, 13, 5, 9]),
                         [3.0, 9.0, 26.5])

    def test_single_value(self):
        self.assertEqual(steadiness.quartiles([4.0]), [4.0, 4.0, 4.0])

    def test_spread_is_quartile_distance_over_median(self):
        # quartiles 2.75 and 8.25, median 5.5
        self.assertAlmostEqual(steadiness.spread(list(range(1, 11))), 1.0)
        self.assertEqual(steadiness.spread([3.0, 3.0, 3.0]), 0.0)
        self.assertEqual(steadiness.spread([0.0, 0.0]), 0.0)


class WorseGapTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(
            steadiness.worse_gap([10, 10, 10], [11, 11, 11], "lower"), 0.1)
        self.assertAlmostEqual(
            steadiness.worse_gap([10, 10, 10], [9, 9, 9], "lower"), -0.1)

    def test_higher_is_better(self):
        self.assertAlmostEqual(
            steadiness.worse_gap([10, 10, 10], [9, 9, 9], "higher"), 0.1)

    def test_zero_base(self):
        self.assertEqual(steadiness.worse_gap([0, 0], [5, 5], "lower"), 0.0)


if __name__ == "__main__":
    unittest.main()

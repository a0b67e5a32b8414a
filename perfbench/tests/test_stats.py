"""The percentile rule: the highest percentile with >= 10 samples beyond it."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_requested_percentile_kept_when_the_tail_is_deep_enough(self):
        self.assertEqual(stats.supported_percentile(40, 75), 75.0)  # 10 beyond
        self.assertEqual(stats.supported_percentile(120, 90), 90.0)  # 12 beyond
        self.assertEqual(stats.supported_percentile(1000, 99), 99.0)  # 10 beyond

    def test_clamped_to_the_highest_supported_percentile(self):
        self.assertEqual(stats.supported_percentile(40, 90), 75.0)
        self.assertEqual(stats.supported_percentile(500, 99), 98.0)
        self.assertAlmostEqual(stats.supported_percentile(180, 99), 100 * (1 - 10 / 180))

    def test_small_samples_fall_back_to_the_median(self):
        for n in (1, 2, 6, 10, 19):
            self.assertEqual(stats.supported_percentile(n, 90), 50.0)

    def test_never_raised_above_the_request(self):
        self.assertEqual(stats.supported_percentile(10_000, 50), 50.0)

    def test_interpolates_between_ranks_and_reports_what_it_used(self):
        xs = list(range(1, 41))  # 1..40
        value, used, n = stats.percentile(reversed(xs), 75)
        self.assertEqual((used, n), (75.0, 40))
        self.assertAlmostEqual(value, 1 + 39 * 0.75)
        self.assertEqual(stats.percentile([3.0], 99), (3.0, 50.0, 1))
        self.assertEqual(stats.percentile([1.0, 2.0], 50)[0], 1.5)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread([10.0] * 9 + [11.0]), 0.0)
        self.assertGreater(stats.spread([9.0, 10.0, 11.0, 12.0]), 0.0)


if __name__ == "__main__":
    unittest.main()

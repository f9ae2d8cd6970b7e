"""Tests of the benchmark's own statistics.

Run from the repository root:  python3 -m unittest discover -s e2ebench
"""

import unittest

import stats


class TailPercentileTest(unittest.TestCase):
    def test_p99_with_enough_samples(self):
        values = list(range(1, 1001))  # 1..1000
        value, used, count = stats.tail_percentile(values, 99.0)
        self.assertEqual((value, used, count), (990, 99.0, 1000))
        # Exactly ten samples lie beyond it.
        self.assertEqual(sum(v > value for v in values), 10)

    def test_too_few_samples_lowers_the_percentile(self):
        values = list(range(1, 501))  # 500 samples: p99 has only 5 beyond
        value, used, count = stats.tail_percentile(values, 99.0)
        self.assertEqual(count, 500)
        self.assertAlmostEqual(used, 98.0)
        self.assertEqual(value, 490)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_does_not_matter(self):
        values = [5, 1, 4, 2, 3] * 300
        self.assertEqual(stats.tail_percentile(values, 99.0),
                         stats.tail_percentile(sorted(values), 99.0))

    def test_median_needs_no_tail(self):
        self.assertEqual(stats.tail_percentile([3, 1, 2], 50.0), (2, 50.0, 3))
        self.assertEqual(stats.median([4, 1, 3, 2]), 2)

    def test_tiny_samples_refuse_a_tail(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(15)), 99.0)
        with self.assertRaises(ValueError):
            stats.tail_percentile([], 50.0)


class WindowedPercentileTest(unittest.TestCase):
    def test_one_stalled_window_does_not_move_the_median(self):
        times = list(range(4000))
        values = [100.0] * 4000
        for i in range(1000, 1100):  # a stall inside the second window
            values[i] = 50_000.0
        value, used, count = stats.windowed_percentile(times, values, 4)
        self.assertEqual((value, used, count), (100.0, 99.0, 1000))
        # Over the whole phase the stall is the p99.
        self.assertEqual(stats.tail_percentile(values, 99.0)[0], 50_000.0)

    def test_median_of_window_percentiles(self):
        times = list(range(3000))
        values = [1.0] * 1000 + [2.0] * 1000 + [3.0] * 1000
        self.assertEqual(stats.windowed_percentile(times, values, 3)[0], 2.0)

    def test_small_windows_state_their_percentile(self):
        times = list(range(1000))
        value, used, count = stats.windowed_percentile(times, times, 2)
        self.assertEqual(count, 500)
        self.assertAlmostEqual(used, 98.0)


class CapacitySearchTest(unittest.TestCase):
    def search(self, true_capacity, start, **kwargs):
        return stats.capacity_search(lambda r: r <= true_capacity, start,
                                     **kwargs)

    def test_converges_within_tolerance(self):
        capacity, history = self.search(37_000, 2_000, rel_tol=0.05)
        self.assertLessEqual(capacity, 37_000)
        self.assertGreater(capacity, 37_000 / 1.05)
        self.assertLessEqual(len(history), 10)
        # Doubling first, then bisection: the first failure is 64k.
        self.assertEqual([r for r, _ in history[:6]],
                         [2_000, 4_000, 8_000, 16_000, 32_000, 64_000])
        self.assertEqual([ok for _, ok in history[:6]], [True] * 5 + [False])

    def test_start_failing_searches_down(self):
        capacity, history = self.search(700, 2_000, floor=100, rel_tol=0.05)
        self.assertEqual([r for r, _ in history[:3]], [2_000, 1_000, 500])
        self.assertLessEqual(capacity, 700)
        self.assertGreater(capacity, 700 / 1.05)

    def test_nothing_passing_gives_none(self):
        capacity, history = self.search(10, 2_000, floor=500)
        self.assertIsNone(capacity)
        self.assertEqual(history, [(2_000, False), (1_000, False),
                                   (500, False)])
        # Without a floor the start is the lowest rate tried.
        self.assertEqual(self.search(10, 2_000)[1], [(2_000, False)])

    def test_probe_budget_caps_the_search(self):
        capacity, history = self.search(1e12, 1_000, max_probes=4)
        self.assertEqual(len(history), 4)
        self.assertEqual(capacity, 8_000)

    def test_result_is_always_a_passing_rate(self):
        for true_capacity in (2_500, 9_999, 50_000, 123_456):
            capacity, history = self.search(true_capacity, 2_000,
                                            rel_tol=0.02, max_probes=20)
            self.assertIn((capacity, True), history)
            self.assertGreater(capacity * 1.02, true_capacity / 1.02)


class BacklogTest(unittest.TestCase):
    def schedule(self, rate, seconds, service_us):
        """A single FIFO server with a fixed service time, fed at `rate`."""
        due = [int(i * 1e6 / rate) for i in range(int(rate * seconds))]
        recv, free = [], 0
        for d in due:
            free = max(free, d) + service_us
            recv.append(free)
        return due, recv

    def test_server_keeping_up(self):
        due, recv = self.schedule(1_000, 1.0, 500)
        self.assertEqual(stats.outstanding(due, recv, 10_000), 1)
        self.assertFalse(stats.backlog_grows(due, recv, 1_000, 2_000))

    def test_overloaded_server(self):
        due, recv = self.schedule(1_000, 1.0, 1_500)  # serves 667/s
        self.assertGreater(stats.outstanding(due, recv, max(due)), 300)
        self.assertTrue(stats.backlog_grows(due, recv, 1_000, 2_000))

    def test_unanswered_requests_are_backlog(self):
        due, recv = self.schedule(1_000, 1.0, 100)
        recv[-1] = -1
        self.assertTrue(stats.backlog_grows(due, recv, 1_000, 2_000))


class SelfTimeTest(unittest.TestCase):
    SPANS = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": -1},
        {"name": "a", "start": 0.5, "end": 4.5, "parent": 0},
        {"name": "a.inner", "start": 1.0, "end": 2.0, "parent": 1},
        {"name": "a.inner", "start": 2.0, "end": 3.5, "parent": 1},
        {"name": "b", "start": 5.0, "end": 9.0, "parent": 0},
        {"name": "other", "start": 11.0, "end": 12.0, "parent": -1},
    ]

    def test_self_time_subtracts_direct_children_only(self):
        selfs = stats.self_times(self.SPANS)
        expected = [10.0 - 4.0 - 4.0, 4.0 - 2.5, 1.0, 1.5, 4.0, 1.0]
        for got, want in zip(selfs, expected):
            self.assertAlmostEqual(got, want)

    def test_self_times_sum_to_the_root(self):
        selfs = stats.self_times(self.SPANS)
        self.assertAlmostEqual(sum(selfs[:5]), 10.0)

    def test_layer_totals_cover_descendants_of_the_root(self):
        totals = stats.layer_self_times(self.SPANS, "root")
        self.assertEqual(set(totals), {"a", "a.inner", "b"})
        self.assertAlmostEqual(totals["a"], 1.5)
        self.assertAlmostEqual(totals["a.inner"], 2.5)
        self.assertAlmostEqual(sum(totals.values()), 10.0 - 2.0)


if __name__ == "__main__":
    unittest.main()

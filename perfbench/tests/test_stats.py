"""Tests of the benchmark's own statistics and closed-loop accounting.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from stats import Tally, beyond, closed_loop, percentile  # noqa: E402


def oracle(values, q):
    """Nearest rank by sorting and indexing: the smallest sample with at
    least q% of the sample at or below it."""
    ordered = sorted(values)
    for i, v in enumerate(ordered):
        if (i + 1) * 100 >= q * len(ordered):
            return v
    return ordered[-1]


class PercentileTest(unittest.TestCase):
    def test_matches_sort_and_index_oracle(self):
        rng = random.Random(7)
        for _ in range(500):
            values = [rng.expovariate(1.0) for _ in range(rng.randint(1, 300))]
            for q in (1, 25, 50, 90, 99, 99.9, 100):
                self.assertEqual(percentile(values, q), oracle(values, q), (len(values), q))

    def test_ties_and_order_do_not_matter(self):
        values = [3, 1, 2, 2, 2, 5]
        self.assertEqual(percentile(values, 50), 2)
        self.assertEqual(percentile(list(reversed(values)), 50), 2)
        self.assertEqual(percentile(values, 100), 5)

    def test_small_samples(self):
        self.assertEqual(percentile([4.0], 99), 4.0)
        self.assertEqual(percentile([1, 2], 50), 1)
        self.assertEqual(percentile([1, 2], 51), 2)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1], 0)

    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(beyond(1000, 99), 10)
        self.assertEqual(beyond(999, 99), 9)
        self.assertEqual(beyond(7, 99), 0)
        values = list(range(1234))
        self.assertEqual(sum(v > percentile(values, 99) for v in values), beyond(1234, 99))


class Request:
    kind = "estimate"

    def __init__(self, n):
        self.n = n


class ClosedLoopTest(unittest.TestCase):
    def fake_clock(self, step):
        now = [0.0]

        def clock():
            now[0] += step
            return now[0]

        return clock

    def test_sent_equals_succeeded_plus_failed(self):
        rng = random.Random(3)
        for _ in range(50):
            def send(req):
                if rng.random() < 0.1:
                    raise OSError("transport")
                return {"ok": rng.random() < 0.8, "n": req.n}

            samples, tally = closed_loop((Request(i) for i in range(10_000)), send,
                                         lambda req, reply: reply["ok"], deadline=1e9,
                                         clock=self.fake_clock(1.0))
            self.assertEqual(tally.sent, tally.succeeded + tally.failed)
            self.assertEqual(tally.sent, len(samples))
            self.assertEqual(tally.failed, sum(not s.ok for s in samples))

    def test_requests_are_sequential_and_stop_at_the_deadline(self):
        in_flight = []

        def send(req):
            self.assertEqual(in_flight, [])
            in_flight.append(req)
            in_flight.pop()
            return req.n

        samples, tally = closed_loop((Request(i) for i in range(100)), send,
                                     lambda req, reply: reply == req.n, deadline=30.0,
                                     clock=self.fake_clock(1.0))
        # Each request reads the clock three times: deadline, start, end.
        self.assertEqual(tally.sent, 10)
        self.assertEqual(tally.failed, 0)
        self.assertTrue(all(s.ms == 1000.0 for s in samples))

    def test_a_transport_failure_counts_and_ends_the_loop(self):
        def send(req):
            raise OSError("gone")

        samples, tally = closed_loop((Request(i) for i in range(5)), send,
                                     lambda req, reply: True, deadline=1e9)
        self.assertEqual((tally.sent, tally.succeeded, tally.failed), (1, 0, 1))

    def test_late_check_failures_keep_the_balance(self):
        tally = Tally()
        for ok in (True, True, False):
            tally.record(ok)
        tally.reclassify_failed()
        self.assertEqual((tally.sent, tally.succeeded, tally.failed), (3, 1, 2))
        self.assertAlmostEqual(tally.error_rate(), 2 / 3)


if __name__ == "__main__":
    unittest.main()

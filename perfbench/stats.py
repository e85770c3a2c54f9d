"""Sample statistics and closed-loop accounting for the benchmark.

Percentiles are nearest-rank: the q-th percentile of n samples is the
sample at rank ceil(q/100 * n) in ascending order, so every reported
percentile is a latency some request actually saw.
"""

import math
import statistics
import time


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, q):
    """How many of n samples rank above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100 * n)) if n else 0


def median(values):
    """Median of a non-empty sample (the mean of the middle pair for even n)."""
    return statistics.median(values)


class Tally:
    """Closed-loop accounting: every request sent either succeeded or
    failed, where a reply that fails its output check counts as failed."""

    def __init__(self):
        self.sent = 0
        self.succeeded = 0
        self.failed = 0

    def record(self, ok):
        self.sent += 1
        if ok:
            self.succeeded += 1
        else:
            self.failed += 1

    def reclassify_failed(self):
        """Moves one success to the failures, for a reply whose deeper
        check ran after the loop."""
        self.succeeded -= 1
        self.failed += 1

    def merge(self, other):
        self.sent += other.sent
        self.succeeded += other.succeeded
        self.failed += other.failed

    def error_rate(self):
        return self.failed / self.sent if self.sent else 0.0


class Sample:
    """One timed request: the request, its latency in ms, and whether the
    reply passed its check."""

    __slots__ = ("request", "ms", "ok")

    def __init__(self, request, ms, ok):
        self.request = request
        self.ms = ms
        self.ok = ok

    @property
    def kind(self):
        return getattr(self.request, "kind", None)


def closed_loop(requests, send, check, deadline, clock=time.perf_counter):
    """Sends `requests` one at a time, each only after the previous reply,
    until `deadline` (on `clock`) has passed or the requests run out.

    `send(request)` returns the reply, or raises OSError when the transport
    fails; `check(request, reply)` says whether the reply is correct. Only
    `send` is timed. Returns the samples and their tally.
    """
    samples = []
    tally = Tally()
    for request in requests:
        if clock() >= deadline:
            break
        started = clock()
        try:
            reply = send(request)
        except OSError:
            reply = None
        elapsed_ms = (clock() - started) * 1e3
        ok = reply is not None and check(request, reply)
        tally.record(ok)
        samples.append(Sample(request, elapsed_ms, ok))
        if reply is None:
            break
    return samples, tally

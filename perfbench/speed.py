"""Machine-speed sampling, so that timings survive a noisy host.

The shared 2-CPU containers this benchmark runs on switch between a fast
and a slow mode, about 2x apart, independently per CPU, many times a
second; how much of a minute is spent in the slow mode drifts with the
neighbours' load.  Raw wall times of the same run therefore vary by 30%
and more.

A SpeedSampler runs one thread per sampled CPU, pinned to it.  Every
PERIOD_S each thread times a small fixed piece of work shaped like hodt's
inner loops (feature strings, blake2b digests, a gather from a 32 MB
vector; none of it hodt code) with its own CPU clock, so that waiting for
the CPU or the GIL does not count.  REFERENCE_S divided by that time is
the CPU's speed at that moment relative to the reference (the fast mode
of a 2-CPU x86 container).  A phase's wall time times the mean speed over
the phase is its wall time at the reference speed.  The work costs about
2% of one CPU.
"""

import bisect
import os
import statistics
import threading
import time
from hashlib import blake2b

import numpy

PERIOD_S = 0.02
REFERENCE_S = 0.0004


class SpeedWork:
    """The timed work; its buffers are made once and shared by samplers."""

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self.weights = numpy.ones(1 << 22)
        self.index = rng.integers(0, 1 << 22, size=(4, 40, 34))

    def __call__(self):
        start = time.thread_time()
        acc = 0
        for i in range(300):
            text = 'hp,mf:' + str(i) + ' w'
            acc += blake2b(text.encode(), digest_size=8).digest()[0]
        self.weights[self.index].sum(axis=2)
        return time.thread_time() - start


class SpeedSampler:
    """Context manager sampling the speed of `cpus` while it is open."""

    def __init__(self, work, cpus):
        self.work = work
        self.samples = []  # (time.perf_counter(), relative speed)
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(cpu,))
                         for cpu in cpus]

    def _loop(self, cpu):
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(PERIOD_S):
            took = self.work()
            self.samples.append((time.perf_counter(), REFERENCE_S / took))

    def __enter__(self):
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for t in self._threads:
            t.join()
        self.samples.sort()
        self._times = [t for t, _ in self.samples]

    def mean(self, start=None, end=None):
        """Mean speed over [start, end] (the whole run by default); the
        sample nearest the middle when none falls inside."""
        if not self.samples:
            return 1.0
        if start is None:
            return statistics.fmean(s for _, s in self.samples)
        lo = bisect.bisect_left(self._times, start - PERIOD_S / 2)
        hi = bisect.bisect_right(self._times, end + PERIOD_S / 2)
        if lo < hi:
            return statistics.fmean(s for _, s in self.samples[lo:hi])
        mid = (start + end) / 2
        return min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]

"""Machine-speed calibration for the benchmark's times.

The machines this benchmark runs on may share their cores with other tenants,
and the speed a process gets swings by 20-50% within seconds.  Medians over
repetitions remove little of that.  So every timed child process also times
a fixed pure-Python kernel (tuple-keyed dicts, Fractions, a recursive
partition enumeration: the mix of chroma's inner loops, but no chroma code,
so a faster chroma does not make it faster) and reports its times scaled to
the speed at which the kernel takes REFERENCE_S of CPU time.

Inside a timed region a Sampler runs the kernel from a SIGALRM timer every
PERIOD_S.  Each stretch of work between two kernel runs is scaled by the
speed those runs measured, and the kernel's own time is taken out of every
interval the benchmark reports.  The kernel is timed by thread CPU time, so
time spent waiting for a core does not count as slowness.  Under a process
pool the work runs in the workers, so a WorkerSampler starts the same timer
in every forked worker instead.

Changing the kernel, REFERENCE_S or PERIOD_S changes every reported time:
do none of these without measuring a new baseline.
"""

import bisect
import gc
import os
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.014
PERIOD_S = 0.2
RUNS = 5


def kernel():
    acc = {}
    for i in range(25000):
        key = (i % 31, i % 17, i & 3)
        acc[key] = acc.get(key, 0) + i * i
    total = Fraction(0)
    for i in range(1, 450):
        total += Fraction(i % 7 + 1, i)
    parts = []

    def rec(left, largest, prefix):
        if left == 0:
            parts.append(tuple(prefix))
            return
        for p in range(min(left, largest), 0, -1):
            prefix.append(p)
            rec(left - p, p, prefix)
            prefix.pop()

    rec(20, 20, [])
    return len(acc), total, len(sorted(parts, reverse=True))


def timed_kernel():
    """(perf_counter start, wall seconds, thread CPU seconds) of one run,
    with the collector paused so a collection of the caller's heap is not
    billed to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        w0 = time.perf_counter()
        c0 = time.thread_time()
        kernel()
        c1 = time.thread_time()
        w1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return w0, w1 - w0, c1 - c0


def scale(runs=RUNS):
    """Factor from seconds measured now to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(timed_kernel()[2] for _ in range(runs))


class Sampler:
    """Runs the kernel every PERIOD_S while active; then maps intervals of
    perf_counter time to work seconds at the reference speed."""

    def __init__(self):
        self.samples = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(timed_kernel())
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._starts = [s[0] for s in self.samples]
        return False

    def kernel_cpu_s(self):
        """Kernel CPU seconds billed to (this process, its children)."""
        return sum(s[2] for s in self.samples), 0.0

    def raw(self, a, b):
        """Seconds of [a, b] not spent in the kernel."""
        return (b - a) - sum(self._in(a, b, lambda s: s[1]))

    def scaled(self, a, b, fallback):
        """Work seconds in [a, b] at the reference speed.  Work between two
        kernel runs is scaled by their mean speed; work before the first or
        after the last run by that run's; with no runs, by `fallback`."""
        samples = self.samples
        if not samples:
            return (b - a) * fallback
        total = 0.0
        lo = bisect.bisect_right(self._starts, a) - 1
        cursor = a
        for j in range(max(lo, 0), len(samples) + 1):
            seg_end = samples[j][0] if j < len(samples) else b
            speeds = [samples[i][2] for i in (j - 1, j) if 0 <= i < len(samples)]
            factor = REFERENCE_S / (sum(speeds) / len(speeds))
            end = min(seg_end, b)
            if end > cursor:
                total += (end - cursor) * factor
            if j < len(samples):
                cursor = max(cursor, samples[j][0] + samples[j][1])
            if seg_end >= b:
                break
        return total

    def _in(self, a, b, field):
        lo = bisect.bisect_left(self._starts, a)
        hi = bisect.bisect_left(self._starts, b)
        return [field(s) for s in self.samples[lo:hi]]


class WorkerSampler:
    """Calibration for work done in forked pool workers.  Each worker runs
    the kernel from its own timer (timers do not survive fork, so a fork
    hook starts one) and appends its samples to `path`.  An interval is
    scaled by the workers' median speed over the run, and loses the mean
    per-worker kernel time that fell in it."""

    def __init__(self, path):
        self.path = path
        self.samples = []
        self._active = False

    def _start_in_worker(self):
        if not self._active:
            return
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)

        def tick(signum, frame):
            w0, wall, cpu = timed_kernel()
            os.write(fd, b"%d %r %r %r\n" % (os.getpid(), w0, wall, cpu))

        signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def __enter__(self):
        self._active = True
        os.register_at_fork(after_in_child=self._start_in_worker)
        return self

    def __exit__(self, *exc):
        self._active = False
        try:
            with open(self.path) as fh:
                for line in fh:
                    pid, w0, wall, cpu = line.split()
                    self.samples.append((int(pid), float(w0), float(wall), float(cpu)))
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False

    def kernel_cpu_s(self):
        return 0.0, sum(s[3] for s in self.samples)

    def raw(self, a, b):
        inside = [s for s in self.samples if a <= s[1] < b]
        workers = {s[0] for s in self.samples} or {None}
        return (b - a) - sum(s[2] for s in inside) / len(workers)

    def scaled(self, a, b, fallback):
        if not self.samples:
            return (b - a) * fallback
        speed = statistics.median(s[3] for s in self.samples)
        return self.raw(a, b) * REFERENCE_S / speed

"""Machine pace: time in units of a fixed reference computation.

The 2-vCPU virtual machine this benchmark was built on changed speed by up to
2x within seconds, so a time in seconds measured in one run said as much
about the moment as about the program.  ``Pacer`` runs a
small fixed computation, ``reference``, every ``PERIOD_S`` of wall time
from a SIGALRM handler while the measured calls run, and records when each
of those slices started and ended.  ``refs(marks, t0, t1)`` then divides each
stretch of [t0, t1] between two slices by the duration of the slice that
closes it (a median of three, against outliers): the result is the time the
calls took, counted in reference slices at the speed the machine had at that
moment.  When the machine slows down, the calls and the slices slow down
together and the count stays put, though not fully: in the slow spells the
calls lose somewhat more speed than the slices do.

The slices themselves are not part of the measured calls: ``busy`` gives the
time they took inside a window, which is taken off the window's seconds.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.025  # wall time between two reference slices


def reference():
    """The fixed reference computation, about 0.4 ms: Gauss elimination over
    Fraction on a fixed sparse 7 x 7 matrix held in dicts, the same kind of
    work as the package's own (pure-Python dicts, ints and Fractions)."""
    rng = random.Random(0)
    n = 7
    rows = [{j: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             for j in range(n) if rng.random() < 0.5} for _ in range(n)]
    pivots = {}
    for r in rows:
        r = dict(r)
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                c = r[lead]
                pivots[lead] = {k: v / c for k, v in r.items()}
                break
            b = r.pop(lead)
            for k, v in p.items():
                if k != lead:
                    y = r.get(k, 0) - b * v
                    if y:
                        r[k] = y
                    else:
                        r.pop(k, None)
    return len(pivots)


class Pacer:
    """Runs ``reference`` every ``period`` seconds of wall time, between
    ``start`` and ``stop``; ``marks`` holds the (start, end) of each slice."""

    def __init__(self, period=PERIOD_S, clock=time.perf_counter):
        self.period = period
        self.clock = clock
        self.marks = []

    def _tick(self, _signum, _frame):
        a = self.clock()
        reference()
        self.marks.append((a, self.clock()))

    def start(self):
        a = self.clock()
        reference()  # a first slice, so every window has a pace
        self.marks.append((a, self.clock()))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        a = self.clock()
        reference()  # and a last one, closing the final stretch
        self.marks.append((a, self.clock()))


def busy(marks, t0, t1):
    """Seconds of [t0, t1] spent in reference slices."""
    return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in marks)


def refs(marks, t0, t1):
    """The time of [t0, t1] outside the slices, each stretch counted in the
    pace of the slice that ends it (the last slice for a stretch after every
    slice).  A slice's pace is the median duration of it and its two
    neighbours, so that one slice delayed by an interrupt does not count."""
    durations = [b - a for a, b in marks]
    paces = [statistics.median(durations[max(0, i - 1):i + 2]) for i in range(len(marks))]
    total = 0.0
    prev = None  # end of the previous slice
    for (a, b), p in zip(marks, paces):
        lo = t0 if prev is None else max(t0, prev)
        hi = min(t1, a)
        if hi > lo:
            total += (hi - lo) / p
        prev = b
        if prev >= t1:
            return total
    if t1 > max(t0, prev):
        total += (t1 - max(t0, prev)) / paces[-1]
    return total

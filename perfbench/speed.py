"""How fast this machine runs Python while a run is timed, to scale by.

A shared virtual machine changes speed with what the other tenants of its
host do.  On the reference machine below, the same 1 ms loop takes either
about 1.0 or about 1.7 ms, and the machine switches between the two every
few milliseconds in some stretches and stays in one for many seconds in
others; two sets of runs of the same code differed by 28% in their median.
So every time the benchmark reports is CPU time scaled to a reference
speed.  While a run is timed, an interval timer on the process's CPU time
interrupts it every PROBE_EVERY_S and runs ``probe()``, a fixed piece of
pure-Python work of the kind the library does (Fractions, tuple-keyed
dicts, sorting), which does not call the library.  The probes' own time is
taken out of every timing, and a timed interval is scaled by

    REFERENCE_S * mean(1 / probe time)

over the probes inside it and the NEAREST on either side.  Probes spread
evenly over CPU time, so that mean of rates weights each speed by the time
spent at it, and CPU time times it is the work done, in units of
REFERENCE_S.  A change to the library moves the scaled times; a change of
machine speed moves the probes with it.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from fractions import Fraction

# probe() CPU time at the fast speed of the reference machine: a 2-vCPU
# Intel Xeon (family 6, model 207) KVM guest at 2.1 GHz base, CPython 3.11
REFERENCE_S = 0.001
# CPU seconds between probes
PROBE_EVERY_S = 0.02
# probes either side of an interval that also speak for its speed
NEAREST = 8


def probe():
    """A fixed piece of library-like work; returns its CPU seconds."""
    start = time.thread_time()
    terms = {}
    for i in range(300):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i % 9 + 1, i % 4 + 1)
    total = sum(terms.values(), Fraction(0))
    assert total.denominator > 0
    return time.thread_time() - start


class Speed:
    """Probes the speed while active; ``clock`` is CPU time without them.

    Use as a context manager around everything that is timed, and time it
    with ``clock``; then ``scaled(start, end)`` is the time from ``start``
    to ``end`` on that clock at the reference speed.
    """

    def __init__(self):
        self.at = []      # clock() when each probe started
        self.rates = []   # 1 / its CPU seconds
        self.spent = 0.0  # CPU seconds in probes and their bookkeeping
        self._previous = None

    def clock(self):
        return time.thread_time() - self.spent

    def _probe(self, *_):
        start = time.thread_time()
        self.at.append(start - self.spent)
        self.rates.append(1.0 / probe())
        self.spent += time.thread_time() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        # a run too short for the timer still gets a speed
        while len(self.rates) < 2 * NEAREST:
            self._probe()

    def factor(self, start, end):
        """REFERENCE_S times the mean probe rate in and around [start, end]."""
        lo = max(0, bisect.bisect_left(self.at, start) - NEAREST)
        hi = bisect.bisect_right(self.at, end) + NEAREST
        rates = self.rates[lo:hi]
        return REFERENCE_S * math.fsum(rates) / len(rates)

    def scaled(self, start, end):
        return (end - start) * self.factor(start, end)

    def overall(self):
        """The factor over every probe, for the detail line."""
        return REFERENCE_S * math.fsum(self.rates) / len(self.rates)

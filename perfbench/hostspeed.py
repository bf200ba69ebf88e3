"""Host-speed reference for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed changes within
tens of milliseconds and drifts by up to half again for minutes at a time,
while the process gets the same CPU time (no steal): neighbours slow the
core down.  A run's raw wall time then says
more about the minute it ran in than about the code.

While a timed phase runs, `Ticker` interrupts it every `INTERVAL_S` of
wall time with SIGALRM and runs one reference chunk: a fixed piece of
pure-Python work (exact Fraction elimination and tuple-keyed dict sums, the
operations nilorb spends its time in) that does not call nilorb.  The time
the chunks take is kept out of the workload's timings by `clock()`, and
their mean time over a pass, a set-up or an item measures how fast the
host ran meanwhile.  `Ticker.scale()` turns a measured time into the time
it would have taken on a host on which one chunk takes `REFERENCE_CHUNK_S`.

A change to nilorb moves the workload's time and not the chunk's, so the
scaled times follow the code; a slower host moves both, and the ratio
stays.
"""

import gc
import random
import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
# Nominal time of one chunk.  On the 2-vCPU x86-64 VM with Python 3.11 the
# benchmark was written on, a chunk took 0.7 to 2.2 ms as the host's speed
# drifted, so scaled times are of the order of that host's raw times.
REFERENCE_CHUNK_S = 0.001

_rng = random.Random(20080101)
_MATRIX = [[Fraction(_rng.randint(-4, 4)) for _ in range(8)] for _ in range(6)]
_KEYS = [tuple(_rng.randint(-2, 2) for _ in range(4)) for _ in range(40)]


def reference_chunk():
    """Fixed work: row-reduce `_MATRIX` and sum coefficients by key."""
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    out = {}
    for j, k1 in enumerate(_KEYS):
        k2 = _KEYS[j - 1]
        k = tuple(a + b for a, b in zip(k1, k2))
        out[k] = out.get(k, 0) + j * r
    return r, len(out)


class Ticker:
    """Runs reference chunks and keeps, for each, the `clock()` time it ran
    at and the total chunk time up to and including it."""

    def __init__(self):
        self.spent = 0.0
        self.times = []
        self.spent_after = []

    def chunk(self, *_signal_args):
        """Run one reference chunk; also the SIGALRM handler.  The garbage
        collector is off during the chunk, so the chunk never pays for a
        collection of the workload's objects."""
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        self.times.append(t0 - self.spent)
        reference_chunk()
        self.spent += perf_counter() - t0
        self.spent_after.append(self.spent)
        if was_enabled:
            gc.enable()

    def mark(self):
        """Run one chunk and return its `clock()` time, to bracket a phase."""
        self.chunk()
        return self.times[-1]

    @contextmanager
    def running(self):
        """Run chunks every INTERVAL_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self.chunk)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, seconds, start, end):
        """`seconds`, measured between `clock()` times `start` and `end`, on
        a host on which one chunk takes REFERENCE_CHUNK_S, judged by the
        chunks run between them, or by the nearest chunk on each side when
        none did.  Chunks further away judge worse: the host's speed
        changes within tens of milliseconds."""
        i = bisect_left(self.times, start)
        j = bisect_right(self.times, end)
        if i == j:
            i, j = max(i - 1, 0), min(j + 1, len(self.times))
        spent = self.spent_after[j - 1] - (self.spent_after[i - 1] if i else 0.0)
        return seconds * REFERENCE_CHUNK_S * (j - i) / spent


TICKER = Ticker()


def clock():
    """perf_counter() minus the time spent in reference chunks.  Reads the
    chunk time on both sides, so a chunk that runs in between is seen."""
    while True:
        spent = TICKER.spent
        now = perf_counter()
        if TICKER.spent == spent:
            return now - spent

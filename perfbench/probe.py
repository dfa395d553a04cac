"""A speed probe: how fast the host runs pure-Python code, moment by moment.

The benchmark runs on a shared virtual machine whose speed swings by up to
2x within seconds and drifts over minutes, so a raw wall time says as much
about the neighbours as about the program.  `SpeedProbe` interrupts the
process every `PERIOD_S` seconds (``SIGALRM`` from ``setitimer``) and times
one `chunk` of fixed pure-Python work: dict updates keyed by tuples and
`Fraction` sums, the operations fibrecount itself spends its time in.  The
time the handler takes is kept, so that callers can take it out of their
own measurements.

`normalize` turns a measured time into *reference seconds*: the time the
same work would take on a host where one chunk takes `REFERENCE_CHUNK_S`.
A host that runs at speed r(t) does work W in time T with
W = integral of r dt; a chunk taken at time t lasts w / r(t), so
W / r_ref = T * mean(REFERENCE_CHUNK_S / chunk) over chunks taken at
uniform times during T.
"""

from __future__ import annotations

import gc
import signal
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD_S = 0.05
# A chunk's time on the 2-vCPU host the benchmark was written on, in its
# faster state; only the scale of the reported times depends on it.
REFERENCE_CHUNK_S = 0.0006
# Chunks within this many seconds of a timed interval also count for it,
# so that intervals shorter than PERIOD_S get a speed too.
MARGIN_S = 0.5


def chunk() -> int:
    """Fixed pure-Python work, about 0.6 to 1.2 ms on the host above."""
    acc: dict = {}
    for i in range(1, 200):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 5 + 1, i)
    return len(acc)


def time_chunk() -> float:
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


class SpeedProbe:
    """Times one chunk every PERIOD_S seconds while installed.

    `samples` holds ``(perf_counter at the chunk's start, chunk seconds)``;
    `paused_s` and `paused_cpu_s` the wall and CPU time the handler took.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self.paused_s = 0.0
        self.paused_cpu_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        # The handler's frames must not count against a deep recursion of
        # the program it interrupts, and its allocations, all freed when
        # the chunk ends, must not trigger a collection: the program's own
        # collections then fall on the same jobs in every pass.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 50)
        collecting = gc.isenabled()
        gc.disable()
        try:
            cpu = time.process_time()
            start = time.perf_counter()
            chunk()
            end = time.perf_counter()
            self.samples.append((start, end - start))
            self.paused_cpu_s += time.process_time() - cpu
            self.paused_s += time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
            sys.setrecursionlimit(limit)

    def install(self) -> None:
        """Start sampling; the first sample is taken at once."""
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def uninstall(self) -> None:
        """Stop sampling; a last sample is taken after the timer stops."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._handler(None, None)


def speed(samples: list, start: float, end: float) -> float:
    """Mean of REFERENCE_CHUNK_S / chunk over the samples taken in
    [start - MARGIN_S, end + MARGIN_S]; `samples` is sorted by time."""
    times = [t for t, _ in samples]
    window = samples[bisect_left(times, start - MARGIN_S):bisect_right(times, end + MARGIN_S)]
    if not window:
        raise ValueError(f"no probe sample within {MARGIN_S} s of [{start}, {end}]")
    return sum(REFERENCE_CHUNK_S / c for _, c in window) / len(window)


def normalize(seconds: float, samples: list, start: float, end: float) -> float:
    """`seconds` measured during [start, end], in reference seconds."""
    return seconds * speed(samples, start, end)

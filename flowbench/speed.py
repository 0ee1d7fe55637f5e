"""Timings at a reference CPU speed, for steady numbers on a shared host.

On the shared reference host a CPU's speed halves for seconds at a time
while other tenants load it, so raw wall-clock of the same flow drifts
by tens of percent from minute to minute.  ``stopwatch`` times a block
and, while it runs, samples the CPU's current speed: every ``PERIOD_S``
a SIGALRM handler times ``probe``, a fixed bit of dict work that never
touches the program.  The block's time at the reference speed is its own
time (wall minus the probes) scaled by ``PROBE_SECONDS`` over the mean
probe time.  Sampling during the block, not next to it, is what makes
the scale track the contention the block actually met.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List

PERIOD_S = 0.025

#: Nominal probe time, about its uncontended time on the reference host.
#: Fixed for good: it only sets the scale of the reported times.
PROBE_SECONDS = 2.2e-4


#: A probe slower than this many typical probes met something other
#: than contention (a garbage collection of the program's heap, a page
#: fault) and is left out.
OUTLIER = 5.0


def probe() -> float:
    start = time.perf_counter()
    table: dict = {}
    for i in range(1500):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.perf_counter() - start


@dataclass
class Timing:
    wall: float = 0.0
    #: Wall-clock minus the probes' own time.
    own: float = 0.0
    #: Mean probe time while the block ran.
    probe_s: float = PROBE_SECONDS

    @property
    def scale(self) -> float:
        """Factor from this block's seconds to reference-speed seconds."""
        return PROBE_SECONDS / self.probe_s

    @property
    def seconds(self) -> float:
        return self.own * self.scale


@contextmanager
def stopwatch() -> Iterator[Timing]:
    """Time the block; the yielded ``Timing`` is filled in on exit."""
    samples: List[float] = []
    timing = Timing()
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    start = time.perf_counter()
    try:
        yield timing
    finally:
        timing.wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        timing.own = timing.wall - sum(samples)
        if not samples:  # a block shorter than one period
            samples.append(probe())
        typical = statistics.median(samples)
        timing.probe_s = statistics.fmean(
            s for s in samples if s <= OUTLIER * typical
        )

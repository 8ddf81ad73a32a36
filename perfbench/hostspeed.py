"""Host speed: a fixed reference kernel timed on the measured process's CPUs.

On a shared VM the speed of a vCPU moves with the load its host puts
beside it: the same cold study takes 1.0 s of CPU in one spell and
1.6 s in the next, at under 1% steal, and the spells last from seconds
to minutes.  CPU time excludes steal but not that slowdown.  So the
benchmark brackets every timed window (a set-up, a serve round, a
campaign cycle) with a short burst of a fixed pure-Python kernel, run
on the measured process's CPUs while that process is idle, and logs the
CPU time of every kernel unit with the time it ended.  A CPU or set-up
time measured over a window is then scaled by
``NOMINAL_UNIT_S / (mean unit time beside that window)``: the figure
the same work would have read at the nominal speed.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, List, Sequence, Tuple

#: Iterations of one kernel unit (about 5 ms of CPU).
UNIT_ITERATIONS = 40_000
#: CPU seconds of one unit at the nominal speed: the lower quartile of
#: 20 s of units on an idle 2 GHz Intel Xeon vCPU.  It only sets the
#: scale of the scaled figures.
NOMINAL_UNIT_S = 0.0048
#: Length of one burst of units.
BURST_S = 0.15
#: A unit counts for a window when it ended inside it or this close to
#: either end, so the bursts just before and after a window count.
PAD_S = 0.3


def unit() -> int:
    """One unit of the reference kernel: integer arithmetic and a small dict."""
    s = 0
    d = {}
    for i in range(UNIT_ITERATIONS):
        s += i * i
        d[i & 1023] = s
    return s


class SpeedLog:
    """Reference units timed on the measured process's CPUs."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = set(cpus)
        #: (time.monotonic at the end of a unit, its CPU seconds)
        self.samples: List[Tuple[float, float]] = []

    def burst(self, seconds: float = BURST_S) -> None:
        """Run units on the measured CPUs for ``seconds``.

        Call it only while the measured process is idle: this thread
        moves to its CPUs for the burst and back afterwards.
        """
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cpus)
        try:
            end = time.monotonic() + seconds
            now = 0.0
            while now < end:
                c0 = time.thread_time()
                unit()
                c1 = time.thread_time()
                now = time.monotonic()
                self.samples.append((now, c1 - c0))
        finally:
            os.sched_setaffinity(0, home)

    def scale(self, windows: Sequence[Tuple[float, float]]) -> Tuple[float, int]:
        """``(NOMINAL_UNIT_S / mean unit time, units used)`` beside ``windows``.

        Raises when no unit ended within ``PAD_S`` of any window.
        """
        units = [dt for t, dt in self.samples
                 if any(a - PAD_S <= t <= b + PAD_S for a, b in windows)]
        if not units:
            raise RuntimeError(f"no host-speed unit within {PAD_S} s of {windows}")
        return NOMINAL_UNIT_S * len(units) / sum(units), len(units)

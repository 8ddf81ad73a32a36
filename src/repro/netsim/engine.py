"""Discrete-event simulation kernel.

A minimal, dependency-free event engine in the style of SimPy, tuned for
the message-passing cluster models in this package.

The scheduler is an array-backed calendar queue: events are bucketed by
time instant (a dict mapping each pending timestamp to a Python-list
bucket) and a small binary heap orders only the *distinct* timestamps.
Within a bucket events drain FIFO, which is exactly the ``(time,
scheduling order)`` order of a classic binary heap of events.  Message
passing workloads schedule many events at identical instants (barrier
releases, zero-delay resumes, same-hold transfers), so the heap holds
one entry per instant rather than one per event and the per-event cost
drops to a dict lookup plus a list append.  The test suite checks this
order against a reference binary-heap engine.

Determinism is guaranteed by that FIFO tie-break — two events scheduled
for the same instant fire in scheduling order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from ..errors import DeadlockError, PastEventError, SimulationError


class Engine:
    """Event queue and virtual clock.

    The engine knows nothing about processes, networks or CPUs; those are
    layered on top (see :mod:`repro.netsim.process` and
    :mod:`repro.netsim.network`).
    """

    __slots__ = (
        "_buckets",
        "_times",
        "_pending",
        "_seq",
        "_now",
        "_running",
        "blocked_processes",
        "events_executed",
        "max_queue_depth",
    )

    def __init__(self) -> None:
        # bucket per pending instant + heap of the distinct instants
        self._buckets: Dict[float, List[Callable[[], None]]] = {}
        self._times: List[float] = []
        self._pending = 0
        self._seq = 0
        self._now = 0.0
        self._running = False
        #: number of processes currently blocked on an external condition
        #: (mailbox, barrier, resource); used for deadlock detection.
        self.blocked_processes = 0
        self.events_executed = 0
        #: high-water mark of the event queue length (obs metric)
        self.max_queue_depth = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the sequence counter)."""
        return self._seq

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        time = self._now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heappush(self._times, time)
        else:
            bucket.append(callback)
        self._pending += 1
        if self._pending > self.max_queue_depth:
            self.max_queue_depth = self._pending

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute virtual ``time``.

        Raises :class:`~repro.errors.PastEventError` when ``time`` lies
        before the current clock, naming both instants — far easier to
        act on than the relative ``delay=-x`` complaint ``schedule``
        would otherwise produce.
        """
        if time < self._now:
            raise PastEventError(time, self._now)
        self.schedule(time - self._now, callback)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the virtual time at which execution stopped.  With a
        horizon, the clock always lands exactly on ``until`` (never
        before it, even when the queue drains early; never after it) —
        except when ``until`` already lies in the past, in which case
        the clock stays put rather than run backwards.  An event
        scheduled exactly *at* ``until`` fires before the clock parks
        on the horizon.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        try:
            self._drain(until)
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
        return self._now

    def _drain(self, until: Optional[float]) -> None:
        """Fire events in (time, scheduling order) up to ``until``."""
        times = self._times
        buckets = self._buckets
        horizon = float("inf") if until is None else until
        while times:
            time = times[0]
            if time > horizon:
                break
            if time < self._now:
                raise SimulationError("event queue time went backwards")
            self._now = time
            bucket = buckets[time]
            # Drain with the list iterator: a callback scheduling a
            # zero-delay event appends to this same bucket and the
            # iterator picks it up in-order, so FIFO-within-instant
            # equals the heap's (time, seq) order.  ``i`` advances
            # before each invocation so an executed-but-raising
            # callback is not replayed by the trim below.
            i = 0
            try:
                for callback in bucket:
                    i += 1
                    self._pending -= 1
                    callback()
            finally:
                # Counted in bulk per bucket; a raising callback still
                # counts as executed, and nothing reads the counter
                # mid-run.
                self.events_executed += i
                if i < len(bucket):  # callback raised mid-bucket
                    buckets[time] = bucket[i:]
                else:
                    del buckets[time]
                    heappop(times)

    def run_all(self) -> float:
        """Run to quiescence and fail loudly if processes remain blocked.

        This is the right call for closed workloads (a parallel program
        that must terminate): a drained queue with blocked processes is a
        deadlock, e.g. a ``Recv`` whose matching ``Send`` never happened.
        """
        t = self.run()
        if self.blocked_processes > 0:
            raise DeadlockError(
                f"event queue drained with {self.blocked_processes} process(es) "
                "still blocked (missing message or barrier member?)"
            )
        return t

    def pending(self) -> int:
        """Number of events still queued."""
        return self._pending

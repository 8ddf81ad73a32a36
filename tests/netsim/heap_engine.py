"""A reference binary-heap event engine for differential tests.

:class:`HeapEngine` keeps one ``(time, seq, callback)`` heap entry per
event — the textbook scheduler the production calendar queue in
:mod:`repro.netsim.engine` replaced.  Both must fire events in the same
``(time, scheduling order)`` order with the same clocks and counters,
which ``test_engine.py`` and ``test_scheduler_differential.py`` check.
"""

from heapq import heappop, heappush
from typing import Callable, Dict

from repro.errors import SimulationError
from repro.netsim.engine import Engine


class HeapEngine(Engine):
    """:class:`Engine` with a plain binary heap of events."""

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        super().__init__()
        self._queue = []

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heappush(self._queue, (self._now + delay, self._seq, callback))
        if len(self._queue) > self.max_queue_depth:
            self.max_queue_depth = len(self._queue)

    def _drain(self, until) -> None:
        queue = self._queue
        while queue:
            time, _seq, callback = queue[0]
            if until is not None and time > until:
                break
            heappop(queue)
            if time < self._now:
                raise SimulationError("event queue time went backwards")
            self._now = time
            self.events_executed += 1
            callback()

    def pending(self) -> int:
        return len(self._queue)


#: The engines every differential test compares, by name.
ENGINES: Dict[str, Callable[[], Engine]] = {
    "calendar": Engine,
    "heap": HeapEngine,
}

"""Dynamic micro-batching of admitted requests.

Concurrent single-point queries are individually tiny — one model
evaluation each — but they arrive in bursts, and each dispatch pays
fixed costs (calibration lookup, model construction, executor handoff)
that dwarf the per-point arithmetic.  The micro-batcher dispatches as
soon as it is idle: each batch is whatever queued while the previous
batch computed, bounded by ``max_batch``, and it never waits for
stragglers.  A burst therefore still rides in full batches, while an
isolated request goes straight to compute.  ``max_batch=1`` degenerates
to sequential serving through the identical code path, which is what
the throughput benchmark compares against.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, List

#: Queue sentinel that tells the batch loop to drain and exit.
_STOP = object()


class MicroBatcher:
    """Coalesces queued work items into bounded batches.

    ``dispatch`` is an async callable receiving a non-empty list of
    items; it is awaited once per batch, never concurrently with
    itself, so downstream code needs no locking.  Items are dispatched
    in arrival order within and across batches.
    """

    def __init__(
        self,
        dispatch: Callable[[List[Any]], Awaitable[None]],
        max_batch: int = 64,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        self.dispatch = dispatch
        self.max_batch = max_batch
        self.queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self.batches = 0
        self.items = 0
        self._task: "asyncio.Task[None] | None" = None

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Items currently queued and not yet picked into a batch."""
        return self.queue.qsize()

    def put(self, item: Any) -> None:
        """Enqueue one work item (non-blocking; the queue is unbounded
        here — admission control bounds it upstream)."""
        self.queue.put_nowait(item)

    def start(self) -> None:
        """Start the batch loop on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain remaining items, dispatch them, and stop the loop.

        Items that race the stop sentinel — ``put()`` after the sentinel
        was enqueued — are *not* dispatched; the caller must collect
        them with :meth:`drain_pending` and answer them itself, or their
        futures hang forever.
        """
        if self._task is None:
            return
        self.queue.put_nowait(_STOP)
        await self._task
        self._task = None

    def drain_pending(self) -> List[Any]:
        """Remove and return every item still queued after :meth:`stop`.

        The batch loop dispatches everything *ahead* of the stop
        sentinel, but an item enqueued concurrently with ``stop()`` can
        land behind it and would otherwise never be picked into a
        batch.  Call this after ``stop()`` returns and answer the
        leftovers deterministically (the service sheds them with a 429
        ``shed:drain``).
        """
        leftovers: List[Any] = []
        while True:
            try:
                item = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                return leftovers
            if item is not _STOP:
                leftovers.append(item)

    # ------------------------------------------------------------------
    async def _fill(self, batch: List[Any]) -> bool:
        """Fill ``batch`` up to ``max_batch``; False once _STOP is seen.

        Waits only for the first item: the rest is whatever is already
        queued, which is what arrived while the previous batch computed.
        """
        item = await self.queue.get()
        if item is _STOP:
            return False
        batch.append(item)
        # drain whatever is already queued, without yielding
        while len(batch) < self.max_batch:
            try:
                item = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is _STOP:
                return False
            batch.append(item)
        return True

    async def _run(self) -> None:
        """The batch loop: fill, dispatch, repeat until stopped."""
        running = True
        while running:
            batch: List[Any] = []
            running = await self._fill(batch)
            if batch:
                self.batches += 1
                self.items += len(batch)
                await self.dispatch(batch)

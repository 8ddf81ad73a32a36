"""Lock-free flight recorder: per-request serve and fleet telemetry, live.

A preallocated ring buffer riding inside
:class:`~repro.serve.service.PredictionService` (dataset ``serve``)
and :class:`~repro.serve.router.FleetRouter` (dataset ``fleet``).
Every predict or sweep request that reaches admission leaves exactly
one row, answered, shed or expired, and even when its caller stopped
waiting (pings and catalog requests leave none).  The dataset's
:data:`LAYOUTS` entry names the columns — for ``serve`` the per-stage
latencies (admit/queue/compute/reply, microseconds), the exact reply
latency the service's own quantile report uses (``reply_s``), the
queue depth seen at admission, the batch it rode in and a status code;
for ``fleet`` the router's view plus the worker slot and retry count —
without locks: the owner records from the event-loop thread only
(single writer), and a record is one tuple store into a preallocated
list ring, a few hundred nanoseconds.  Columnar numpy conversion
happens at flush time, off the hot path.

Flushing converts the unflushed rows into one segment of a
:class:`~repro.obs.store.TelemetryStore`.  The async :meth:`flush`
pushes the file I/O off the event loop via ``run_in_executor`` (the
S701 rule: no blocking I/O inside ``repro.serve`` coroutines);
:meth:`flush_sync` is the synchronous core for non-async callers.
Flush at quiescent points (after a drain, at service stop — the
shipped hook): a flush racing live traffic can miss rows the ring
overwrites mid-copy, which is the classic flight-recorder trade —
bounded memory and zero hot-path cost over lossless capture.

The ring is the owners' one record: besides it they keep only the
tallies made where a decision is taken (admission, batcher, per-worker
stats), and their ``latency_quantiles()`` read ``reply_s`` from every
row it holds (the newest ``capacity``), flushed or not, whose status
is not in :data:`~repro.obs.monitor.SHED_STATUSES`, so ``p99(reply_s)`` over
stored rows with ``status!=1 and status!=2 and status!=5`` reproduces
``latency_quantiles()["p99"]`` exactly while the ring has not wrapped.

:func:`status_code` is the one response-to-outcome classifier: the
service, the router and the load generator all sort a response into
the ``status`` codes of :mod:`repro.obs.monitor` through it.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..obs.monitor import (
    SHED_STATUSES,
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_SHED_DRAIN,
    STATUS_SHED_QUEUE,
    STATUS_SHED_RATE,
)
from . import api

#: Row layout of each dataset: its float64 columns, then its int64
#: columns.  One recorded row is one tuple in exactly this order.
LAYOUTS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "serve": (
        ("t_admit", "admit_us", "queue_us", "compute_us", "reply_us", "reply_s"),
        ("depth", "status", "batch"),
    ),
    "fleet": (
        ("t_admit", "admit_us", "reply_s"),
        ("depth", "status", "worker", "attempts"),
    ),
}

#: ``status`` code of each 429 reason (anything else sheds by rate).
_SHED_CODES = {"shed:queue": STATUS_SHED_QUEUE, "shed:drain": STATUS_SHED_DRAIN}


def status_code(response: Dict[str, Any]) -> int:
    """The ``status`` column code of one response envelope."""
    status = response.get("status")
    if status == api.OK:
        return STATUS_OK
    if status == api.DEADLINE_EXPIRED:
        return STATUS_EXPIRED
    if status == api.SHED:
        reason = response.get("error", {}).get("reason", "")
        return _SHED_CODES.get(reason, STATUS_SHED_RATE)
    return STATUS_ERROR


class FlightRecorder:
    """Single-writer ring buffer of per-request records.

    ``capacity`` bounds memory; once exceeded, the oldest *unflushed*
    rows are overwritten and counted in :attr:`dropped`, with or
    without a store.  ``dataset`` picks the row layout
    (:data:`LAYOUTS`) and is where :meth:`flush` appends segments to
    ``store`` (optional).
    """

    def __init__(
        self,
        capacity: int = 65536,
        store: Optional[object] = None,
        dataset: str = "serve",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if dataset not in LAYOUTS:
            raise ValueError(
                f"no row layout for dataset {dataset!r}; known: {sorted(LAYOUTS)}"
            )
        self.capacity = capacity
        self.store = store
        self.dataset = dataset
        #: the ring: one layout-ordered tuple per recorded row
        self._rows: list = [None] * capacity
        #: total rows ever recorded (monotone absolute sequence)
        self.recorded = 0
        #: absolute sequence already flushed to the store
        self._flushed = 0
        #: rows lost to wraparound, as folded in at past flushes
        self._dropped_at_flush = 0

    # -- recording (event-loop thread only) -----------------------------
    def record(self, *row: Any) -> None:
        """Record one row, its values in the dataset's layout order."""
        self._rows[self.recorded % self.capacity] = row
        self.recorded += 1

    # -- reading / flushing ---------------------------------------------
    @property
    def dropped(self) -> int:
        """Rows overwritten before they could flush (derived; no hot-path cost)."""
        unflushed_lost = self.recorded - self.capacity - self._flushed
        return self._dropped_at_flush + max(0, unflushed_lost)

    @property
    def pending(self) -> int:
        """Unflushed rows still held in the ring (post-wrap survivors)."""
        return min(self.recorded - self._flushed, self.capacity)

    def answered_reply_s(self) -> List[float]:
        """``reply_s`` of each held row, flushed or not, not in ``SHED_STATUSES`` (ring order)."""
        floats, ints = LAYOUTS[self.dataset]
        reply, status = floats.index("reply_s"), len(floats) + ints.index("status")
        return [row[reply] for row in self._rows
                if row is not None and row[status] not in SHED_STATUSES]

    def snapshot(self) -> Dict[str, np.ndarray]:
        """The unflushed rows as numpy columns, oldest first."""
        start = max(self._flushed, self.recorded - self.capacity)
        rows = [self._rows[i % self.capacity] for i in range(start, self.recorded)]
        floats, ints = LAYOUTS[self.dataset]
        out: Dict[str, np.ndarray] = {}
        for j, name in enumerate(floats + ints):
            dtype = np.float64 if j < len(floats) else np.int64
            out[name] = np.array([row[j] for row in rows], dtype=dtype)
        return out

    def flush_sync(self) -> Optional[str]:
        """Append unflushed rows to the store; returns the segment id.

        Synchronous (blocking I/O) — call from a worker thread or a
        non-async context.  No store or no rows: returns None.
        """
        if self.store is None:
            return None
        start = max(self._flushed, self.recorded - self.capacity)
        self._dropped_at_flush += start - self._flushed
        self._flushed = start  # the rows before ``start`` are gone
        if start == self.recorded:
            return None
        segment = self.store.append(
            self.dataset,
            self.snapshot(),
            meta={"source": "flight", "dropped": self.dropped},
        )
        self._flushed = self.recorded
        return segment

    async def flush(self) -> Optional[str]:
        """Flush off the event loop (default executor); see flush_sync."""
        if self.store is None:  # nothing to write: no executor hop
            return None
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.flush_sync)

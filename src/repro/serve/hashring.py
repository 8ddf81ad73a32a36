"""Consistent hashing of compute cells onto fleet worker slots.

The fleet router shards queries by compute cell so that one cell's
calibration resolve, model instance and memoized workload terms warm
exactly one worker.  A consistent hash ring keeps that mapping stable
under membership change: each worker slot owns :data:`REPLICAS` virtual
points on a 64-bit ring, a key is owned by the first point at or after
its own hash (successor walk), and when a worker dies only the keys it
owned move — each to the next live successor — while every other
key keeps its owner.  Respawning the same slot id restores its exact
points, so a revived worker reclaims precisely the cells it lost.

Hashes come from SHA-256 (stable across processes and Python builds,
unlike ``hash()`` under ``PYTHONHASHSEED``), so the router, the tests
and a future multi-host deployment all agree on ownership.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Iterable, List, Optional, Set, Tuple

#: Virtual points per slot: 64 keeps the worst slot within a few
#: percent of fair share for small fleets.
REPLICAS = 64


def ring_hash(label: str) -> int:
    """The 64-bit ring position of a label (first 8 SHA-256 bytes)."""
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Virtual-node consistent hash ring over integer worker slots.

    :data:`REPLICAS` virtual points per slot smooth the key
    distribution.  Lookup never mutates the ring: dead slots are
    *skipped* via the ``alive`` predicate, which is what makes the
    remap minimal — the points of a dead slot stay on the ring, so its
    revival restores the original ownership bit for bit.
    """

    def __init__(self, slots: Iterable[int] = ()) -> None:
        self._slots: Set[int] = set()
        #: sorted (point, slot) pairs; slots are >= 0 so (h, -1) sorts
        #: strictly before every real point at position h
        self._points: List[Tuple[int, int]] = []
        for slot in slots:
            self.add(slot)

    # ------------------------------------------------------------------
    @property
    def slots(self) -> Set[int]:
        """The slot ids currently on the ring."""
        return set(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def add(self, slot: int) -> None:
        """Place one slot's virtual points on the ring (idempotent)."""
        if slot < 0:
            raise ValueError(f"slot ids must be >= 0, got {slot!r}")
        if slot in self._slots:
            return
        self._slots.add(slot)
        for replica in range(REPLICAS):
            point = ring_hash(f"w{slot}#{replica}")
            bisect.insort(self._points, (point, slot))

    def remove(self, slot: int) -> None:
        """Take one slot's points off the ring (idempotent).

        Prefer skipping dead slots via ``alive`` in :meth:`owner`; a
        removed slot that re-adds later lands on identical points, so
        both routes produce the same ownership.
        """
        if slot not in self._slots:
            return
        self._slots.discard(slot)
        self._points = [(p, s) for p, s in self._points if s != slot]

    # ------------------------------------------------------------------
    def owner(
        self, key: str, alive: Optional[Callable[[int], bool]] = None
    ) -> Optional[int]:
        """The live slot owning ``key``, or None when none is alive.

        Successor walk: start at the first virtual point at or after
        the key's hash and take the first slot that passes ``alive``
        (every slot passes when no predicate is given).  Keys whose
        primary owner is alive never move; keys owned by a dead slot
        fall to their next distinct live successor.
        """
        if not self._points:
            return None
        start = bisect.bisect_left(self._points, (ring_hash(key), -1))
        n = len(self._points)
        rejected: Set[int] = set()
        for step in range(n):
            _point, slot = self._points[(start + step) % n]
            if slot in rejected:
                continue
            if alive is None or alive(slot):
                return slot
            rejected.add(slot)
        return None

    def preference(self, key: str) -> List[int]:
        """Every slot in successor-walk order for ``key`` (failover order)."""
        if not self._points:
            return []
        start = bisect.bisect_left(self._points, (ring_hash(key), -1))
        n = len(self._points)
        order: List[int] = []
        seen: Set[int] = set()
        for step in range(n):
            _point, slot = self._points[(start + step) % n]
            if slot not in seen:
                seen.add(slot)
                order.append(slot)
        return order

"""Content-addressed on-disk cache for simulated experiment results.

Every design cell is fully determined by its inputs: the
:class:`~repro.workloads.campaign.WorkloadCell`, the platform's key
data, the measurement protocol (jitter, repetitions) and the base seed.
A stable SHA-256 digest over that content addresses the cell's measured
record on disk (see :func:`repro.workloads.campaign.run_workload_design`),
so repeated campaigns, benchmarks and figure scripts skip
already-simulated cells entirely — serial and pooled runs share the
same cache and the same keys.  The cache also stores fitted
calibrations (:mod:`repro.serve.calibstore`).

The cache stores plain JSON, one file per entry under ``cache_dir``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..atomic import write_atomic
from .measurement import MeasurementStats

PathLike = Union[str, pathlib.Path]

#: Bump when the cached payload layout changes; invalidates old entries.
SCHEMA_VERSION = 1


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups performed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (for reports and JSON)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def __str__(self) -> str:
        return f"{self.hits} hit(s) / {self.misses} miss(es)"


# ----------------------------------------------------------------------
# stable JSON encoding of the record pieces
# ----------------------------------------------------------------------
def platform_key_data(platform) -> dict:
    """The PlatformSpec content that determines simulated results."""
    return dataclasses.asdict(platform)


def stats_to_dict(stats: MeasurementStats) -> dict:
    """MeasurementStats as JSON-able data."""
    return {"values": list(stats.values), "mean": stats.mean, "std": stats.std}


def stats_from_dict(d: dict) -> MeasurementStats:
    """Rebuild MeasurementStats from :func:`stats_to_dict` output."""
    return MeasurementStats(
        values=tuple(d["values"]), mean=d["mean"], std=d["std"]
    )


# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed store of simulated cell results.

    Keys are SHA-256 digests over a canonical JSON rendering of the
    inputs (plus :data:`SCHEMA_VERSION`); values are JSON files named by
    their key.  The cache never invalidates by time — changing any
    input, including the base seed or the platform's key data, changes
    the key and therefore misses.  Entries are never evicted.

    Corrupt entries (truncated writes, garbage payloads) are treated as
    misses, never as errors; stats updates are guarded by a lock so
    concurrent readers observe consistent hit/miss counts.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @staticmethod
    def key_for(payload: dict) -> str:
        """Stable digest of a JSON-able payload (the cache address)."""
        material = json.dumps(
            {"schema": SCHEMA_VERSION, "payload": payload},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``, or None on a miss.

        A file that cannot be read or parsed — a torn write, a truncated
        copy, garbage bytes — is a miss, exactly as if the cell had
        never been simulated; a payload that is not a JSON object is
        rejected the same way so a corrupted entry can never leak a
        non-record into the runner.
        """
        path = self._path(key)
        try:
            with open(path) as fh:
                value = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            with self._lock:
                self.stats.misses += 1
            return None
        if not isinstance(value, dict):
            with self._lock:
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.hits += 1
        return value

    def store(self, key: str, value: dict) -> None:
        """Persist ``value`` under ``key`` (atomic rename).

        Safe against concurrent stores of the same key from any number
        of threads or processes sharing the directory: each write has
        its own temporary file.
        """
        write_atomic(self._path(key), json.dumps(value))
        with self._lock:
            self.stats.stores += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        n = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            n += 1
        return n

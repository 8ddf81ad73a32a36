"""Append-only columnar telemetry store (schema ``repro-telemetry/1``).

The single sink ROADMAP item 5 calls the enabling refactor: campaign
cell results, span rollups, residual reports, bench emissions and
per-request serve records all land here instead of being scattered over
``experiments.cache`` JSONL, obs trace exports and ``benchmarks/out``
files with incompatible layouts.

Layout on disk::

    <root>/
      manifest.json          # {"schema": "repro-telemetry/1", ...}
      seg-000001/
        servers.npy          # one .npy per column
        total_s.npy
      seg-000002/
        ...

A **segment** is one immutable append: equal-length columns written as
raw ``.npy`` files (never pickled), plus a manifest entry recording the
dataset it belongs to, its row count, column dtypes and free-form
``meta``.  ``.npy`` bytes are a pure function of the array, so two
processes appending the same rows in the same order produce
bit-identical stores — the property the serial-vs-pooled ingestion
tests pin, and the reason segments are *not* zipped (``np.savez``
stamps wall-clock zip timestamps).

Writes are atomic: the segment directory is populated under a
``tmp-`` name and renamed into place, then the manifest is replaced
via a same-directory temp file, so a reader never observes a torn
segment.  The manifest is the commit point.  A writer killed before
that commit leaves a ``tmp-seg-N`` or an orphaned ``seg-N`` directory
the manifest does not reference: readers ignore it, and the next
append, which takes the same id ``N``, removes it first.

The store is deliberately small: no deletes, no updates, no indexes —
an append log of typed columns with whole-dataset scans.  Everything
smarter (predicates, aggregation, windows) lives in
:mod:`repro.obs.query` and :mod:`repro.obs.monitor` on top of
:meth:`TelemetryStore.scan`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import shutil
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..atomic import write_atomic
from ..errors import TelemetryError

PathLike = Union[str, pathlib.Path]

#: Version tag stamped into (and required from) every manifest.
SCHEMA = "repro-telemetry/1"

#: Dataset and column names: lowercase identifiers (dots reserved for
#: the query language's ``dataset.column`` form).
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: The datasets the shipped adapters write (free-form names are still
#: allowed; this is documentation, not a whitelist).
KNOWN_DATASETS = (
    "cells", "residuals", "spans", "serve", "fleet", "loadgen", "bench",
)


def _as_column(name: str, values: Sequence[Any]) -> np.ndarray:
    """One column as a 1-D numpy array (numeric or unicode, no objects)."""
    arr = np.asarray(values)
    if arr.dtype == object or arr.dtype.kind not in "iufUb":
        arr = np.array([str(v) for v in values], dtype=str)
    if arr.dtype.kind == "b":
        arr = arr.astype(np.int64)
    if arr.ndim != 1:
        raise TelemetryError(f"column {name!r} must be 1-D, got shape {arr.shape}")
    return arr


class TelemetryStore:
    """Append-only columnar store rooted at one directory.

    Single-writer, many-reader: appends are serialized by an in-process
    lock and atomic on disk; concurrent *processes* must coordinate
    externally (the shipped pipelines ingest from one process — pool
    workers ship rows back rather than writing segments themselves).
    """

    def __init__(self, root: PathLike) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._manifest = self._load_manifest()

    # -- manifest -------------------------------------------------------
    @property
    def _manifest_path(self) -> pathlib.Path:
        return self.root / "manifest.json"

    def _load_manifest(self) -> Dict[str, Any]:
        path = self._manifest_path
        if not path.exists():
            return {"schema": SCHEMA, "version": 0, "segments": []}
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise TelemetryError(f"unreadable manifest {path}: {exc}") from None
        if not isinstance(loaded, dict) or loaded.get("schema") != SCHEMA:
            tag = loaded.get("schema") if isinstance(loaded, dict) else None
            raise TelemetryError(
                f"{path}: schema tag {tag!r} is not {SCHEMA!r}; refusing to "
                "append to a store this code does not understand"
            )
        return loaded

    def _write_manifest(self) -> None:
        """Replace the manifest atomically (same-directory temp file)."""
        write_atomic(
            self._manifest_path,
            json.dumps(self._manifest, indent=2, sort_keys=True) + "\n",
        )

    # -- appending ------------------------------------------------------
    def append(
        self,
        dataset: str,
        columns: Mapping[str, Sequence[Any]],
        meta: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Append one segment of equal-length columns; returns its id.

        The first segment of a dataset fixes its column set; later
        appends must carry exactly the same columns (dtypes may widen,
        e.g. longer strings) so scans always line up.
        """
        if not _NAME_RE.match(dataset):
            raise TelemetryError(f"invalid dataset name {dataset!r}")
        if not columns:
            raise TelemetryError("a segment needs at least one column")
        arrays: Dict[str, np.ndarray] = {}
        rows: Optional[int] = None
        for name in sorted(columns):
            if not _NAME_RE.match(name):
                raise TelemetryError(f"invalid column name {name!r}")
            arr = _as_column(name, columns[name])
            if rows is None:
                rows = len(arr)
            elif len(arr) != rows:
                raise TelemetryError(
                    f"ragged segment: column {name!r} has {len(arr)} rows, "
                    f"expected {rows}"
                )
            arrays[name] = arr
        assert rows is not None
        existing = self.columns(dataset)
        if existing is not None and set(existing) != set(arrays):
            raise TelemetryError(
                f"dataset {dataset!r} has columns {sorted(existing)}, "
                f"segment carries {sorted(arrays)}"
            )

        with self._lock:
            version = int(self._manifest["version"]) + 1
            segment_id = f"seg-{version:06d}"
            final_dir = self.root / segment_id
            tmp_dir = self.root / f"tmp-{segment_id}"
            self._clear_leftovers(tmp_dir, final_dir)
            tmp_dir.mkdir()
            try:
                for name, arr in arrays.items():
                    with open(tmp_dir / f"{name}.npy", "wb") as fh:
                        np.save(fh, arr, allow_pickle=False)
                os.replace(tmp_dir, final_dir)
            except BaseException:
                for leftover in tmp_dir.glob("*.npy") if tmp_dir.exists() else ():
                    leftover.unlink()
                if tmp_dir.exists():
                    tmp_dir.rmdir()
                raise
            self._manifest["version"] = version
            self._manifest["segments"].append(
                {
                    "id": segment_id,
                    "dataset": dataset,
                    "rows": rows,
                    "columns": {n: arrays[n].dtype.str for n in sorted(arrays)},
                    "meta": dict(meta or {}),
                }
            )
            self._write_manifest()
        return segment_id

    def _clear_leftovers(self, *paths: pathlib.Path) -> None:
        """Remove what a writer killed mid-append left under the next id.

        Nothing the manifest does not list was committed, so no reader
        has seen it.  If the manifest on disk has moved past this
        store's copy, the directory is another writer's commit: the
        append refuses rather than overwrite it.
        """
        stale = [p for p in paths if p.exists()]
        if stale and self._load_manifest()["version"] != self._manifest["version"]:
            raise TelemetryError(
                f"{self.root} was appended to by another writer since this "
                "store opened it; a telemetry store takes one writer"
            )
        for path in stale:
            shutil.rmtree(path)

    # -- reading --------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone manifest version (== number of appends ever made)."""
        return int(self._manifest["version"])

    def datasets(self) -> List[str]:
        """Sorted names of every dataset with at least one segment."""
        return sorted({s["dataset"] for s in self._manifest["segments"]})

    def segments(self, dataset: Optional[str] = None) -> List[Dict[str, Any]]:
        """Manifest entries in append order, optionally per dataset."""
        entries = list(self._manifest["segments"])
        if dataset is not None:
            entries = [s for s in entries if s["dataset"] == dataset]
        return entries

    def rows(self, dataset: str) -> int:
        """Total row count of one dataset (0 when absent)."""
        return sum(int(s["rows"]) for s in self.segments(dataset))

    def columns(self, dataset: str) -> Optional[List[str]]:
        """Sorted column names of a dataset, or None when it is empty."""
        for entry in self._manifest["segments"]:
            if entry["dataset"] == dataset:
                return sorted(entry["columns"])
        return None

    def read_segment(
        self, segment_id: str, columns: Optional[Sequence[str]] = None
    ) -> Dict[str, np.ndarray]:
        """One segment's columns as arrays (all of them by default)."""
        entry = next(
            (s for s in self._manifest["segments"] if s["id"] == segment_id), None
        )
        if entry is None:
            raise TelemetryError(f"no segment {segment_id!r} in {self.root}")
        wanted = sorted(entry["columns"]) if columns is None else list(columns)
        out: Dict[str, np.ndarray] = {}
        for name in wanted:
            if name not in entry["columns"]:
                raise TelemetryError(
                    f"segment {segment_id} has no column {name!r} "
                    f"(has {sorted(entry['columns'])})"
                )
            out[name] = np.load(self.root / segment_id / f"{name}.npy", allow_pickle=False)
        return out

    def scan(
        self, dataset: str, columns: Optional[Sequence[str]] = None
    ) -> Dict[str, np.ndarray]:
        """Whole-dataset columnar scan: concatenated column arrays.

        Rows come back in append order (segment order, then row order
        within each segment) — the order every adapter writes
        deterministically.  An extra ``_segment`` column is NOT
        synthesized here; callers that need per-append grouping (the
        drift monitor) read ``segment_index`` columns the adapters
        write explicitly.
        """
        entries = self.segments(dataset)
        if not entries:
            raise TelemetryError(
                f"store {self.root} has no dataset {dataset!r} "
                f"(has {self.datasets() or 'none'})"
            )
        wanted = sorted(entries[0]["columns"]) if columns is None else list(columns)
        parts: Dict[str, List[np.ndarray]] = {name: [] for name in wanted}
        for entry in entries:
            segment = self.read_segment(entry["id"], wanted)
            for name in wanted:
                parts[name].append(segment[name])
        return {name: np.concatenate(chunks) for name, chunks in parts.items()}

    # -- integrity ------------------------------------------------------
    def content_digest(self) -> str:
        """SHA-256 over every segment's column bytes, in manifest order.

        Two stores hold bit-identical telemetry iff their digests match
        — the oracle the serial-vs-pooled ingestion tests compare.
        """
        digest = hashlib.sha256()
        for entry in self._manifest["segments"]:
            digest.update(entry["dataset"].encode("utf-8"))
            digest.update(str(entry["rows"]).encode("utf-8"))
            for name in sorted(entry["columns"]):
                digest.update(name.encode("utf-8"))
                digest.update((self.root / entry["id"] / f"{name}.npy").read_bytes())
        return digest.hexdigest()

    def __len__(self) -> int:
        return len(self._manifest["segments"])

"""TelemetryStore: append/scan round trips, atomicity, bit-identity."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.obs.store import SCHEMA, TelemetryStore


def test_append_scan_roundtrip_preserves_dtypes(tmp_path):
    store = TelemetryStore(tmp_path)
    sid = store.append(
        "cells",
        {
            "servers": [1, 2, 4],
            "total_s": [1.5, 0.9, 0.6],
            "run": ["a", "b", "c"],
        },
    )
    assert sid == "seg-000001"
    table = store.scan("cells")
    assert table["servers"].dtype.kind == "i"
    assert table["total_s"].dtype.kind == "f"
    assert table["run"].dtype.kind == "U"
    assert list(table["servers"]) == [1, 2, 4]
    assert list(table["run"]) == ["a", "b", "c"]


def test_scan_concatenates_segments_in_append_order(tmp_path):
    store = TelemetryStore(tmp_path)
    store.append("serve", {"reply_s": [1.0, 2.0]})
    store.append("serve", {"reply_s": [3.0]})
    assert list(store.scan("serve")["reply_s"]) == [1.0, 2.0, 3.0]
    assert store.rows("serve") == 3
    assert len(store) == 2
    assert store.version == 2


def test_first_segment_fixes_the_column_set(tmp_path):
    store = TelemetryStore(tmp_path)
    store.append("cells", {"servers": [1], "total_s": [2.0]})
    with pytest.raises(TelemetryError, match="has columns"):
        store.append("cells", {"servers": [2]})


def test_ragged_segment_rejected(tmp_path):
    with pytest.raises(TelemetryError, match="ragged"):
        TelemetryStore(tmp_path).append("cells", {"a": [1], "b": [1, 2]})


def test_invalid_names_rejected(tmp_path):
    store = TelemetryStore(tmp_path)
    with pytest.raises(TelemetryError, match="invalid dataset"):
        store.append("Cells", {"a": [1]})
    with pytest.raises(TelemetryError, match="invalid column"):
        store.append("cells", {"bad.name": [1]})


def test_scan_of_missing_dataset_is_an_error(tmp_path):
    store = TelemetryStore(tmp_path)
    store.append("cells", {"a": [1]})
    with pytest.raises(TelemetryError, match="no dataset"):
        store.scan("serve")


def test_reopen_sees_all_segments(tmp_path):
    TelemetryStore(tmp_path).append("cells", {"a": [1, 2]})
    again = TelemetryStore(tmp_path)
    assert again.rows("cells") == 2
    assert again.datasets() == ["cells"]
    assert again.columns("cells") == ["a"]


def test_foreign_manifest_refused(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"schema": "other/9"}))
    with pytest.raises(TelemetryError, match="schema tag"):
        TelemetryStore(tmp_path)


def test_manifest_is_schema_tagged(tmp_path):
    store = TelemetryStore(tmp_path)
    store.append("cells", {"a": [1]})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["schema"] == SCHEMA
    assert manifest["segments"][0]["dataset"] == "cells"
    # no temp droppings from the atomic write protocol
    assert list(tmp_path.glob(".*.tmp")) == []
    assert list(tmp_path.glob("tmp-*")) == []


def test_segment_meta_rides_in_the_manifest(tmp_path):
    store = TelemetryStore(tmp_path)
    store.append("bench", {"value": [1.0]}, meta={"experiment": "PERF_x"})
    (entry,) = store.segments("bench")
    assert entry["meta"] == {"experiment": "PERF_x"}


def test_same_appends_bit_identical_digest(tmp_path):
    columns = {"reply_s": [0.1, 0.2, 0.3], "status": [0, 0, 1]}
    a = TelemetryStore(tmp_path / "a")
    b = TelemetryStore(tmp_path / "b")
    for store in (a, b):
        store.append("serve", columns)
        store.append("serve", columns)
    assert a.content_digest() == b.content_digest()
    b.append("serve", columns)
    assert a.content_digest() != b.content_digest()


def test_read_segment_columns_subset(tmp_path):
    store = TelemetryStore(tmp_path)
    sid = store.append("cells", {"a": [1], "b": [2.0]})
    out = store.read_segment(sid, columns=["b"])
    assert set(out) == {"b"}
    with pytest.raises(TelemetryError, match="no column"):
        store.read_segment(sid, columns=["z"])
    with pytest.raises(TelemetryError, match="no segment"):
        store.read_segment("seg-999999")


def test_bool_columns_land_as_ints(tmp_path):
    store = TelemetryStore(tmp_path)
    store.append("cells", {"flag": [True, False]})
    col = store.scan("cells")["flag"]
    assert col.dtype == np.int64
    assert list(col) == [1, 0]


# ----------------------------------------------------------------------
# a writer killed mid-append: the manifest is the commit point
# ----------------------------------------------------------------------
def _committed_store(root):
    store = TelemetryStore(root)
    store.append("serve", {"x": [1, 2]})
    return store


def test_append_after_a_writer_died_writing_columns(tmp_path):
    _committed_store(tmp_path)
    # the dead writer's half-written segment
    (tmp_path / "tmp-seg-000002").mkdir()
    (tmp_path / "tmp-seg-000002" / "x.npy").write_bytes(b"\x93NUMPY torn")
    store = TelemetryStore(tmp_path)
    assert store.rows("serve") == 2
    assert store.append("serve", {"x": [3]}) == "seg-000002"
    assert store.append("serve", {"x": [4]}) == "seg-000003"
    assert list(store.scan("serve")["x"]) == [1, 2, 3, 4]
    assert list(tmp_path.glob("tmp-*")) == []


def test_append_after_a_writer_died_before_its_manifest(tmp_path):
    _committed_store(tmp_path)
    # renamed into place, never committed: readers must not count it
    orphan = tmp_path / "seg-000002"
    orphan.mkdir()
    np.save(orphan / "x.npy", np.array([99, 99, 99]))
    np.save(orphan / "stray.npy", np.array([0.5]))
    store = TelemetryStore(tmp_path)
    assert store.rows("serve") == 2
    assert list(store.scan("serve")["x"]) == [1, 2]
    assert store.append("serve", {"x": [3]}) == "seg-000002"
    assert sorted(p.name for p in orphan.iterdir()) == ["x.npy"]
    reopened = TelemetryStore(tmp_path)
    assert reopened.rows("serve") == 3
    assert list(reopened.scan("serve")["x"]) == [1, 2, 3]


def test_append_recovers_from_a_writer_killed_between_rename_and_manifest(tmp_path):
    script = textwrap.dedent(
        """
        import os, sys
        from repro.obs.store import TelemetryStore

        store = TelemetryStore(sys.argv[1])
        store.append("serve", {"x": [1, 2]})
        # die after the segment is renamed into place, before the commit
        TelemetryStore._write_manifest = lambda self: os._exit(17)
        store.append("serve", {"x": [7, 7, 7]})
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 17, proc.stderr
    assert (tmp_path / "seg-000002" / "x.npy").exists()

    store = TelemetryStore(tmp_path)
    assert store.version == 1
    assert store.rows("serve") == 2
    assert store.append("serve", {"x": [3]}) == "seg-000002"
    assert store.append("serve", {"x": [4]}) == "seg-000003"
    assert list(TelemetryStore(tmp_path).scan("serve")["x"]) == [1, 2, 3, 4]


def test_a_second_writer_is_refused_not_destructive(tmp_path):
    first = _committed_store(tmp_path)
    stale = TelemetryStore(tmp_path)
    first.append("serve", {"x": [3]})
    # the stale writer's next id is the first writer's committed segment
    with pytest.raises(TelemetryError, match="another writer"):
        stale.append("serve", {"x": [9]})
    assert list(TelemetryStore(tmp_path).scan("serve")["x"]) == [1, 2, 3]

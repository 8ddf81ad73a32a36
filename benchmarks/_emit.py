"""Machine-readable benchmark output shared by every bench_*.py.

Each benchmark writes, alongside its human-readable ``out/<id>.txt``
artifact, an ``out/<id>.json`` holding a flat list of metric records:

    {"schema": "repro-bench/1",
     "experiment": "FIG1_breakdown_medium",
     "records": [{"name": "...", "metric": "...", "value": 1.23,
                  "units": "s"}, ...]}

so CI jobs and dashboards can consume results without screen-scraping
the rendered tables.  Keep records scalar: one (name, metric, value,
units) tuple per measured quantity.

Two robustness guarantees for downstream consumers (in particular
``benchmarks/check_regression.py``):

* **atomic writes** — the payload lands in a same-directory temp file
  first and is moved into place with ``os.replace``, so a reader can
  never observe a torn, half-written JSON file;
* **schema tagging** — every file carries ``"schema": "repro-bench/1"``;
  consumers reject files with a missing or different tag instead of
  silently comparing against stale or foreign data.

Every emission is also **dual-written** into the columnar telemetry
store (``repro.obs.store``) as a ``bench`` segment, so benchmark
history is queryable next to campaign and serve telemetry
(``python -m repro.obs query <store> bench --where
'experiment==PERF_store_ingest'``).  The store root defaults to
``out/telemetry``; override it with ``REPRO_BENCH_STORE=<dir>`` or set
the variable to an empty string to disable the dual write.  The JSON
file stays the source of truth: a store failure never fails a bench.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, Iterable, Union

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Version tag stamped into (and required from) every emitted file.
SCHEMA = "repro-bench/1"

_FIELDS = ("name", "metric", "value", "units")


def record(
    name: str, metric: str, value: Union[int, float], units: str
) -> Dict[str, Union[str, float]]:
    """One measured quantity as a JSON-able dict."""
    return {
        "name": str(name),
        "metric": str(metric),
        "value": float(value),
        "units": str(units),
    }


def emit(
    experiment_id: str, records: Iterable[Dict[str, Union[str, float]]]
) -> pathlib.Path:
    """Write ``out/<experiment_id>.json`` atomically and return its path."""
    rows = list(records)
    if not rows:
        raise ValueError("a benchmark must emit at least one record")
    for row in rows:
        missing = [field for field in _FIELDS if field not in row]
        if missing:
            raise ValueError(f"record {row!r} is missing {missing}")
    payload = {"schema": SCHEMA, "experiment": experiment_id, "records": rows}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{experiment_id}.json"
    # imported here so check_regression (OUT_DIR, load) runs without repro
    from repro.atomic import write_atomic

    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _dual_write(payload)
    return path


def _dual_write(payload: Dict) -> None:
    """Mirror one emission into the telemetry store (best effort)."""
    store_root = os.environ.get("REPRO_BENCH_STORE", str(OUT_DIR / "telemetry"))
    if not store_root:
        return
    try:
        from repro.obs.ingest import ingest_bench_payload
        from repro.obs.store import TelemetryStore

        ingest_bench_payload(
            TelemetryStore(store_root), payload, meta={"source": "emit"}
        )
    except Exception:
        # the JSON artifact is the source of truth; a store problem
        # (missing repro on sys.path, foreign manifest) must not fail
        # the benchmark that produced a perfectly good emission
        pass


def load(path: Union[str, pathlib.Path]) -> Dict:
    """Read one emitted file, validating its schema tag.

    Raises ``ValueError`` for unparseable (e.g. torn, pre-atomic-write)
    files and for payloads whose schema tag is missing or unexpected.
    """
    p = pathlib.Path(path)
    try:
        payload = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{p}: not valid JSON (torn or corrupt file?): {exc}")
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise ValueError(
            f"{p}: missing or unexpected schema tag "
            f"{payload.get('schema') if isinstance(payload, dict) else None!r} "
            f"(expected {SCHEMA!r}); refusing to compare stale data"
        )
    for key in ("experiment", "records"):
        if key not in payload:
            raise ValueError(f"{p}: payload has no {key!r} field")
    return payload

"""Ingestion adapters: cache, trace rollups, bench emissions, loadgen."""

import json

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.experiments import opal_cell
from repro.obs import ObsSession, write_jsonl
from repro.obs.ingest import (
    ingest_bench_dir,
    ingest_bench_payload,
    ingest_records,
    ingest_trace_jsonl,
)
from repro.obs.report import RESPONSE_VARIABLES
from repro.obs.store import TelemetryStore
from repro.opal.complexes import SMALL
from repro.platforms import CRAY_J90
from repro.serve.loadgen import LoadgenReport
from repro.workloads.campaign import run_workload_design


@pytest.fixture(scope="module")
def records():
    design = [opal_cell(SMALL, p, cutoff=10.0, update_interval=1) for p in (1, 2, 3)]
    return run_workload_design(design, CRAY_J90)[0]


def test_ingest_records_cells_shape(tmp_path, records):
    store = TelemetryStore(tmp_path)
    segments = ingest_records(store, records)
    assert len(segments) == 1  # no params -> no residuals
    table = store.scan("cells")
    assert store.rows("cells") == len(records)
    assert list(table["servers"]) == [1, 2, 3]
    for variable in RESPONSE_VARIABLES:
        assert variable in table
    assert table["total_s"][0] == pytest.approx(records[0].breakdown.total)
    assert list(table["batch"]) == [0, 0, 0]


def test_ingest_records_with_params_adds_residuals(tmp_path, records):
    from repro.core.calibration import calibrate

    params = calibrate([r.observation() for r in records]).params
    store = TelemetryStore(tmp_path)
    ingest_records(store, records, params=params)
    table = store.scan("residuals")
    assert store.rows("residuals") == len(records) * len(RESPONSE_VARIABLES)
    assert set(np.unique(table["variable"])) == set(RESPONSE_VARIABLES)
    # the batch counter advances per ingest
    ingest_records(store, records, params=params)
    assert set(np.unique(store.scan("residuals")["batch"])) == {0, 1}


def test_ingest_records_refuses_empty(tmp_path):
    with pytest.raises(TelemetryError, match="empty"):
        ingest_records(TelemetryStore(tmp_path), [])


def test_ingest_trace_rollup_matches_by_category(tmp_path):
    obs = ObsSession(label="unit")
    case = opal_cell(SMALL, 2, cutoff=10.0, update_interval=1)
    run_workload_design([case], CRAY_J90, obs=obs)
    path = tmp_path / "trace.jsonl"
    write_jsonl(obs.tracer, path, metrics=obs.metrics)

    store = TelemetryStore(tmp_path / "store")
    ingest_trace_jsonl(store, path)
    table = store.scan("spans")
    by_category = obs.tracer.by_category()
    for category, seconds in by_category.items():
        mask = table["category"] == category
        assert float(np.sum(table["total_s"][mask])) == pytest.approx(
            seconds, abs=1e-9
        )


def test_ingest_bench_payload_and_dir(tmp_path):
    payload = {
        "schema": "repro-bench/1",
        "experiment": "PERF_x",
        "records": [
            {"name": "a", "metric": "rate", "value": 10.0, "units": "events/s"}
        ],
    }
    (tmp_path / "PERF_x.json").write_text(json.dumps(payload))
    (tmp_path / "foreign.json").write_text(json.dumps({"schema": "other/1"}))
    (tmp_path / "torn.json").write_text("{nope")

    store = TelemetryStore(tmp_path / "store")
    segments = ingest_bench_dir(store, tmp_path)
    assert len(segments) == 1  # foreign + torn files skipped, not fatal
    (entry,) = store.segments("bench")
    assert entry["meta"]["experiment"] == "PERF_x"
    table = store.scan("bench")
    assert list(table["value"]) == [10.0]

    with pytest.raises(TelemetryError, match="not a bench payload"):
        ingest_bench_payload(store, {"schema": "other/1"})
    with pytest.raises(TelemetryError, match="no bench emissions"):
        ingest_bench_dir(TelemetryStore(tmp_path / "s2"), tmp_path / "empty")


def test_ingest_loadgen_report(tmp_path):
    report = LoadgenReport(sent=3, ok=3, latencies=[0.01, 0.02, 0.03])
    report.wall = 0.5
    store = TelemetryStore(tmp_path)
    report.ingest_into(store, meta={"campaign": "unit"})
    table = store.scan("loadgen")
    assert list(table["latency_s"]) == [0.01, 0.02, 0.03]
    (entry,) = store.segments("loadgen")
    assert entry["meta"]["ok"] == 3
    assert entry["meta"]["campaign"] == "unit"

    with pytest.raises(TelemetryError, match="no recorded latencies"):
        LoadgenReport().ingest_into(store)
    bad = LoadgenReport(latencies=[float("nan")])
    with pytest.raises(TelemetryError, match="non-finite"):
        bad.ingest_into(store)

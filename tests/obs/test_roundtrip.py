"""Acceptance: campaign and serve telemetry round-trip through the store.

The issue's bar, end to end: a chaos campaign ingested via
``run_campaign(store_dir=...)`` must be queryable back out with
aggregates that equal the residual report's own numbers to 1e-9;
serial and pooled campaigns must append bit-identical stores
(``content_digest``); drift detection must stay quiet on clean
replayed history and flag a perturbed calibration; and a loadgen run
ingested next to the flight-recorder rows must reproduce its own
client-side statistics.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments import opal_cell, run_campaign
from repro.netsim.faults import FaultSpec
from repro.obs.ingest import ingest_records
from repro.obs.monitor import residual_drift
from repro.obs.query import run_query
from repro.obs.report import join_residuals
from repro.obs.store import TelemetryStore
from repro.opal.complexes import SMALL
from repro.platforms import CRAY_J90, FAST_COPS
from repro.workloads.campaign import run_workload_design

CHAOS = FaultSpec.parse("drop=0.01,delay=0.02,delay_scale=0.05,timeout=5")

DESIGN = [opal_cell(SMALL, p, cutoff=10.0, update_interval=1) for p in (1, 2, 3)]

CAMPAIGN = dict(
    reference=CRAY_J90,
    candidates=[FAST_COPS],
    molecule=SMALL,
    design=list(DESIGN),
    probe_repetitions=2,
    servers=(1, 2),
    faults=CHAOS,
)


@pytest.fixture(scope="module")
def campaign_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign-store")
    report = run_campaign(store_dir=root, **CAMPAIGN)
    return TelemetryStore(root), report


def test_cells_match_the_measured_records(campaign_store):
    store, _report = campaign_store
    # the campaign runner is deterministic: replaying the design gives
    # the exact records the campaign measured and ingested
    records, _ = run_workload_design(DESIGN, CRAY_J90, faults=CHAOS)
    table = store.scan("cells")
    assert store.rows("cells") == len(records)
    for i, record in enumerate(records):
        assert table["run"][i] == record.cell.label
        assert table["molecule"][i] == "small"
        assert table["cutoff"][i] == 10.0
        assert table["update_interval"][i] == 1
        assert table["steps"][i] == 10
        assert table["total_s"][i] == record.breakdown.total
        assert table["wall_mean"][i] == record.wall_stats.mean


def test_query_reproduces_residual_report_per_cell(campaign_store):
    store, report = campaign_store
    records, _ = run_workload_design(DESIGN, CRAY_J90, faults=CHAOS)
    residuals = join_residuals(
        [(r.cell.label, r.cell.app, r.breakdown) for r in records],
        report.calibration.params,
    )
    by_run = {}
    for res in residuals:
        by_run.setdefault(res.run, []).append(abs(res.relative))
    assert by_run  # the join produced per-cell rows to compare against
    for run, values in by_run.items():
        result = run_query(
            store,
            "residuals",
            where=f"run=={run}",
            agg="mean(relative), count()",
        )
        assert result.aggregates["count()"] == float(len(values))
        # |relative| == relative is NOT guaranteed; aggregate the column
        table = store.scan("residuals")
        mask = table["run"] == run
        assert abs(
            float(np.mean(np.abs(table["relative"][mask])))
            - float(np.mean(values))
        ) <= 1e-9


def test_serial_and_pooled_ingestion_bit_identical(tmp_path):
    serial_root = tmp_path / "serial"
    pooled_root = tmp_path / "pooled"
    run_campaign(store_dir=serial_root, **CAMPAIGN)
    run_campaign(store_dir=pooled_root, workers=2, **CAMPAIGN)
    serial = TelemetryStore(serial_root)
    pooled = TelemetryStore(pooled_root)
    assert serial.content_digest() == pooled.content_digest()


def test_drift_quiet_on_clean_history_flags_perturbed(campaign_store, tmp_path):
    _store, report = campaign_store
    records, _ = run_workload_design(DESIGN, CRAY_J90, faults=CHAOS)
    params = report.calibration.params

    store = TelemetryStore(tmp_path / "drift")
    for _ in range(4):
        ingest_records(store, records, params=params)
    clean = residual_drift(store)
    assert clean.ok, [v.as_dict() for v in clean.flagged]

    # a silently perturbed calibration (comm rate halved) must flag the
    # communication variable once its batches arrive
    perturbed = dataclasses.replace(params, a1=params.a1 / 2)
    for _ in range(2):
        ingest_records(store, records, params=perturbed)
    drifted = residual_drift(store)
    assert not drifted.ok
    assert "comm" in {v.variable for v in drifted.flagged}


def test_store_carries_campaign_meta(campaign_store):
    store, _report = campaign_store
    (cells_entry,) = store.segments("cells")
    assert cells_entry["meta"]["campaign"] == CRAY_J90.name
    assert cells_entry["meta"]["seed"] == 0
    assert set(store.datasets()) == {"cells", "residuals"}

"""Tests for pooled campaign execution and the on-disk result cache."""

import pytest

from repro.errors import DesignError
from repro.experiments import ResultCache, opal_cell, run_campaign
from repro.opal.complexes import SMALL
from repro.platforms import CRAY_J90, FAST_COPS
from repro.workloads import get_family
from repro.workloads.campaign import (
    WorkloadCell,
    derive_cell_seed,
    export_jsonl,
    load_jsonl,
    run_workload_design,
    workload_cell_key_payload,
    workload_record_from_dict,
    workload_record_to_dict,
)


def small_design(servers=(1, 2, 3)):
    return [opal_cell(SMALL, p, cutoff=10.0, update_interval=1) for p in servers]


# ----------------------------------------------------------------------
# seed derivation
# ----------------------------------------------------------------------
def test_cell_seeds_differ_across_cells_and_reps():
    a, b = small_design((1, 2))[:2]
    assert derive_cell_seed(0, a, 0) != derive_cell_seed(0, b, 0)
    assert derive_cell_seed(0, a, 0) != derive_cell_seed(0, a, 1)
    assert derive_cell_seed(0, a, 0) != derive_cell_seed(1, a, 0)
    assert derive_cell_seed(0, a, 0) != derive_cell_seed(0, a, 0, salt="probe")


def test_cell_seed_depends_on_content_not_position():
    case = small_design((2,))[0]
    same = opal_cell(SMALL, 2, cutoff=10.0, update_interval=1)
    assert derive_cell_seed(7, case, 0) == derive_cell_seed(7, same, 0)


def test_cell_seed_is_stable_across_sessions():
    # frozen values: changing the derivation silently invalidates every
    # cache and moves every jittered measurement, fit and prediction
    case = opal_cell(SMALL, 2, cutoff=10.0, update_interval=1)
    assert derive_cell_seed(0, case, 0) == 73534909060724691
    assert derive_cell_seed(0, case, 0, salt="probe") == 7824695734685362426
    collective = get_family("collective")
    cell = WorkloadCell(collective.campaign_specs(None)[0], 2)
    assert cell.spec.params_dict() == {
        "pattern": "barrier", "message_bytes": 4096, "fanout": 2, "rounds": 4,
    }
    assert derive_cell_seed(0, cell, 0, salt="workload") == 4269644670739537188


# ----------------------------------------------------------------------
# serial vs parallel equivalence
# ----------------------------------------------------------------------
def test_parallel_results_in_design_order():
    design = small_design((3, 1, 2))
    records, _ = run_workload_design(design, CRAY_J90, workers=2)
    assert [r.cell.servers for r in records] == [3, 1, 2]


def test_campaign_serial_vs_parallel_identical_report():
    kwargs = dict(
        reference=CRAY_J90,
        candidates=[FAST_COPS],
        probe_repetitions=2,
        servers=(1, 2, 3),
    )
    serial = run_campaign(**kwargs)
    parallel = run_campaign(workers=4, **kwargs)
    assert serial.calibration.params == parallel.calibration.params
    assert serial.probe == parallel.probe
    for label in serial.predictions:
        for name in serial.predictions[label]:
            assert (
                serial.predictions[label][name].times
                == parallel.predictions[label][name].times
            )


def test_parallel_flag_and_worker_validation():
    with pytest.raises(DesignError):
        run_workload_design(small_design(), CRAY_J90, workers=0)
    with pytest.raises(DesignError):
        run_workload_design([], CRAY_J90)
    with pytest.raises(DesignError):
        run_workload_design([], CRAY_J90, workers=2)
    with pytest.raises(DesignError):
        run_campaign(CRAY_J90, [], design=small_design(), workers=0)


def test_progress_callback_runs_for_every_cell(tmp_path):
    design = small_design()
    for workers, cache in ((None, None), (2, None), (None, ResultCache(tmp_path))):
        seen = []
        run_workload_design(
            design,
            CRAY_J90,
            workers=workers,
            cache=cache,
            progress=lambda done, total, rec: seen.append((done, total)),
        )
        assert sorted(seen) == [(1, 3), (2, 3), (3, 3)]
    # warm: every cell is a cache hit and still reports progress
    seen = []
    _, simulated = run_workload_design(
        design,
        CRAY_J90,
        cache=ResultCache(tmp_path),
        progress=lambda done, total, rec: seen.append((done, total)),
    )
    assert simulated == 0 and seen == [(1, 3), (2, 3), (3, 3)]


# ----------------------------------------------------------------------
# cache behaviour
# ----------------------------------------------------------------------
def test_cache_miss_then_hit(tmp_path):
    design = small_design()
    cold_cache = ResultCache(tmp_path)
    first, simulated = run_workload_design(design, CRAY_J90, cache=cold_cache)
    assert cold_cache.stats.misses == 3
    assert cold_cache.stats.stores == 3
    assert simulated == 3

    warm_cache = ResultCache(tmp_path)
    second, simulated = run_workload_design(design, CRAY_J90, cache=warm_cache)
    assert warm_cache.stats.hits == 3
    assert simulated == 0
    for a, b in zip(first, second):
        assert a.breakdown == b.breakdown
        assert a.wall_stats == b.wall_stats


def test_cache_shared_between_serial_and_parallel(tmp_path):
    design = small_design()
    run_workload_design(design, CRAY_J90, cache=ResultCache(tmp_path))
    pooled_cache = ResultCache(tmp_path)
    _, simulated = run_workload_design(
        design, CRAY_J90, workers=2, cache=pooled_cache
    )
    assert pooled_cache.stats.hits == 3
    assert simulated == 0


def test_cache_invalidated_by_protocol_change(tmp_path):
    design = small_design((2,))
    run_workload_design(design, CRAY_J90, cache=ResultCache(tmp_path))
    for platform, protocol in (
        (CRAY_J90, dict(base_seed=1)),
        (CRAY_J90, dict(jitter_sigma=0.01)),
        (CRAY_J90, dict(repetitions=2)),
        (FAST_COPS, {}),
    ):
        cache = ResultCache(tmp_path)
        _, simulated = run_workload_design(
            design, platform, cache=cache, **protocol
        )
        assert cache.stats.hits == 0
        assert simulated == 1


def test_warm_cache_campaign_runs_zero_simulations(tmp_path):
    kwargs = dict(
        reference=CRAY_J90,
        candidates=[FAST_COPS],
        probe_repetitions=2,
        servers=(1, 2),
    )
    cold = run_campaign(cache_dir=tmp_path, **kwargs)
    assert cold.simulations_run > 0
    assert cold.cache_stats.misses > 0

    warm = run_campaign(cache_dir=tmp_path, **kwargs)
    assert warm.simulations_run == 0
    assert warm.cache_stats.misses == 0
    assert warm.cache_stats.hits == cold.cache_stats.misses
    assert warm.calibration.params == cold.calibration.params


def test_cache_clear_and_len(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store("abc", {"x": 1})
    assert len(cache) == 1
    assert cache.load("abc") == {"x": 1}
    assert cache.clear() == 1
    assert cache.load("abc") is None
    assert cache.stats.misses == 1


def test_cache_key_is_canonical():
    case = small_design((2,))[0]
    payload = workload_cell_key_payload(case, CRAY_J90, 0.004, 0, 1)
    assert ResultCache.key_for(payload) == ResultCache.key_for(dict(payload))
    other = workload_cell_key_payload(case, CRAY_J90, 0.004, 0, 2)
    assert ResultCache.key_for(payload) != ResultCache.key_for(other)


# ----------------------------------------------------------------------
# JSONL export
# ----------------------------------------------------------------------
def test_record_roundtrip():
    records, _ = run_workload_design(small_design((2,)), CRAY_J90)
    record = records[0]
    back = workload_record_from_dict(workload_record_to_dict(record))
    assert back.cell == record.cell
    assert back.breakdown == record.breakdown
    assert back.wall_stats == record.wall_stats


def test_export_and_load_jsonl(tmp_path):
    records, _ = run_workload_design(small_design(), CRAY_J90)
    path = tmp_path / "cells.jsonl"
    assert export_jsonl(records, path) == 3
    loaded = load_jsonl(path)
    assert len(loaded) == 3
    for a, b in zip(records, loaded):
        assert a.cell == b.cell
        assert a.breakdown == b.breakdown
        assert a.wall_stats == b.wall_stats


def test_analysis_layer_jsonl_aliases(tmp_path):
    from repro.analysis import records_from_jsonl, records_to_jsonl

    records, _ = run_workload_design(small_design(), CRAY_J90)
    path = tmp_path / "cells.jsonl"
    assert records_to_jsonl(records, path) == 3
    loaded = records_from_jsonl(path)
    assert [r.cell for r in loaded] == [r.cell for r in records]
    assert [r.breakdown for r in loaded] == [r.breakdown for r in records]

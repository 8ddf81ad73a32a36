"""Workload campaigns: determinism, caching, chaos, telemetry ingest."""

import math

import pytest

from repro.experiments.cache import ResultCache
from repro.netsim import FaultSpec
from repro.platforms import get_platform
from repro.workloads import get_family, spec_digest
from repro.workloads.campaign import (
    WorkloadCell,
    render_workload_campaign,
    run_workload_campaign,
    run_workload_design,
    workload_record_from_dict,
    workload_record_to_dict,
)


#: one of each: a generic phase program and the paper's dedicated one
FAMILIES = ("collective", "opal")
CHAOS = FaultSpec.parse("drop=0.05,timeout=0.5")


def _small_cells(family_name):
    family = get_family(family_name)
    base = family.spec(molecule="small") if family_name == "opal" else None
    specs = family.campaign_specs(base)[:2]
    return [WorkloadCell(spec, p) for spec in specs for p in (1, 2)]


def _dicts(records):
    return [workload_record_to_dict(r) for r in records]


class TestDesignDeterminism:
    @pytest.mark.parametrize("family_name", ["collective", "hpl", "opal"])
    def test_serial_equals_pooled(self, family_name):
        platform = get_platform("fast-cops")
        cells = _small_cells(family_name)
        serial, n_serial = run_workload_design(cells, platform, workers=None)
        pooled, n_pooled = run_workload_design(cells, platform, workers=2)
        assert n_serial == n_pooled == len(cells)
        assert _dicts(serial) == _dicts(pooled)

    def test_chaos_serial_equals_pooled(self):
        platform = get_platform("fast-cops")
        cells = _small_cells("collective")
        serial, _ = run_workload_design(
            cells, platform, workers=None, faults=CHAOS
        )
        pooled, _ = run_workload_design(cells, platform, workers=2, faults=CHAOS)
        assert _dicts(serial) == _dicts(pooled)

    def test_record_round_trips_through_dict(self):
        platform = get_platform("fast-cops")
        records, _ = run_workload_design(_small_cells("hpl"), platform)
        for record in records:
            d = workload_record_to_dict(record)
            again = workload_record_from_dict(d)
            assert workload_record_to_dict(again) == d
            assert again.cell == record.cell
            assert spec_digest(again.cell.spec) == spec_digest(record.cell.spec)


class TestCache:
    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        platform = get_platform("fast-cops")
        for family_name in FAMILIES:
            cells = _small_cells(family_name)
            root = tmp_path / family_name
            cold, n_cold = run_workload_design(
                cells, platform, cache=ResultCache(root)
            )
            warm, n_warm = run_workload_design(
                cells, platform, cache=ResultCache(root)
            )
            assert n_cold == len(cells) and n_warm == 0, family_name
            assert _dicts(cold) == _dicts(warm)

    def test_chaos_spec_joins_the_cache_key(self, tmp_path):
        platform = get_platform("fast-cops")
        for family_name in FAMILIES:
            cells = _small_cells(family_name)[:1]
            root = tmp_path / family_name
            run_workload_design(cells, platform, cache=ResultCache(root))
            _, simulated = run_workload_design(
                cells, platform, cache=ResultCache(root), faults=CHAOS
            )
            # a clean entry must not answer a chaos run
            assert simulated == 1, family_name


class TestCampaign:
    def test_campaign_serial_equals_pooled_render(self):
        platform = get_platform("fast-cops")
        kwargs = dict(servers=(1, 2), candidates=[get_platform("j90")])
        serial = run_workload_campaign("hpl", platform, workers=None, **kwargs)
        pooled = run_workload_campaign("hpl", platform, workers=2, **kwargs)
        assert render_workload_campaign(serial) == render_workload_campaign(
            pooled
        )

    def test_calibration_fit_is_tight_on_clean_runs(self):
        platform = get_platform("fast-cops")
        report = run_workload_campaign("collective", platform, servers=(1, 2, 4))
        assert report.calibration.mean_relative_error() < 0.05
        for label, measured, predicted in report.rows:
            assert predicted == pytest.approx(measured, rel=0.25), label

    def test_store_ingest_stamps_family_columns(self, tmp_path):
        from repro.obs.store import TelemetryStore

        platform = get_platform("fast-cops")
        run_workload_campaign(
            "hpl", platform, servers=(1, 2), store_dir=tmp_path / "store"
        )
        store = TelemetryStore(tmp_path / "store")
        cells = store.scan("cells")
        assert set(cells["family"]) == {"hpl"}
        assert all(math.isnan(v) for v in cells["cutoff"])
        residuals = store.scan("residuals")
        assert set(residuals["family"]) == {"hpl"}
        assert set(residuals["variable"]) >= {"nbint", "comm", "sync"}

    def test_opal_campaign_refuses_store_dir(self, tmp_path):
        # its flop-unit fit cannot be joined against opal's classic
        # residuals; the paper study's run_campaign is the opal sink
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError, match="run_campaign"):
            run_workload_campaign(
                "opal", get_platform("fast-cops"), store_dir=tmp_path / "s"
            )
        assert not (tmp_path / "s").exists()

"""Chaos-campaign properties: determinism, cache keys, probe hygiene.

The fault layer is a *design factor*: a chaos campaign must be exactly
as reproducible as a healthy one.  Same seed and spec -> bit-identical
records, serial or pooled; faults off -> bit-identical to a run that
never imported the fault layer at all.
"""

from repro.experiments import (
    ResultCache,
    breakdown_chart_cases,
    opal_cell,
    run_campaign,
)
from repro.netsim.faults import FaultSpec
from repro.opal.complexes import SMALL
from repro.platforms import CRAY_J90, FAST_COPS
from repro.workloads.campaign import (
    measure_probe,
    run_workload_design,
    workload_cell_key_payload,
)

CHAOS = FaultSpec.parse("drop=0.01,delay=0.02,delay_scale=0.05,timeout=5")


def small_design(servers=(1, 2, 3)):
    return [opal_cell(SMALL, p, cutoff=10.0, update_interval=1) for p in servers]


def measure(design, faults=None, **kw):
    records, _ = run_workload_design(design, CRAY_J90, faults=faults, **kw)
    return records


def test_chaos_design_is_repeatable():
    a = measure(small_design(), CHAOS)
    b = measure(small_design(), CHAOS)
    for ra, rb in zip(a, b):
        assert ra.breakdown == rb.breakdown
        assert ra.wall_stats == rb.wall_stats


def test_chaos_serial_and_parallel_records_identical():
    design = small_design()
    serial = measure(design, CHAOS)
    pooled = measure(design, CHAOS, workers=2)
    assert len(serial) == len(pooled) == len(design)
    for a, b in zip(serial, pooled):
        assert a.cell == b.cell
        assert a.breakdown == b.breakdown
        assert a.wall_stats == b.wall_stats


def test_chaos_costs_time_but_not_correctness():
    design = small_design((2,))
    healthy = measure(design)[0]
    faulted = measure(design, CHAOS)[0]
    assert faulted.wall_stats.mean > healthy.wall_stats.mean


def test_disabled_faults_leave_results_bit_identical():
    # a spec that injects nothing still switches the client to the
    # resilient stub; the measured numbers must not move at all
    design = small_design((2,))
    plain = measure(design)[0]
    idle_spec = FaultSpec(rpc_timeout=30.0)
    assert not idle_spec.enabled
    resilient = measure(design, idle_spec)[0]
    assert resilient.breakdown == plain.breakdown
    assert resilient.wall_stats == plain.wall_stats


def test_cache_key_separates_chaos_from_healthy_cells():
    case = small_design((2,))[0]
    healthy = workload_cell_key_payload(case, CRAY_J90, 0.004, 0, 1)
    faulted = workload_cell_key_payload(case, CRAY_J90, 0.004, 0, 1, faults=CHAOS)
    assert "chaos" not in healthy
    assert faulted["chaos"] == CHAOS.as_dict()
    assert ResultCache.key_for(healthy) != ResultCache.key_for(faulted)
    other = workload_cell_key_payload(
        case, CRAY_J90, 0.004, 0, 1, faults=FaultSpec(drop=0.02)
    )
    assert ResultCache.key_for(faulted) != ResultCache.key_for(other)


def test_chaos_cells_cached_and_replayed(tmp_path):
    design = small_design((1, 2))
    first, simulated = run_workload_design(
        design, CRAY_J90, cache=ResultCache(tmp_path), faults=CHAOS
    )
    assert simulated == 2
    second, simulated = run_workload_design(
        design, CRAY_J90, cache=ResultCache(tmp_path), faults=CHAOS
    )
    assert simulated == 0
    for a, b in zip(first, second):
        assert a.breakdown == b.breakdown
    # healthy cells do not hit the chaos cache entries
    healthy = ResultCache(tmp_path)
    run_workload_design(design, CRAY_J90, cache=healthy)
    assert healthy.stats.hits == 0


def test_probe_stays_unfaulted_under_chaos():
    # the reproducibility probe certifies the measurement protocol; the
    # chaos factor applies to design cells only, so the probe CV stays
    # in the licensed band and the campaign proceeds
    design = [c for cells in breakdown_chart_cases(SMALL, (1, 2)).values()
              for c in cells]
    kwargs = dict(molecule=SMALL, design=design, probe_repetitions=3, servers=(1, 2, 3))
    faulted = run_campaign(
        CRAY_J90, [], faults=FaultSpec.parse("drop=0.05,timeout=5"), **kwargs
    )
    healthy = run_campaign(CRAY_J90, [], **kwargs)
    probe, _ = measure_probe(
        CRAY_J90, opal_cell(SMALL, 2, cutoff=10.0, update_interval=1), repetitions=3
    )
    assert faulted.probe == healthy.probe == probe
    assert faulted.calibration.params != healthy.calibration.params


def test_chaos_campaign_serial_vs_parallel_identical_report():
    kwargs = dict(
        reference=CRAY_J90,
        candidates=[FAST_COPS],
        probe_repetitions=2,
        servers=(1, 2),
        faults=CHAOS,
    )
    serial = run_campaign(**kwargs)
    pooled = run_campaign(workers=2, **kwargs)
    assert serial.calibration.params == pooled.calibration.params
    assert serial.probe == pooled.probe
    for label in serial.predictions:
        for name in serial.predictions[label]:
            assert (
                serial.predictions[label][name].times
                == pooled.predictions[label][name].times
            )
    # chaos degrades the fit relative to a healthy campaign
    healthy = run_campaign(**{**kwargs, "faults": None})
    assert serial.fit_error >= healthy.fit_error

"""Unit tests for measuring opal design cells through the executor."""

import pytest

from repro.analysis.figures import figure_breakdown
from repro.errors import DesignError
from repro.experiments.cases import opal_cell
from repro.opal.complexes import SMALL
from repro.workloads.campaign import (
    measure_probe,
    measure_workload_cell,
    run_workload_design,
)


def small_case(servers=2, **kw):
    defaults = dict(cutoff=10.0, update_interval=1)
    defaults.update(kw)
    return opal_cell(SMALL, servers, **defaults)


def test_run_case_returns_breakdown(j90):
    record = measure_workload_cell(j90, small_case())
    assert record.breakdown.total > 0
    assert record.wall_stats.n == 1
    assert record.cell.app.servers == 2


def test_repetitions_average(j90):
    record = measure_workload_cell(
        j90, small_case(), repetitions=3, jitter_sigma=0.01
    )
    assert record.wall_stats.n == 3
    assert record.wall_stats.std > 0


def test_zero_jitter_zero_variance(j90):
    record = measure_workload_cell(
        j90, small_case(), repetitions=3, jitter_sigma=0.0
    )
    # repetitions differ only through the workload seed; with zero jitter
    # each repetition's own run is deterministic, but seeds vary shares
    assert record.wall_stats.coefficient_of_variation < 0.05


def test_empty_design_rejected(j90):
    with pytest.raises(DesignError):
        run_workload_design([], j90)
    with pytest.raises(DesignError):
        run_workload_design([small_case()], j90, repetitions=0)


def test_observations_shape(j90):
    records, _ = run_workload_design([small_case(servers=p) for p in (1, 2)], j90)
    observations = [r.observation() for r in records]
    assert len(observations) == 2
    app, breakdown = observations[0]
    assert app.servers == 1 and breakdown.total > 0


def test_breakdown_series_panels(j90):
    out = figure_breakdown(SMALL, platform=j90, servers=(1, 2))
    assert set(out) == {"a", "b", "c", "d"}
    assert sorted(out["a"]) == [1, 2]


def test_variability_probe_confirms_low_cv(j90):
    # Section 2.3: "low variability and good reproducibility"
    stats, simulated = measure_probe(
        j90, small_case(), repetitions=6, jitter_sigma=0.004
    )
    assert simulated == 6
    assert stats.reproducible(cv_threshold=0.02)

"""Unit tests for bootstrap uncertainty quantification."""

import pytest

from repro.core.parameters import ApplicationParams, ModelPlatformParams
from repro.core.uncertainty import bootstrap_calibration
from repro.errors import CalibrationError
from repro.experiments import reduced_design
from repro.opal.complexes import MEDIUM
from repro.platforms import CRAY_J90
from repro.workloads.campaign import run_workload_design


@pytest.fixture(scope="module")
def observations():
    records, _ = run_workload_design(
        reduced_design(), CRAY_J90, jitter_sigma=0.01, base_seed=2
    )
    return [r.observation() for r in records]


@pytest.fixture(scope="module")
def result(observations):
    return bootstrap_calibration(observations, n_bootstrap=60, seed=1)


def test_estimates_near_truth(result):
    truth = ModelPlatformParams.from_spec(CRAY_J90)
    # strongly identified parameters land within a fraction of a percent
    assert result.intervals["a1"].contains(truth.a1)
    assert result.intervals["b5"].contains(truth.b5)
    for name in ("a2", "a3", "a4"):
        iv = result.intervals[name]
        assert abs(iv.estimate - getattr(truth, name)) / getattr(truth, name) < 0.005
    # b1 fits LOW structurally: part of the message latency hides behind
    # the accounting barriers and is attributed to sync/idle (see
    # EXPERIMENTS.md FIG4 notes) — the bootstrap cannot repair a bias
    assert result.intervals["b1"].upper < truth.b1


def test_bootstrap_measures_resampling_not_realized_noise(result):
    """The interval half-widths reflect design resampling; the one
    realized jitter offset (~0.1%) is a bias outside them.  This is the
    expected statistical behaviour, asserted so nobody 'fixes' it."""
    truth = ModelPlatformParams.from_spec(CRAY_J90)
    iv = result.intervals["a3"]
    realized_offset = abs(iv.estimate - truth.a3) / truth.a3
    assert realized_offset < 0.005
    # the halfwidth stays on the same order as the realized offset
    # (factor depends on the per-cell seed realization; the decorrelated
    # content-hash seeds shrink the offset relative to the old shared
    # seed sequence)
    assert iv.relative_halfwidth < realized_offset * 4


def test_intervals_ordered_and_tight(result):
    for iv in result.intervals.values():
        assert iv.lower <= iv.estimate <= iv.upper
    # the design identifies the compute parameters tightly
    assert result.intervals["a3"].relative_halfwidth < 0.05
    assert result.intervals["a1"].relative_halfwidth < 0.05


def test_prediction_band_brackets_point(result):
    app = ApplicationParams(molecule=MEDIUM, steps=10, servers=5, cutoff=10.0)
    point, lower, upper = result.predict_band(app)
    assert lower <= point <= upper
    assert (upper - lower) / point < 0.2  # the paper's "good certainty"


def test_band_coverage_parameter(result):
    app = ApplicationParams(molecule=MEDIUM, steps=10, servers=3, cutoff=None)
    _, lo95, hi95 = result.predict_band(app, coverage=0.95)
    _, lo50, hi50 = result.predict_band(app, coverage=0.50)
    assert lo95 <= lo50 <= hi50 <= hi95
    with pytest.raises(CalibrationError):
        result.predict_band(app, coverage=1.5)


def test_validation(observations):
    with pytest.raises(CalibrationError):
        bootstrap_calibration(observations[:4])
    with pytest.raises(CalibrationError):
        bootstrap_calibration(observations, n_bootstrap=5)
    with pytest.raises(CalibrationError):
        bootstrap_calibration(observations, coverage=0.0)

"""End-to-end integration: measure -> calibrate -> predict, as the paper does."""

import pytest

from repro.core.calibration import calibrate
from repro.core.parameters import ApplicationParams, ModelPlatformParams
from repro.core.prediction import predict_series
from repro.experiments import reduced_design
from repro.opal.complexes import MEDIUM, SMALL
from repro.opal.parallel import run_parallel_opal
from repro.platforms import CRAY_J90, FAST_COPS, extract_model_params
from repro.workloads.campaign import run_workload_design


@pytest.fixture(scope="module")
def j90_calibration():
    records, _ = run_workload_design(reduced_design(), CRAY_J90)
    obs = [r.observation() for r in records]
    return calibrate(obs, name="j90-calibrated"), obs


def test_full_pipeline_fit_quality(j90_calibration):
    result, obs = j90_calibration
    # Section 2.5: "The overall fit of the model to the measurement ...
    # is excellent"
    assert result.mean_relative_error() < 0.08
    assert all(r2 > 0.95 for r2 in result.r2.values())


def test_calibrated_model_predicts_unseen_configuration(j90_calibration):
    result, _ = j90_calibration
    # a configuration NOT in the reduced design (p=4, small, cutoff,
    # partial update)
    app = ApplicationParams(
        molecule=SMALL, steps=10, servers=4, cutoff=10.0, update_interval=10
    )
    measured = run_parallel_opal(app, CRAY_J90).wall_time
    predicted = result.model.predict_total(app)
    assert predicted == pytest.approx(measured, rel=0.15)


def test_microbenchmark_route_agrees_with_calibration_route(j90_calibration):
    result, _ = j90_calibration
    micro = extract_model_params(CRAY_J90)
    assert micro.a3 == pytest.approx(result.params.a3, rel=0.05)
    assert micro.a1 == pytest.approx(result.params.a1, rel=0.05)


def test_cross_platform_prediction_validated_by_simulation():
    """The paper predicts platforms it never measured; we CAN measure
    them (the simulator runs anywhere) and check the prediction."""
    app = ApplicationParams(molecule=MEDIUM, steps=10, cutoff=10.0)
    series = predict_series(
        ModelPlatformParams.from_spec(FAST_COPS), app, servers=(1, 3, 5, 7)
    )
    for p, predicted in zip((1, 3, 5, 7), series.times):
        measured = run_parallel_opal(app.with_(servers=p), FAST_COPS).wall_time
        assert predicted == pytest.approx(measured, rel=0.25), f"p={p}"


def test_counted_flops_differ_across_platforms_for_same_result():
    """Section 3.2's surprise: identical computation, different counts."""
    app = ApplicationParams(molecule=SMALL, steps=3, servers=2, cutoff=10.0)
    j90 = run_parallel_opal(app, CRAY_J90)
    pc = run_parallel_opal(app, FAST_COPS)
    assert j90.flops_counted > 1.4 * pc.flops_counted

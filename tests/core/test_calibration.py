"""Unit tests for least-squares model calibration."""

import pytest

from repro.core.calibration import calibrate, residual_table
from repro.core.model import OpalPerformanceModel
from repro.core.parameters import ApplicationParams, ModelPlatformParams
from repro.errors import CalibrationError
from repro.opal.complexes import LARGE, MEDIUM, SMALL


TRUE = ModelPlatformParams(
    name="truth", a1=3e6, b1=0.01, a2=2.3e-7, a3=6.7e-7, a4=1.7e-6, b5=0.01
)


def synthetic_observations(noise=0.0, seed=0):
    """Breakdowns generated from a known model (optionally noisy)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    model = OpalPerformanceModel(TRUE)
    obs = []
    for mol in (SMALL, MEDIUM, LARGE):
        for cutoff in (None, 10.0):
            for interval in (1, 10):
                for p in (1, 3, 5, 7):
                    app = ApplicationParams(
                        molecule=mol,
                        steps=10,
                        servers=p,
                        cutoff=cutoff,
                        update_interval=interval,
                    )
                    b = model.breakdown(app)
                    if noise:
                        b = b.scaled(1.0 + noise * rng.standard_normal())
                    obs.append((app, b))
    return obs


def test_exact_recovery_from_noiseless_data():
    result = calibrate(synthetic_observations())
    p = result.params
    assert p.a1 == pytest.approx(TRUE.a1, rel=1e-6)
    assert p.b1 == pytest.approx(TRUE.b1, rel=1e-6)
    assert p.a2 == pytest.approx(TRUE.a2, rel=1e-6)
    assert p.a3 == pytest.approx(TRUE.a3, rel=1e-6)
    assert p.a4 == pytest.approx(TRUE.a4, rel=1e-6)
    assert p.b5 == pytest.approx(TRUE.b5, rel=1e-6)
    assert all(r2 > 0.999999 for r2 in result.r2.values())
    assert result.mean_relative_error() < 1e-9


def test_noisy_recovery_stays_close():
    result = calibrate(synthetic_observations(noise=0.02, seed=1))
    assert result.params.a3 == pytest.approx(TRUE.a3, rel=0.02)
    assert result.mean_relative_error() < 0.05


def test_too_few_observations_rejected():
    obs = synthetic_observations()[:2]
    with pytest.raises(CalibrationError):
        calibrate(obs)


def test_residual_table_structure():
    obs = synthetic_observations()
    result = calibrate(obs)
    rows = residual_table(result, obs)
    assert len(rows) == len(obs)
    row = rows[0]
    for key in ("n", "p", "cutoff", "measured", "predicted", "difference",
                "relative_error"):
        assert key in row
    assert abs(row["difference"]) < 1e-6


def test_calibrated_model_property():
    result = calibrate(synthetic_observations())
    model = result.model
    app = ApplicationParams(molecule=MEDIUM, servers=4, cutoff=10.0)
    assert model.predict_total(app) > 0


def test_simulator_calibration_close_to_spec(j90):
    """Calibrating against simulated J90 runs recovers Table 1/2 data."""
    from repro.experiments import reduced_design
    from repro.workloads.campaign import run_workload_design

    records, _ = run_workload_design(reduced_design(), j90)
    obs = [r.observation() for r in records]
    result = calibrate(obs, name="j90-measured")
    spec_params = ModelPlatformParams.from_spec(j90)
    assert result.params.a1 == pytest.approx(spec_params.a1, rel=0.05)
    assert result.params.a3 == pytest.approx(spec_params.a3, rel=0.05)
    assert result.params.a2 == pytest.approx(spec_params.a2, rel=0.10)
    # the paper's "excellent fit"
    assert result.mean_relative_error() < 0.08

"""Data generators for every figure of the paper.

Each ``figure*`` function returns the plotted data (dict of series /
per-panel tables); the corresponding benchmark prints it through
:mod:`repro.analysis.report`.  Figures 1/2 and 4 *measure* (simulated
runs on the reference J90); Figures 5/6 *predict* (analytical model with
per-platform parameters).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.breakdown import TimeBreakdown
from ..core.calibration import CalibrationResult, calibrate, residual_table
from ..core.parameters import ApplicationParams
from ..core.prediction import PredictionSeries, predict_platforms
from ..experiments.cases import (
    CUTOFF_EFFECTIVE,
    SERVER_RANGE,
    STEPS,
    breakdown_chart_cases,
    reduced_design,
)
from ..opal.complexes import LARGE, MEDIUM, ComplexSpec
from ..platforms.catalog import ALL_PLATFORMS, REFERENCE_PLATFORM
from ..workloads.campaign import WorkloadCell, run_workload_design


# ----------------------------------------------------------------------
def figure_breakdown(
    molecule: ComplexSpec,
    platform=None,
    servers: Sequence[int] = SERVER_RANGE,
) -> Dict[str, Dict[int, TimeBreakdown]]:
    """Figures 1 (medium) / 2 (large): measured breakdown, four panels.

    Returns ``{"a": {p: TimeBreakdown}, "b": ..., "c": ..., "d": ...}``.
    """
    platform = REFERENCE_PLATFORM if platform is None else platform
    panels = breakdown_chart_cases(molecule, servers)
    out: Dict[str, Dict[int, TimeBreakdown]] = {}
    for key, cells in panels.items():
        records, _ = run_workload_design(cells, platform)
        out[key] = {r.cell.servers: r.breakdown for r in records}
    return out


PANEL_TITLES = {
    "a": "no cutoff, full update",
    "b": "no cutoff, partial update (1/10)",
    "c": "10 A cutoff, full update",
    "d": "10 A cutoff, partial update (1/10)",
}


# ----------------------------------------------------------------------
def figure3_parameter_space() -> List[WorkloadCell]:
    """Figure 3: the calibration parameter space (the design itself)."""
    from ..experiments.cases import full_design

    return full_design()


# ----------------------------------------------------------------------
def figure4_calibration(
    platform=None,
    design: Optional[List[WorkloadCell]] = None,
):
    """Figure 4: measured vs model-predicted wall-clock times.

    Runs the (by default reduced 7*2^(3-1)) design on the reference
    platform, calibrates the model by least squares, and returns
    ``(CalibrationResult, residual rows)``.
    """
    platform = REFERENCE_PLATFORM if platform is None else platform
    design = reduced_design() if design is None else design
    records, _ = run_workload_design(design, platform)
    observations = [r.observation() for r in records]
    result: CalibrationResult = calibrate(observations, name=f"{platform.name}-fit")
    rows = residual_table(result, observations)
    return result, rows


# ----------------------------------------------------------------------
def figure_prediction(
    molecule: ComplexSpec,
    platforms=None,
    servers: Sequence[int] = SERVER_RANGE,
    steps: int = STEPS,
    update_interval: int = 1,
) -> Dict[str, Dict[str, PredictionSeries]]:
    """Figures 5 (medium) / 6 (large): predicted time + speedup.

    Returns ``{"no_cutoff": {platform: series}, "cutoff": {...}}`` —
    panels a/b are the ``no_cutoff`` times/speedups, c/d the ``cutoff``
    ones.
    """
    platforms = list(ALL_PLATFORMS) if platforms is None else list(platforms)
    out = {}
    for key, cutoff in (("no_cutoff", None), ("cutoff", CUTOFF_EFFECTIVE)):
        app = ApplicationParams(
            molecule=molecule,
            steps=steps,
            cutoff=cutoff,
            update_interval=update_interval,
        )
        out[key] = predict_platforms(platforms, app, servers)
    return out


def figure5(servers: Sequence[int] = SERVER_RANGE, **kw):
    """Figure 5: medium problem size."""
    return figure_prediction(MEDIUM, servers=servers, **kw)


def figure6(servers: Sequence[int] = SERVER_RANGE, **kw):
    """Figure 6: large problem size."""
    return figure_prediction(LARGE, servers=servers, **kw)

"""Systematic experimental design and execution (Jain ch. 16; Sec 2.3).

Designs are opal-spec workload cells; they are measured, cached and
fanned out by the one campaign executor, :mod:`repro.workloads.campaign`.
"""

from .anova import AnovaEffect, AnovaResult, replicated_anova
from .cache import CacheStats, ResultCache
from .campaign import CampaignReport, render as render_campaign, run_campaign
from .cases import (
    CUTOFF_EFFECTIVE,
    CUTOFF_INEFFECTIVE,
    SERVER_RANGE,
    STEPS,
    UPDATE_FULL,
    UPDATE_PARTIAL,
    breakdown_chart_cases,
    full_design,
    opal_cell,
    paper_factors,
    reduced_design,
)
from .factorial import (
    EffectEstimate,
    Factor,
    design_size,
    fractional_factorial,
    full_factorial,
    sign_table_effects,
)
from .measurement import MeasurementStats, repeat, summarize

__all__ = [
    "AnovaEffect",
    "AnovaResult",
    "CacheStats",
    "CampaignReport",
    "CUTOFF_EFFECTIVE",
    "CUTOFF_INEFFECTIVE",
    "EffectEstimate",
    "Factor",
    "MeasurementStats",
    "ResultCache",
    "SERVER_RANGE",
    "STEPS",
    "UPDATE_FULL",
    "UPDATE_PARTIAL",
    "breakdown_chart_cases",
    "design_size",
    "fractional_factorial",
    "full_design",
    "full_factorial",
    "opal_cell",
    "paper_factors",
    "reduced_design",
    "repeat",
    "render_campaign",
    "replicated_anova",
    "run_campaign",
    "sign_table_effects",
    "summarize",
]

"""The full paper pipeline as one orchestrated campaign.

Section 1 promises "an integrated approach to performance evaluation,
modeling and prediction"; this module is that integration as an API:

1. **reproducibility probe** — repeat one configuration, check the CV
   (Section 2.3's preliminary test);
2. **measurement** — run a factorial design on the reference platform
   with the instrumented middleware;
3. **calibration** — least-squares fit of the analytical model
   (Section 2.5);
4. **prediction** — execution-time/speedup curves for every candidate
   platform from its key data (Section 4);
5. **verdict** — the platform ranking and the headline comparisons.

`run_campaign()` returns a structured `CampaignReport`; `render()` turns
it into the study a human would read.  Probe and design both measure
through the one campaign executor (:mod:`repro.workloads.campaign`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.calibration import CalibrationResult, calibrate
from ..core.parameters import ApplicationParams
from ..core.prediction import (
    CostEffectivenessRow,
    PredictionSeries,
    cost_effectiveness,
    predict_platforms,
)
from ..errors import DesignError
from ..opal.complexes import MEDIUM, ComplexSpec
from ..workloads import campaign as executor
from .cache import CacheStats, ResultCache
from .cases import CUTOFF_EFFECTIVE, opal_cell, reduced_design
from .measurement import MeasurementStats


@dataclass
class CampaignReport:
    """Everything the integrated study produced."""

    reference_platform: str
    probe: MeasurementStats
    calibration: CalibrationResult
    #: scenario label -> platform -> series
    predictions: Dict[str, Dict[str, PredictionSeries]] = field(
        default_factory=dict
    )
    cost_ranking: List[CostEffectivenessRow] = field(default_factory=list)
    #: simulated Opal runs actually executed for this report (a warm
    #: cache drives this to zero)
    simulations_run: int = 0
    #: result-cache counters when a cache_dir was used, else None
    cache_stats: Optional[CacheStats] = None

    # ------------------------------------------------------------------
    @property
    def fit_error(self) -> float:
        """Mean relative error of the calibration over its design."""
        return self.calibration.mean_relative_error()

    def best_platform(self, scenario: str) -> str:
        """Fastest platform (best predicted time) in one scenario."""
        series = self.predictions[scenario]
        return min(series, key=lambda name: series[name].best_time)

    def verdict(self) -> str:
        """The campaign's one-line answer to the paper's question."""
        lines = []
        for scenario, series in self.predictions.items():
            best = self.best_platform(scenario)
            ref = self.reference_platform
            if ref in series:
                factor = series[ref].best_time / series[best].best_time
                lines.append(
                    f"{scenario}: {best} "
                    f"({factor:.1f}x faster than the {ref})"
                )
            else:
                lines.append(f"{scenario}: {best}")
        return "; ".join(lines)


def run_campaign(
    reference,
    candidates: Sequence,
    molecule: ComplexSpec = MEDIUM,
    design: Optional[List["executor.WorkloadCell"]] = None,
    scenarios: Optional[Dict[str, Optional[float]]] = None,
    servers: Sequence[int] = tuple(range(1, 8)),
    probe_repetitions: int = 6,
    jitter_sigma: float = 0.004,
    seed: int = 0,
    workers: Optional[int] = None,
    cache_dir=None,
    progress=None,
    obs=None,
    faults=None,
    store_dir=None,
) -> CampaignReport:
    """Execute the integrated study.

    ``reference`` is the PlatformSpec measured and calibrated against;
    ``candidates`` the PlatformSpecs predicted for (the reference is
    included automatically).  ``scenarios`` maps labels to cutoffs
    (default: the paper's no-cutoff and 10 Angstrom cases).

    ``workers=N`` fans the design out over N processes; ``cache_dir=``
    reuses previously simulated cells, so a repeated campaign performs
    zero new simulations (see ``CampaignReport.simulations_run``).
    Serial and parallel campaigns produce identical reports.

    ``obs=`` (an :class:`~repro.obs.ObsSession`) captures every
    simulated run — probe and design, serial or pooled — into one
    merged trace; the freshly calibrated coefficients are attached so
    ``obs.model_report()`` joins measurement against the model.

    ``faults=`` (a :class:`~repro.netsim.FaultSpec`) turns this into a
    chaos campaign: every design cell runs under fault injection with
    the resilient middleware.  The reproducibility probe always runs
    unfaulted — it certifies the measurement protocol on the dedicated
    system, which is a precondition of, not part of, the experiment.

    ``store_dir=`` appends the campaign's telemetry to the columnar
    store rooted there (:mod:`repro.obs.store`): one ``cells`` segment
    with every measured design cell and one ``residuals`` segment
    joining them against the freshly calibrated model, so ``python -m
    repro.obs query|drift`` can interrogate campaign history.  Because
    records arrive in design order on both execution paths, serial and
    pooled campaigns append bit-identical segments.
    """
    if probe_repetitions < 2:
        raise DesignError("the reproducibility probe needs >= 2 repetitions")
    scenarios = (
        {"no cutoff": None, "10 A cutoff": CUTOFF_EFFECTIVE}
        if scenarios is None
        else scenarios
    )
    design = reduced_design() if design is None else design

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    probe_cell = opal_cell(
        molecule, max(servers) // 2 + 1, CUTOFF_EFFECTIVE, update_interval=1
    )
    probe, probe_runs = executor.measure_probe(
        reference,
        probe_cell,
        repetitions=probe_repetitions,
        jitter_sigma=jitter_sigma,
        base_seed=seed,
        cache=cache,
        obs=obs,
    )
    if not probe.reproducible(cv_threshold=0.05):
        raise DesignError(
            f"measurements not reproducible (CV {probe.coefficient_of_variation:.1%}); "
            "is the system dedicated?"
        )

    records, simulated = executor.run_workload_design(
        design,
        reference,
        jitter_sigma=jitter_sigma,
        base_seed=seed,
        workers=workers,
        cache=cache,
        faults=faults,
        progress=progress,
        obs=obs,
    )
    observations = [r.observation() for r in records]
    calibration = calibrate(observations, name=f"{reference.name}-calibrated")
    if obs is not None:
        obs.set_model_params(calibration.params)
    if store_dir is not None:
        from ..obs.ingest import ingest_records
        from ..obs.store import TelemetryStore

        ingest_records(
            TelemetryStore(store_dir),
            records,
            params=calibration.params,
            meta={"campaign": reference.name, "seed": seed},
        )

    all_platforms = list(candidates)
    if all(p.name != reference.name for p in all_platforms):
        all_platforms.insert(0, reference)

    report = CampaignReport(
        reference_platform=reference.name,
        probe=probe,
        calibration=calibration,
        simulations_run=probe_runs + simulated,
        cache_stats=cache.stats if cache is not None else None,
    )
    for label, cutoff in scenarios.items():
        app = ApplicationParams(
            molecule=molecule, steps=10, cutoff=cutoff, update_interval=1
        )
        # candidate platforms use their own key data; the reference uses
        # its freshly calibrated coefficients (the paper's structure)
        series = predict_platforms(
            [p for p in all_platforms if p.name != reference.name], app, servers
        )
        ref_params = calibration.params.with_(name=reference.name)
        series.update(predict_platforms([ref_params], app, servers))
        report.predictions[label] = series

    costs = {
        p.name: p.approx_cost_kusd
        for p in all_platforms
        if p.approx_cost_kusd is not None
    }
    first_scenario = next(iter(report.predictions.values()))
    report.cost_ranking = cost_effectiveness(first_scenario, costs)
    return report


def render(report: CampaignReport) -> str:
    """The campaign as a readable study."""
    from ..analysis.report import curve_table

    lines = [
        f"Integrated performance study (reference: {report.reference_platform})",
        "",
        f"reproducibility: CV {100 * report.probe.coefficient_of_variation:.2f}% "
        f"over {report.probe.n} repetitions -> single timings licensed",
        f"model fit: mean relative error "
        f"{100 * report.fit_error:.2f}% "
        f"(R^2 {min(report.calibration.r2.values()):.4f} worst component)",
    ]
    line = f"simulations executed: {report.simulations_run}"
    if report.cache_stats is not None:
        line += f" (cache: {report.cache_stats})"
    lines.extend([line, ""])
    for label, series in report.predictions.items():
        servers = next(iter(series.values())).servers
        lines.append(
            curve_table(
                {n: s.times for n, s in series.items()},
                servers,
                f"predicted execution time [s] — {label}",
            )
        )
        lines.append("")
    if report.cost_ranking:
        lines.append("cost effectiveness (time x k$, lower wins):")
        for row in report.cost_ranking:
            lines.append(
                f"  {row.platform:<12s} {row.time_cost_product:12.0f}"
            )
        lines.append("")
    lines.append(f"verdict: {report.verdict()}")
    return "\n".join(lines)

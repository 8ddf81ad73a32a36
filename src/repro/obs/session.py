"""The ``obs=`` hook: one observability session across many runs.

An :class:`ObsSession` is handed to
:func:`repro.opal.parallel.run_parallel_opal`,
:func:`repro.workloads.campaign.run_workload_design` or
:func:`repro.experiments.run_campaign`; every simulated run absorbed
into it contributes its spans, flow edges, metrics and measured
breakdown, so a whole factorial campaign exports as **one** merged
trace plus one measured-vs-model report.

Sessions also serialize to a plain-JSON payload
(:meth:`ObsSession.to_payload` / :meth:`ObsSession.absorb_payload`), so
process-pool workers can capture observability locally and ship it back
to the parent — the same path the parallel campaign executor uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..core.breakdown import TimeBreakdown
from ..core.parameters import ApplicationParams, ModelPlatformParams
from .export import (
    PathLike,
    _flow_line,
    _span_line,
    flow_from_line,
    span_from_line,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import MetricsRegistry
from .report import RunRow, residual_report
from .spans import SpanTracer

if TYPE_CHECKING:
    from ..netsim.cluster import Cluster
    from ..opal.parallel import OpalRunResult


def run_label(
    platform_name: str,
    app: ApplicationParams,
    seed: int,
    rep: Optional[int] = None,
) -> str:
    """Deterministic display label for one simulated run."""
    cutoff = "none" if app.cutoff is None else f"{app.cutoff:g}"
    label = (
        f"{platform_name}/{app.molecule.name}"
        f"/p{app.servers}/u{app.update_interval}/cut{cutoff}"
        f"/s{app.steps}/seed{seed}"
    )
    if rep is not None:
        label += f"/r{rep}"
    return label


def app_to_dict(app: ApplicationParams) -> Dict[str, Any]:
    """ApplicationParams as plain JSON-able data."""
    mol = app.molecule
    return {
        "molecule": {
            "name": mol.name,
            "protein_atoms": mol.protein_atoms,
            "waters": mol.waters,
            "density": mol.density,
            "description": mol.description,
        },
        "steps": app.steps,
        "servers": app.servers,
        "update_interval": app.update_interval,
        "cutoff": app.cutoff,
        "alpha": app.alpha,
    }


def app_from_dict(data: Dict[str, Any]) -> ApplicationParams:
    """Rebuild ApplicationParams from :func:`app_to_dict` output."""
    from ..opal.complexes import ComplexSpec

    mol = data["molecule"]
    return ApplicationParams(
        molecule=ComplexSpec(
            name=mol["name"],
            protein_atoms=mol["protein_atoms"],
            waters=mol["waters"],
            density=mol["density"],
            description=mol.get("description", ""),
        ),
        steps=data["steps"],
        servers=data["servers"],
        update_interval=data["update_interval"],
        cutoff=data["cutoff"],
        alpha=data["alpha"],
    )


class ObsSession:
    """Collects observability across runs into one merged view."""

    def __init__(self, label: str = "obs") -> None:
        self.label = label
        self.tracer = SpanTracer()
        self.metrics = MetricsRegistry()
        #: (run label, app params, measured breakdown) per absorbed run
        self.run_rows: List[RunRow] = []
        self._model_params: Optional[ModelPlatformParams] = None

    # -- absorbing runs -------------------------------------------------
    @property
    def runs(self) -> List[str]:
        """Labels of every absorbed run, in absorption order."""
        return [run for run, _app, _bd in self.run_rows]

    def absorb_opal_run(
        self,
        run: str,
        cluster: "Cluster",
        result: "OpalRunResult",
    ) -> None:
        """Fold one finished simulated Opal run into the session.

        Called by :func:`~repro.opal.parallel.run_parallel_opal` while
        the cluster is still alive; copies the trace, harvests the
        engine / barrier / Sciddle / hpm metrics and keeps the measured
        breakdown for the model join.
        """
        self.tracer.absorb(cluster.tracer, run=run)
        engine = cluster.engine
        self.metrics.counter("netsim.events_executed").inc(engine.events_executed)
        self.metrics.counter("netsim.events_scheduled").inc(engine.events_scheduled)
        self.metrics.histogram("netsim.max_queue_depth").observe(
            engine.max_queue_depth
        )
        self.metrics.counter("netsim.barrier_arrivals").inc(
            cluster.barriers.arrivals
        )
        self.metrics.counter("netsim.barriers_released").inc(
            cluster.barriers.releases
        )
        # per-cluster registry fed live by the Sciddle runtime
        self.metrics.merge_payload(cluster.metrics.as_dict())
        self.metrics.counter("hpm.flops_counted").inc(result.flops_counted)
        self.metrics.counter("opal.barriers_executed").inc(result.barriers_executed)
        self.metrics.histogram("opal.wall_time").observe(result.wall_time)
        self.metrics.counter("opal.runs").inc()
        self.run_rows.append((run, result.app, result.breakdown))

    def absorb_cache_stats(self, stats: Any) -> None:
        """Snapshot result-cache counters (idempotent gauge set)."""
        if stats is None:
            return
        for key, value in stats.as_dict().items():
            self.metrics.gauge(f"experiments.cache_{key}").set(float(value))

    def observe_cell(self, wall_mean: float) -> None:
        """Record one finished design cell's mean wall time."""
        self.metrics.counter("experiments.cells").inc()
        self.metrics.histogram("experiments.cell_wall_time").observe(wall_mean)

    # -- cross-process transport ----------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """The whole session as plain JSON-able data (pickles cheaply)."""
        return {
            "label": self.label,
            "spans": [_span_line(s) for s in self.tracer.spans],
            "flows": [_flow_line(f) for f in self.tracer.flows],
            "metrics": self.metrics.as_dict(),
            "rows": [
                {
                    "run": run,
                    "app": app_to_dict(app),
                    "breakdown": breakdown.as_dict(),
                }
                for run, app, breakdown in self.run_rows
            ],
        }

    def absorb_payload(self, payload: Optional[Dict[str, Any]]) -> None:
        """Fold a :meth:`to_payload` dict (e.g. from a pool worker) in."""
        if not payload:
            return
        donor = SpanTracer()
        donor.spans.extend(span_from_line(line) for line in payload.get("spans", []))
        donor.flows.extend(flow_from_line(line) for line in payload.get("flows", []))
        self.tracer.absorb(donor)
        self.metrics.merge_payload(payload.get("metrics", {}))
        for row in payload.get("rows", []):
            self.run_rows.append(
                (
                    row["run"],
                    app_from_dict(row["app"]),
                    TimeBreakdown(**row["breakdown"]),
                )
            )

    # -- model join -----------------------------------------------------
    def set_model_params(self, params: ModelPlatformParams) -> None:
        """Attach the (calibrated) coefficients the report joins against."""
        self._model_params = params

    @property
    def model_params(self) -> Optional[ModelPlatformParams]:
        """The attached model coefficients, if any."""
        return self._model_params

    def model_report(
        self, threshold: float = 0.10, per_run: bool = True
    ) -> str:
        """Measured-vs-model residual report over every absorbed run."""
        if self._model_params is None:
            return "(no model parameters attached; call set_model_params first)"
        if not self.run_rows:
            return "(no runs absorbed)"
        return residual_report(
            self.run_rows, self._model_params, threshold=threshold, per_run=per_run
        )

    # -- export ---------------------------------------------------------
    def export_chrome(self, path: PathLike) -> Dict[str, Any]:
        """Write the merged Chrome trace-event JSON file."""
        return write_chrome_trace(self.tracer, path, metrics=self.metrics)

    def export_jsonl(self, path: PathLike) -> int:
        """Write the merged lossless JSONL dump."""
        return write_jsonl(self.tracer, path, metrics=self.metrics)

    def summary(self) -> str:
        """A short human-readable session overview."""
        lo, hi = self.tracer.span_bounds()
        lines = [
            f"obs session {self.label!r}: {len(self.run_rows)} run(s), "
            f"{len(self.tracer.spans)} span(s), "
            f"{len(self.tracer.flows)} flow edge(s), "
            f"makespan {hi - lo:.6f} s",
            "category totals [s]:",
        ]
        for category, seconds in sorted(self.tracer.by_category().items()):
            lines.append(f"  {category:<20s} {seconds:12.6f}")
        lines.append("response-variable rollup [s]:")
        for variable, seconds in sorted(self.tracer.by_response_variable().items()):
            lines.append(f"  {variable:<20s} {seconds:12.6f}")
        metrics = self.metrics.render()
        if metrics:
            lines.append("metrics:")
            lines.append(metrics)
        return "\n".join(lines)

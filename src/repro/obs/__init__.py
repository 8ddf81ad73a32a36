"""Unified observability layer: spans, flow edges, metrics, exporters.

The paper's core methodological claim is that instrumentation belongs
*inside* the middleware (Sections 2.4 and 3.2): hardware counters plus
phase-separating barriers are what make the analytical model
calibratable.  This package is that claim turned into a subsystem:

* :mod:`repro.obs.spans` — hierarchical begin/end **spans** with
  categories, the structured successor of the flat
  :class:`~repro.netsim.trace.Tracer` records, plus causal **flow
  edges** linking every message send to its receive across processes;
* :mod:`repro.obs.metrics` — a registry of counters/gauges/histograms
  fed by the event engine, the Sciddle runtime, the hpm accountants and
  the experiment cache;
* :mod:`repro.obs.export` — Chrome trace-event JSON (open in Perfetto
  or ``about:tracing``; timestamps are *simulated* microseconds) and a
  lossless JSONL span/metric dump;
* :mod:`repro.obs.session` — :class:`ObsSession`, the ``obs=`` hook
  threaded through :func:`repro.opal.parallel.run_parallel_opal`,
  :func:`repro.workloads.campaign.run_workload_design` and
  :func:`repro.experiments.run_campaign`, merging whole factorial
  campaigns into one trace;
* :mod:`repro.obs.report` — the measured-vs-model join: per response
  variable, the category totals against the eq. (2)-(10) prediction
  with residual-drift flags;
* :mod:`repro.obs.store` — the append-only columnar telemetry store
  (``repro-telemetry/1``): campaign cells, residuals, span rollups,
  serve flight records and bench emissions in one queryable place;
* :mod:`repro.obs.query` — predicate/projection/aggregation over store
  datasets, sharing one nearest-rank :func:`~repro.obs.query.percentile`
  with the serve layer;
* :mod:`repro.obs.monitor` — sliding-window SLO verdicts and
  EWMA/CUSUM residual drift detection over store history;
* :mod:`repro.obs.ingest` — adapters feeding legacy telemetry
  (experiment caches, trace JSONL, bench emissions, loadgen reports)
  into the store;
* ``python -m repro.obs`` — summarize / convert / diff trace files,
  plus query / slo / drift / ingest over a telemetry store.

Import structure: :mod:`spans` and :mod:`metrics` are dependency-free
(so :mod:`repro.netsim` can build on them without cycles); everything
else is loaded lazily through this module's ``__getattr__``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import (
    MODEL_CATEGORIES,
    FlowEdge,
    Span,
    SpanTracer,
    response_variable,
)

if TYPE_CHECKING:  # lazy at runtime to keep import order cycle-free
    from .session import ObsSession  # noqa: F401

#: Lazily resolved exports (module, attribute); anything importing the
#: analytical model must not load while ``repro.netsim`` imports spans.
_LAZY: Dict[str, Tuple[str, str]] = {
    "ObsSession": ("repro.obs.session", "ObsSession"),
    "run_label": ("repro.obs.session", "run_label"),
    "write_chrome_trace": ("repro.obs.export", "write_chrome_trace"),
    "write_jsonl": ("repro.obs.export", "write_jsonl"),
    "load_jsonl": ("repro.obs.export", "load_jsonl"),
    "read_chrome_totals": ("repro.obs.export", "read_chrome_totals"),
    "residual_report": ("repro.obs.report", "residual_report"),
    "TelemetryStore": ("repro.obs.store", "TelemetryStore"),
    "run_query": ("repro.obs.query", "run_query"),
    "percentile": ("repro.obs.query", "percentile"),
    "SloBudget": ("repro.obs.monitor", "SloBudget"),
    "evaluate_slo": ("repro.obs.monitor", "evaluate_slo"),
    "residual_drift": ("repro.obs.monitor", "residual_drift"),
    "detect_drift": ("repro.obs.monitor", "detect_drift"),
    "ingest_records": ("repro.obs.ingest", "ingest_records"),
    "ingest_cache_dir": ("repro.obs.ingest", "ingest_cache_dir"),
    "ingest_trace_jsonl": ("repro.obs.ingest", "ingest_trace_jsonl"),
    "ingest_bench_dir": ("repro.obs.ingest", "ingest_bench_dir"),
    "ingest_loadgen_report": ("repro.obs.ingest", "ingest_loadgen_report"),
}

__all__ = [
    "Counter",
    "FlowEdge",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MODEL_CATEGORIES",
    "ObsSession",
    "SloBudget",
    "Span",
    "SpanTracer",
    "TelemetryStore",
    "detect_drift",
    "evaluate_slo",
    "ingest_bench_dir",
    "ingest_cache_dir",
    "ingest_loadgen_report",
    "ingest_records",
    "ingest_trace_jsonl",
    "load_jsonl",
    "percentile",
    "read_chrome_totals",
    "residual_drift",
    "residual_report",
    "response_variable",
    "run_label",
    "run_query",
    "write_chrome_trace",
    "write_jsonl",
]


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)

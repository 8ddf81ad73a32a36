"""Adapters feeding existing telemetry formats into the columnar store.

Each adapter converts one legacy sink — campaign cell records, the
``experiments.cache`` directory, obs JSONL trace exports, bench
emissions, serve loadgen reports — into segments of a
:class:`~repro.obs.store.TelemetryStore`, so history that used to live
in incompatible per-subsystem files becomes one queryable dataset
family (see :data:`~repro.obs.store.KNOWN_DATASETS`).

Determinism contract: every adapter appends rows in an order that is a
pure function of its *input* — design order for campaign records,
sorted filename order for cache directories, span order for traces —
never of execution interleaving.  Since the campaign executor returns
records in design order on its serial and pooled paths alike,
ingesting either run produces bit-identical stores (the property the
round-trip tests pin via :meth:`TelemetryStore.content_digest`).

Drift batching: each :func:`ingest_records` call stamps its rows with a
``batch`` index (the count of prior ``residuals`` segments), so one
ingest == one point on the drift monitor's time axis.  A perturbed
calibration shifts an entire batch at once — exactly the step change
EWMA/CUSUM are tuned for.
"""

from __future__ import annotations

import math
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Union

from ..core.model import OpalPerformanceModel, terms_breakdown
from ..errors import TelemetryError
from .report import RESPONSE_VARIABLES, Residual
from .store import TelemetryStore

PathLike = Union[str, pathlib.Path]


def _nan(value: Optional[float]) -> float:
    """None -> NaN (columns are typed; NaN is the missing-float cell)."""
    return float("nan") if value is None else float(value)


# ----------------------------------------------------------------------
# campaign cells and residuals
# ----------------------------------------------------------------------
def ingest_records(
    store: TelemetryStore,
    records: Sequence[Any],
    params: Optional[Any] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """Campaign cell records -> ``cells`` (+ ``residuals`` with a model).

    ``records`` are :class:`~repro.workloads.campaign.WorkloadRecord`
    objects of any family, in design order.  Opal cells fill the
    paper's factor columns (``molecule``, ``cutoff``,
    ``update_interval``, ``steps``); other families put their spec
    label in ``molecule``, the missing values in the Opal-only factors
    (NaN cutoff, zero update interval) and their program's step count
    in ``steps`` — so every campaign shares one store and the
    query/SLO/drift layers work unchanged.

    With ``params`` (the campaign's fitted
    :class:`~repro.core.parameters.ModelPlatformParams`) the
    measured-vs-model join also lands in ``residuals``, one row per
    (cell, response variable), stamped with this ingest's batch index:
    Opal cells against the classic model of equations (2)-(10) (the
    units :func:`~repro.core.calibration.calibrate` fits), the others
    against their family's closed-form terms
    (:func:`~repro.core.calibration.calibrate_terms`).  Returns the new
    segment ids.
    """
    if not records:
        raise TelemetryError("nothing to ingest: empty record sequence")
    batch = len(store.segments("residuals"))
    cells: Dict[str, List[Any]] = {
        name: []
        for name in (
            "run", "family", "molecule", "servers", "cutoff",
            "update_interval", "steps", "wall_mean", "wall_std", "reps",
            "total_s", "batch", *RESPONSE_VARIABLES,
        )
    }
    residuals: Dict[str, List[Any]] = {
        name: []
        for name in (
            "run", "family", "variable", "measured", "predicted",
            "residual", "relative", "batch",
        )
    }
    for record in records:
        cell = record.cell
        family = cell.family
        app = cell.app
        if app is not None:
            molecule, cutoff = app.molecule.name, _nan(app.cutoff)
            update_interval, steps = app.update_interval, app.steps
        else:
            molecule, cutoff, update_interval = (
                family.spec_label(cell.spec), float("nan"), 0
            )
            steps = len(family.compile(cell.spec, cell.servers))
        cells["run"].append(cell.label)
        cells["family"].append(cell.spec.family)
        cells["molecule"].append(molecule)
        cells["servers"].append(int(cell.servers))
        cells["cutoff"].append(cutoff)
        cells["update_interval"].append(int(update_interval))
        cells["steps"].append(int(steps))
        cells["wall_mean"].append(float(record.wall_stats.mean))
        cells["wall_std"].append(float(record.wall_stats.std))
        cells["reps"].append(len(record.wall_stats.values))
        cells["total_s"].append(float(record.breakdown.total))
        cells["batch"].append(batch)
        for variable in RESPONSE_VARIABLES:
            cells[variable].append(float(getattr(record.breakdown, variable)))
        if params is None:
            continue
        if app is not None:
            predicted = OpalPerformanceModel(params).breakdown(app)
        else:
            predicted = terms_breakdown(
                params, family.terms(cell.spec, cell.servers)
            )
        for variable in RESPONSE_VARIABLES:
            res = Residual(
                run=cell.label,
                variable=variable,
                measured=getattr(record.breakdown, variable),
                predicted=getattr(predicted, variable),
            )
            residuals["run"].append(res.run)
            residuals["family"].append(cell.spec.family)
            residuals["variable"].append(variable)
            residuals["measured"].append(res.measured)
            residuals["predicted"].append(res.predicted)
            residuals["residual"].append(res.residual)
            residuals["relative"].append(res.relative)
            residuals["batch"].append(batch)
    segments = [store.append("cells", cells, meta=meta)]
    if params is not None:
        segments.append(store.append("residuals", residuals, meta=meta))
    return segments


def ingest_cache_dir(
    store: TelemetryStore,
    cache_dir: PathLike,
    params: Optional[Any] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """An ``experiments.cache`` directory -> ``cells`` (+ ``residuals``).

    Entries load in sorted filename order (content addresses), so two
    ingests of the same cache are bit-identical regardless of the order
    the campaign populated it.  Entries that are not cell records (probe
    stats, calibrations) are skipped — they carry no breakdown to ingest.
    """
    import json

    from ..workloads.campaign import workload_record_from_dict

    root = pathlib.Path(cache_dir)
    records = []
    for path in sorted(root.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(payload, dict) and "workload_cell" in payload:
            records.append(workload_record_from_dict(payload))
    if not records:
        raise TelemetryError(f"no cell records found under {root}")
    ingest_meta = {"source": str(root), **(meta or {})}
    return ingest_records(store, records, params=params, meta=ingest_meta)


# ----------------------------------------------------------------------
# span rollups
# ----------------------------------------------------------------------
def ingest_trace_jsonl(
    store: TelemetryStore,
    path: PathLike,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """An obs JSONL export -> per-(run, proc, category) span rollups.

    Raw spans would dwarf every other dataset; the query layer needs the
    same reduction :meth:`SpanTracer.by_category` performs, so spans
    land pre-aggregated: total seconds and span count per key, sorted.
    """
    from .export import load_jsonl

    tracer, _metrics = load_jsonl(path)
    totals: Dict[tuple, List[float]] = {}
    for span in tracer.spans:
        key = (span.run, span.proc, span.category)
        bucket = totals.setdefault(key, [0.0, 0.0])
        bucket[0] += span.duration
        bucket[1] += 1.0
    if not totals:
        raise TelemetryError(f"no spans in {path}")
    columns: Dict[str, List[Any]] = {
        "run": [], "proc": [], "category": [], "total_s": [], "count": [],
    }
    for (run, proc, category), (total_s, count) in sorted(totals.items()):
        columns["run"].append(run)
        columns["proc"].append(proc)
        columns["category"].append(category)
        columns["total_s"].append(total_s)
        columns["count"].append(int(count))
    ingest_meta = {"source": str(path), **(meta or {})}
    return store.append("spans", columns, meta=ingest_meta)


# ----------------------------------------------------------------------
# bench emissions
# ----------------------------------------------------------------------
def ingest_bench_payload(
    store: TelemetryStore,
    payload: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """One ``repro-bench/1`` payload (already loaded) -> ``bench`` rows."""
    if payload.get("schema") != "repro-bench/1":
        raise TelemetryError(
            f"not a bench payload: schema tag {payload.get('schema')!r}"
        )
    records = payload.get("records") or []
    if not records:
        raise TelemetryError("bench payload has no records")
    columns: Dict[str, List[Any]] = {
        "experiment": [], "name": [], "metric": [], "value": [], "units": [],
    }
    for row in records:
        columns["experiment"].append(str(payload["experiment"]))
        columns["name"].append(str(row["name"]))
        columns["metric"].append(str(row["metric"]))
        columns["value"].append(float(row["value"]))
        columns["units"].append(str(row["units"]))
    ingest_meta = {"experiment": str(payload["experiment"]), **(meta or {})}
    return store.append("bench", columns, meta=ingest_meta)


def ingest_bench_dir(
    store: TelemetryStore,
    out_dir: PathLike,
    meta: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """Every ``benchmarks/out/*.json`` emission -> ``bench`` segments.

    Files ingest in sorted name order; non-bench JSON (foreign schema,
    torn writes) is skipped rather than fatal so one stale artifact
    cannot block ingesting a whole directory.
    """
    import json

    root = pathlib.Path(out_dir)
    segments: List[str] = []
    for path in sorted(root.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict) or payload.get("schema") != "repro-bench/1":
            continue
        file_meta = {"source": str(path), **(meta or {})}
        segments.append(ingest_bench_payload(store, payload, meta=file_meta))
    if not segments:
        raise TelemetryError(f"no bench emissions found under {root}")
    return segments


# ----------------------------------------------------------------------
# store-to-store merge (fleet telemetry consolidation)
# ----------------------------------------------------------------------
def merge_stores(
    destination: TelemetryStore,
    sources: Sequence[PathLike],
    datasets: Optional[Sequence[str]] = None,
    meta: Optional[Dict[str, Any]] = None,
    allow_missing: bool = False,
) -> List[str]:
    """Fold several telemetry stores into one (the fleet SLO join).

    Every fleet member — the router and each worker incarnation —
    writes its own store directory; the SLO gate wants one scan.  Each
    source's segments append to ``destination`` in manifest order,
    sources in the order given, so the merge is a pure function of the
    source list.  ``datasets`` restricts which datasets copy (default:
    all).  Segment meta is preserved and stamped with its origin store.
    Returns the new segment ids.

    ``allow_missing`` skips sources with no manifest instead of
    failing — a chaos-killed worker legitimately dies before its first
    flush, and the merge must still gather what the survivors wrote.
    """
    segments: List[str] = []
    for source_path in sources:
        root = pathlib.Path(source_path)
        if not (root / "manifest.json").exists():
            if allow_missing:
                continue
            raise TelemetryError(f"no telemetry store at {root}")
        source = TelemetryStore(root)
        for entry in source.segments():
            if datasets is not None and entry["dataset"] not in datasets:
                continue
            columns = source.read_segment(entry["id"])
            entry_meta = {
                **(entry.get("meta") or {}),
                "merged_from": str(root),
                **(meta or {}),
            }
            segments.append(
                destination.append(entry["dataset"], columns, meta=entry_meta)
            )
    if not segments:
        raise TelemetryError(
            "nothing to merge: no segments matched "
            f"datasets={list(datasets) if datasets is not None else 'all'}"
        )
    return segments


# ----------------------------------------------------------------------
# serve loadgen
# ----------------------------------------------------------------------
def ingest_loadgen_report(
    store: TelemetryStore,
    report: Any,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """A :class:`~repro.serve.loadgen.LoadgenReport` -> ``loadgen`` rows.

    One row per response, sheds included (client-side wall latency in
    completion order; ``request`` is that position, not the request
    id); the outcome tallies ride along in the segment meta, mirroring
    ``LoadgenReport.summary()``.
    """
    latencies = [float(v) for v in report.latencies]
    if not latencies:
        raise TelemetryError("loadgen report has no recorded latencies")
    if any(not math.isfinite(v) for v in latencies):
        raise TelemetryError("loadgen report carries non-finite latencies")
    columns = {
        "request": list(range(len(latencies))),
        "latency_s": latencies,
    }
    ingest_meta = {**report.summary(), **(meta or {})}
    return store.append("loadgen", columns, meta=ingest_meta)

"""The campaign executor: design cells in, measured records out.

The one code path that addresses, seeds, measures, caches and fans out
a design cell, for every workload family — the paper's Opal study
(:func:`repro.experiments.run_campaign`), its figures and calibration
fits included.  A design is a sequence of :class:`WorkloadCell`;
:func:`run_workload_design` measures it serially or over a process pool
and :func:`run_workload_campaign` adds the family-generic study on top:
the cross product of a family's ``campaign_specs`` with a server-count
axis, fitted by :func:`~repro.core.calibration.calibrate_terms` and
predicted for candidate platforms from their technical key data.

Determinism contract: each cell's seeds derive from its content
(:meth:`WorkloadFamily.cell_key_data` hashed with the family's
``seed_salt``), never from its position, so jitter noise is independent
across cells and identical in any design order, on any worker.  Cache
keys are content addresses over the same data plus the platform and
the measurement protocol.  The pooled runner probes the cache before
submitting (hits never occupy a worker), stores in completion order and
reassembles in design order — serial and pooled runs are bit-identical,
observability included, and a warm cache executes zero simulations.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.breakdown import TimeBreakdown
from ..core.calibration import CalibrationResult, calibrate_terms
from ..core.model import terms_breakdown, terms_totals
from ..core.parameters import ApplicationParams
from ..core.prediction import PredictionSeries
from ..errors import DesignError, WorkloadError
from ..experiments.cache import (
    CacheStats,
    PathLike,
    ResultCache,
    platform_key_data,
    stats_from_dict,
    stats_to_dict,
)
from ..experiments.measurement import MeasurementStats, summarize
from ..obs.session import run_label
from .base import WorkloadFamily, get_family
from .spec import WorkloadSpec

#: Default multiplicative timing noise of simulated measurements — the
#: "low variability" the paper confirms on the dedicated J90.
DEFAULT_JITTER = 0.004

_SEED_BITS = 63


def default_workers() -> int:
    """Worker count when none is requested: one per available CPU."""
    return max(os.cpu_count() or 1, 1)


def derive_cell_seed(base_seed: int, cell, rep: int, salt: str = "cell") -> int:
    """Deterministic per-(cell, repetition) seed.

    Hashes the cell's *content* (``cell.key_data()``), not its position
    in the design, so the same cell gets the same seed in any design
    order, in serial and parallel execution alike, while distinct cells
    get independent seeds.
    """
    material = json.dumps(
        {"base": base_seed, "case": cell.key_data(), "rep": rep, "salt": salt},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> (64 - _SEED_BITS)


@dataclass(frozen=True)
class WorkloadCell:
    """One (spec, servers) design cell; pickle-able and cache-addressable."""

    spec: WorkloadSpec
    servers: int

    @property
    def family(self) -> WorkloadFamily:
        """The registered family this cell's spec belongs to."""
        return get_family(self.spec.family)

    def key_data(self) -> dict:
        """Content that determines this cell's simulated results.

        Hashed into the cell's seeds and the cell portion of its cache
        key (see :meth:`WorkloadFamily.cell_key_data`).
        """
        return self.family.cell_key_data(self.spec, self.servers)

    @property
    def app(self) -> Optional[ApplicationParams]:
        """The classic model's parameters for this cell (Opal), else None."""
        return self.family.app(self.spec, self.servers)

    @property
    def label(self) -> str:
        """Compact ``family:spec/p=N`` label for tables and telemetry."""
        return (
            f"{self.spec.family}:{self.family.spec_label(self.spec)}"
            f"/p={self.servers}"
        )


@dataclass
class WorkloadRecord:
    """One workload cell with its measured outcome."""

    cell: WorkloadCell
    breakdown: TimeBreakdown
    wall_stats: MeasurementStats

    def observation(self) -> Tuple[Optional[ApplicationParams], TimeBreakdown]:
        """The (app, breakdown) pair the classic calibration consumes."""
        return (self.cell.app, self.breakdown)


#: Called after each finished cell: ``progress(done, total, record)``.
#: In pooled runs cells complete out of order; ``done`` is the running
#: completion count, not the cell's design index.
ProgressCallback = Callable[[int, int, WorkloadRecord], None]


def workload_record_to_dict(record: WorkloadRecord) -> dict:
    """The JSON-able cache (and JSONL export) form of one record."""
    return {
        "workload_cell": {
            "family": record.cell.spec.family,
            "spec": record.cell.spec.params_dict(),
            "servers": record.cell.servers,
        },
        "breakdown": record.breakdown.as_dict(),
        "wall_stats": stats_to_dict(record.wall_stats),
    }


def workload_record_from_dict(d: dict) -> WorkloadRecord:
    """Rebuild a record from its cache form (inverse of ``to_dict``)."""
    cell_data = d["workload_cell"]
    family = get_family(cell_data["family"])
    cell = WorkloadCell(
        spec=family.spec_from_params(cell_data["spec"]),
        servers=int(cell_data["servers"]),
    )
    return WorkloadRecord(
        cell=cell,
        breakdown=TimeBreakdown(**d["breakdown"]),
        wall_stats=stats_from_dict(d["wall_stats"]),
    )


def export_jsonl(records: Sequence[WorkloadRecord], path: PathLike) -> int:
    """Write records as JSON lines; returns the line count."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(workload_record_to_dict(record), sort_keys=True))
            fh.write("\n")
    return len(records)


def load_jsonl(path: PathLike) -> List[WorkloadRecord]:
    """Load records written by :func:`export_jsonl`."""
    with open(path) as fh:
        return [
            workload_record_from_dict(json.loads(line))
            for line in fh
            if line.strip()
        ]


def workload_cell_key_payload(
    cell: WorkloadCell,
    platform,
    jitter_sigma: float,
    seed: int,
    repetitions: int,
    faults=None,
) -> dict:
    """Canonical cache-key payload for one workload cell.

    The serial and pooled runners must produce identical keys, or warm
    runs would re-simulate; a chaos spec joins the key only when
    present, so fault-free keys stay exactly as they were.
    """
    payload = {
        "kind": "workload-cell",
        "cell": cell.key_data(),
        "platform": platform_key_data(platform),
        "sync_mode": "accounted",
        "jitter_sigma": jitter_sigma,
        "seed": seed,
        "repetitions": repetitions,
    }
    if faults is not None:
        payload["chaos"] = faults.as_dict()
    return payload


def _measure_walls(
    platform,
    cell: WorkloadCell,
    jitter_sigma: float,
    repetitions: int,
    base_seed: int,
    faults=None,
    obs=None,
    probe: bool = False,
) -> Tuple[List[float], List[TimeBreakdown]]:
    """Simulate ``repetitions`` runs of one cell; walls and breakdowns.

    Probe runs seed with the salt ``"probe"`` and label as ``probe:...``.
    Only cells with a dedicated DES program (Opal) record a trace.
    """
    family = cell.family
    salt = "probe" if probe else family.seed_salt
    app = cell.app
    walls: List[float] = []
    breakdowns: List[TimeBreakdown] = []
    for rep in range(repetitions):
        seed = derive_cell_seed(base_seed, cell, rep, salt=salt)
        label = None
        if obs is not None and app is not None:
            label = ("probe:" if probe else "") + run_label(
                platform.name, app, seed, rep=rep
            )
        result = family.simulate(
            cell.spec,
            cell.servers,
            platform,
            seed=seed,
            jitter_sigma=jitter_sigma,
            faults=faults,
            obs=obs,
            run_label=label,
        )
        walls.append(result.wall_time)
        breakdowns.append(result.breakdown)
    return walls, breakdowns


def measure_workload_cell(
    platform,
    cell: WorkloadCell,
    jitter_sigma: float = DEFAULT_JITTER,
    repetitions: int = 1,
    base_seed: int = 0,
    faults=None,
    obs=None,
) -> WorkloadRecord:
    """Measure one cell (module-level: serial runner == pool worker).

    ``faults=`` (a :class:`~repro.netsim.FaultSpec`) runs the cell under
    chaos with the resilient middleware.  With ``obs=`` every simulated
    run lands in that :class:`~repro.obs.ObsSession` under a
    per-repetition run label.
    """
    walls, breakdowns = _measure_walls(
        platform, cell, jitter_sigma, repetitions, base_seed,
        faults=faults, obs=obs,
    )
    return WorkloadRecord(
        cell=cell,
        breakdown=TimeBreakdown.mean(breakdowns),
        wall_stats=summarize(walls),
    )


def measure_probe(
    platform,
    cell: WorkloadCell,
    repetitions: int,
    jitter_sigma: float = DEFAULT_JITTER,
    base_seed: int = 0,
    cache: Optional[ResultCache] = None,
    obs=None,
) -> Tuple[MeasurementStats, int]:
    """The Section 2.3 reproducibility check: one cell, repeated.

    Returns ``(stats, simulated_runs)``.  The probe is one cacheable
    unit whose repetitions use the salt ``"probe"`` (independent of the
    design measurements of the same cell), and it always runs unfaulted:
    it certifies the measurement protocol on the dedicated system, which
    is a precondition of, not part of, a chaos experiment.
    """
    key = None
    if cache is not None:
        payload = workload_cell_key_payload(
            cell, platform, jitter_sigma, base_seed, repetitions
        )
        key = ResultCache.key_for({**payload, "kind": "probe"})
        cached = cache.load(key)
        if cached is not None:
            return stats_from_dict(cached), 0
    walls, _ = _measure_walls(
        platform, cell, jitter_sigma, repetitions, base_seed,
        obs=obs, probe=True,
    )
    stats = summarize(walls)
    if key is not None:
        cache.store(key, stats_to_dict(stats))
    return stats, repetitions


@dataclass(frozen=True)
class WorkloadCellJob:
    """One workload cell as a pickle-able pool work unit."""

    index: int
    cell: WorkloadCell
    platform: object
    jitter_sigma: float
    repetitions: int
    base_seed: int
    faults: object = None
    #: capture observability in the worker and ship it back as a payload
    capture: bool = False


def run_workload_cell(job: WorkloadCellJob):
    """Pool worker entry point (module-level so it pickles).

    Returns ``(index, record, obs_payload)``; the payload is None unless
    ``job.capture`` — the worker holds a local session and serializes it
    for the parent to absorb, so a pooled run still exports one trace.
    """
    obs = None
    if job.capture:
        from ..obs.session import ObsSession

        obs = ObsSession(label=f"cell{job.index}")
    record = measure_workload_cell(
        job.platform,
        job.cell,
        jitter_sigma=job.jitter_sigma,
        repetitions=job.repetitions,
        base_seed=job.base_seed,
        faults=job.faults,
        obs=obs,
    )
    return job.index, record, None if obs is None else obs.to_payload()


def run_workload_design(
    cells: Sequence[WorkloadCell],
    platform,
    jitter_sigma: float = DEFAULT_JITTER,
    repetitions: int = 1,
    base_seed: int = 0,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    faults=None,
    progress: Optional[ProgressCallback] = None,
    obs=None,
) -> Tuple[List[WorkloadRecord], int]:
    """Measure every cell, serially or over a process pool.

    Returns ``(records, simulated_cells)`` with records in design
    order.  The cache is probed before any pool submission (hits never
    occupy a worker), stores happen in completion order, records
    reassemble in design order — serial ≡ pooled bit-identical.
    ``progress(done, total, record)`` fires for every cell, hits
    included.  With ``obs=`` every simulated run is captured; pool
    workers' payloads merge in design order, so serial and pooled
    sessions list identical runs (cache hits skip the simulation and
    therefore contribute no spans).
    """
    if not cells:
        raise DesignError("empty workload design")
    if workers is not None and workers < 1:
        raise DesignError("workers must be >= 1")
    if repetitions < 1:
        raise DesignError("repetitions must be >= 1")
    total = len(cells)
    records: List[Optional[WorkloadRecord]] = [None] * total
    done = 0

    def finish(i: int, record: WorkloadRecord, key: Optional[str]) -> None:
        nonlocal done
        records[i] = record
        if cache is not None and key is not None:
            cache.store(key, workload_record_to_dict(record))
        done += 1
        if progress is not None:
            progress(done, total, record)

    pending: List[Tuple[int, Optional[str]]] = []
    for i, cell in enumerate(cells):
        key = None
        if cache is not None:
            key = ResultCache.key_for(
                workload_cell_key_payload(
                    cell, platform, jitter_sigma, base_seed, repetitions,
                    faults=faults,
                )
            )
            cached = cache.load(key)
            if cached is not None:
                finish(i, workload_record_from_dict(cached), None)
                continue
        pending.append((i, key))

    if pending and (workers is None or workers == 1):
        for i, key in pending:
            record = measure_workload_cell(
                platform,
                cells[i],
                jitter_sigma=jitter_sigma,
                repetitions=repetitions,
                base_seed=base_seed,
                faults=faults,
                obs=obs,
            )
            finish(i, record, key)
    elif pending:
        n_workers = min(workers or default_workers(), len(pending))
        payloads: List[Tuple[int, dict]] = []
        with ProcessPoolExecutor(max_workers=n_workers) as executor:
            futures = {}
            for i, key in pending:
                job = WorkloadCellJob(
                    index=i,
                    cell=cells[i],
                    platform=platform,
                    jitter_sigma=jitter_sigma,
                    repetitions=repetitions,
                    base_seed=base_seed,
                    faults=faults,
                    capture=obs is not None,
                )
                futures[executor.submit(run_workload_cell, job)] = key
            for future in as_completed(futures):
                index, record, payload = future.result()
                if payload is not None:
                    payloads.append((index, payload))
                finish(index, record, futures[future])
        for _index, payload in sorted(payloads, key=lambda item: item[0]):
            obs.absorb_payload(payload)
    if obs is not None:
        for record in records:
            obs.observe_cell(record.wall_stats.mean)  # type: ignore[union-attr]
        obs.absorb_cache_stats(cache.stats if cache is not None else None)
    return records, len(pending)  # type: ignore[return-value]


# ----------------------------------------------------------------------
@dataclass
class WorkloadCampaignReport:
    """Everything one family campaign produced."""

    family: str
    reference_platform: str
    calibration: CalibrationResult
    #: design-order (cell label, measured total, predicted total)
    rows: List[Tuple[str, float, float]] = field(default_factory=list)
    #: candidate platform -> spec label -> predicted series
    predictions: Dict[str, Dict[str, PredictionSeries]] = field(
        default_factory=dict
    )
    simulations_run: int = 0
    cache_stats: Optional[CacheStats] = None


def run_workload_campaign(
    family_name: str,
    platform,
    base_spec: Optional[WorkloadSpec] = None,
    servers: Sequence[int] = (1, 2, 4),
    candidates: Sequence[object] = (),
    seed: int = 0,
    jitter_sigma: float = DEFAULT_JITTER,
    repetitions: int = 1,
    workers: Optional[int] = None,
    cache_dir=None,
    faults=None,
    store_dir=None,
    progress=None,
) -> WorkloadCampaignReport:
    """Measure -> calibrate -> predict for one workload family.

    ``platform`` is the reference :class:`PlatformSpec` the factorial
    design measures on; ``candidates`` are further specs predicted from
    their key data with the fitted compute/communication coefficients.
    With ``store_dir`` the records and residuals land in a telemetry
    store under the family's name.
    """
    family: WorkloadFamily = get_family(family_name)
    if store_dir is not None and family.name == "opal":
        raise WorkloadError(
            "opal campaign telemetry comes from the paper study's classic "
            "fit: use repro.experiments.run_campaign(store_dir=...)"
        )
    specs = family.campaign_specs(base_spec)
    cells = [WorkloadCell(spec, p) for spec in specs for p in servers]
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    records, simulated = run_workload_design(
        cells,
        platform,
        jitter_sigma=jitter_sigma,
        repetitions=repetitions,
        base_seed=seed,
        workers=workers,
        cache=cache,
        faults=faults,
        progress=progress,
    )
    observations = [
        (family.terms(r.cell.spec, r.cell.servers), r.breakdown)
        for r in records
    ]
    calibration = calibrate_terms(
        observations, name=f"{platform.name}-{family_name}-fit"
    )

    rows = [
        (r.cell.label, r.breakdown.total, terms_breakdown(
            calibration.params, family.terms(r.cell.spec, r.cell.servers)
        ).total)
        for r in records
    ]

    server_axis = tuple(sorted(set(int(p) for p in servers)))
    predictions: Dict[str, Dict[str, PredictionSeries]] = {}
    for candidate in (platform, *candidates):
        params = (
            calibration.params
            if candidate is platform
            else family.key_data_params(candidate)
        )
        predictions[candidate.name] = {
            family.spec_label(spec): PredictionSeries.from_times(
                candidate.name,
                server_axis,
                terms_totals(params, family.lower(spec, server_axis)).tolist(),
            )
            for spec in specs
        }

    if store_dir is not None:
        from ..obs.ingest import ingest_records
        from ..obs.store import TelemetryStore

        ingest_records(
            TelemetryStore(store_dir),
            records,
            params=calibration.params,
            meta={"family": family_name, "platform": platform.name},
        )

    return WorkloadCampaignReport(
        family=family_name,
        reference_platform=platform.name,
        calibration=calibration,
        rows=rows,
        predictions=predictions,
        simulations_run=simulated * repetitions,
        cache_stats=cache.stats if cache is not None else None,
    )


def render_workload_campaign(report: WorkloadCampaignReport) -> str:
    """The campaign as the study a human would read (deterministic)."""
    lines: List[str] = []
    lines.append(
        f"=== workload campaign: {report.family} on "
        f"{report.reference_platform} ==="
    )
    line = f"simulations executed: {report.simulations_run}"
    if report.cache_stats is not None:
        line += f" (cache: {report.cache_stats})"
    lines.append(line)
    lines.append(
        "calibration fit: "
        + ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(report.calibration.r2.items())
        )
    )
    lines.append(
        f"mean relative error: {report.calibration.mean_relative_error():.2%}"
    )
    lines.append("")
    lines.append("cell                                   measured    predicted")
    for label, measured, predicted in report.rows:
        lines.append(f"{label:<38} {measured:>9.4f}s  {predicted:>9.4f}s")
    for platform_name, per_spec in report.predictions.items():
        lines.append("")
        lines.append(f"predicted on {platform_name}:")
        for spec_label, series in per_spec.items():
            times = ", ".join(f"{t:.4f}" for t in series.times)
            lines.append(
                f"  {spec_label:<30} p={list(series.servers)} -> [{times}] "
                f"(best {series.best_time:.4f}s at p={series.saturation})"
            )
    return "\n".join(lines)

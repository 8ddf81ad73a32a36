"""The prediction service: admit → queue → batch → compute → reply.

:class:`PredictionService` is the transport-independent core.  One
request enters as a decoded JSON envelope via :meth:`submit` and leaves
as a response envelope; between the two it passes admission control
(:mod:`repro.serve.admission`), a bounded queue, the micro-batcher
(:mod:`repro.serve.batcher`) and a vectorized model evaluation that is
off-loaded to a single worker thread so the event loop keeps accepting
requests while the model computes.

Batching exploits the model's structure: all requests in a batch that
share a compute cell (platform, calibration, and the Opal molecule,
cutoff, update and steps or the family spec) reuse one calibration
resolve, and identical (kind, cell, servers) jobs are evaluated once.
Each job is evaluated by exactly the code path of an unbatched request,
so responses are bit-identical whether a query was served alone or in
a batch of 64.  A sweep is lowered once, not once per server count:
the v1 model evaluates equations (3)-(10) over the whole server vector
(:meth:`~repro.core.model.OpalPerformanceModel.execution_times`), and a
family sweep lowers the query's already validated spec to term columns
(``WorkloadFamily.lower``) that
:func:`~repro.core.model.terms_totals` turns into times in one pass.

The flight ring (:class:`~repro.serve.flight.FlightRecorder`) is the
service's one record: every admitted or shed predict/sweep request
leaves exactly one row with its admit/queue/compute/reply stage times,
reply latency, queue depth, batch size and status, even when its caller
stopped waiting.  Counts that are not per request live where they are
decided: sheds in :attr:`AdmissionController.stats`, batches in
:attr:`MicroBatcher.batches`/``items``.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.breakdown import TimeBreakdown
from ..core.model import OpalPerformanceModel, terms_breakdown, terms_totals
from ..core.parameters import ApplicationParams, ModelPlatformParams
from ..core.prediction import PredictionSeries, predict_series
from ..errors import ServeError
from ..obs.query import latency_quantiles
from ..opal.complexes import get_complex
from ..platforms import PLATFORMS, get_platform
from ..workloads import get_family
from . import api
from .admission import AdmissionController
from .batcher import MicroBatcher
from .calibstore import SOURCE_KEY_DATA, CalibrationStore
from .flight import FlightRecorder, status_code

@dataclass(frozen=True)
class ServeConfig:
    """Tunable knobs of one service instance.

    ``max_batch`` caps a batch; the batcher never waits to fill one
    (see :mod:`repro.serve.batcher`).  ``max_batch=1`` turns the service
    into a sequential server through the identical pipeline (the
    throughput benchmark's baseline).
    ``refresh`` is the calibration policy passed to
    :meth:`~repro.serve.calibstore.CalibrationStore.resolve`.
    """

    max_batch: int = 64
    max_queue_depth: int = 1024
    rate: float = 200.0
    burst: int = 50
    refresh: str = "background"


def _build_app(query: api.Query, servers: int) -> ApplicationParams:
    """The ApplicationParams for one concrete (query, server count)."""
    return ApplicationParams(
        molecule=get_complex(query.molecule),
        steps=query.steps,
        servers=servers,
        update_interval=query.update_interval,
        cutoff=query.cutoff,
    )


def _workload_fields(query: api.Query) -> Dict[str, Any]:
    """What a response says about the workload: the molecule, or the spec."""
    if query.family == "opal":
        return {"molecule": query.molecule}
    assert query.spec is not None  # family queries always carry one
    return {"family": query.family, "spec": query.spec.params_dict()}


def _point_result(
    query: api.Query, servers: int, breakdown: TimeBreakdown, t1: float,
    source: str,
) -> Dict[str, Any]:
    """The ``predict`` result of both point evaluators."""
    total = breakdown.total
    return {
        "kind": "predict",
        "platform": query.platform,
        **_workload_fields(query),
        "servers": servers,
        "time": total,
        "speedup": t1 / total,
        "breakdown": breakdown.as_dict(),
        "calibration": source,
    }


def _sweep_servers(query: api.Query) -> Tuple[int, ...]:
    """A sweep query's server vector."""
    if isinstance(query.servers, tuple):
        return query.servers
    return (int(query.servers),)


def _sweep_result(
    query: api.Query, series: PredictionSeries, source: str
) -> Dict[str, Any]:
    """The ``sweep`` result of both sweep evaluators."""
    return {
        "kind": "sweep",
        "platform": query.platform,
        **_workload_fields(query),
        "servers": list(series.servers),
        "times": list(series.times),
        "speedups": list(series.speedups),
        "best_time": series.best_time,
        "saturation": series.saturation,
        "calibration": source,
    }


def _evaluate_point(
    params: ModelPlatformParams, query: api.Query, source: str
) -> Dict[str, Any]:
    """One point prediction — the single code path both modes share.

    Every response value is produced here with a fixed operation
    order, so a point's numbers cannot depend on which batch (if any)
    it rode in.
    """
    model = OpalPerformanceModel(params)
    servers = int(query.servers)  # point queries carry a single count
    breakdown = model.breakdown(_build_app(query, servers))
    t1 = model.breakdown(_build_app(query, 1)).total
    return _point_result(query, servers, breakdown, t1, source)


def _evaluate_sweep(
    params: ModelPlatformParams, query: api.Query, source: str
) -> Dict[str, Any]:
    """One sweep prediction: equations (3)-(10) over the server vector."""
    servers = _sweep_servers(query)
    series = predict_series(params, _build_app(query, servers[0]), servers)
    return _sweep_result(query, series, source)


def _evaluate_family_point(
    params: ModelPlatformParams, query: api.Query, source: str
) -> Dict[str, Any]:
    """One non-opal point prediction (pure, batch-size independent)."""
    servers = int(query.servers)
    columns = get_family(query.family).lower(query.spec, (servers, 1))
    breakdown = terms_breakdown(params, columns.terms_at(0))
    t1 = terms_breakdown(params, columns.terms_at(1)).total
    return _point_result(query, servers, breakdown, t1, source)


def _evaluate_family_sweep(
    params: ModelPlatformParams, query: api.Query, source: str
) -> Dict[str, Any]:
    """One non-opal sweep: the spec lowered once over the server vector."""
    servers = _sweep_servers(query)
    columns = get_family(query.family).lower(query.spec, servers)
    series = PredictionSeries.from_times(
        query.platform, servers, terms_totals(params, columns).tolist()
    )
    return _sweep_result(query, series, source)


def platform_catalog() -> Dict[str, Any]:
    """The ``kind="platforms"`` catalog (also answered router-side)."""
    return {
        "kind": "platforms",
        "platforms": [
            {
                "name": name,
                "cost_kusd": PLATFORMS[name].approx_cost_kusd,
            }
            for name in sorted(PLATFORMS)
        ],
    }


#: One compute job: (kind, query, fitted params, calibration source).
_Job = Tuple[str, api.Query, ModelPlatformParams, str]


def _evaluate_jobs(jobs: List[_Job]) -> List[Dict[str, Any]]:
    """Evaluate a batch of jobs (pure; runs on the worker thread).

    Identical point jobs are evaluated once and shared: within one
    batch, a (compute cell, server count) pair maps to exactly one
    parameter set, and :func:`_evaluate_point` is a pure function of
    it, so reuse returns the same bytes the duplicate evaluation would
    have.  This is where batched serving wins its throughput: a batch
    of coalesced single-point queries collapses to its distinct cells,
    while the sequential mode (batch size 1) pays full price per
    request — and both still emit bit-identical responses.
    """
    results = []
    cache: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    for kind, query, params, source in jobs:
        cache_key = (kind, query.compute_key, source, query.servers)
        hit = cache.get(cache_key)
        if hit is None:
            if query.family != "opal":
                evaluate = (
                    _evaluate_family_sweep
                    if kind == "sweep"
                    else _evaluate_family_point
                )
            else:
                evaluate = _evaluate_sweep if kind == "sweep" else _evaluate_point
            hit = cache[cache_key] = evaluate(params, query, source)
        results.append(hit)
    return results


class _Pending:
    """One admitted request waiting in the pipeline."""

    __slots__ = (
        "request", "future", "enqueued", "expires",
        "depth", "admit_end", "t_batch", "t_compute", "t_done", "batch_size",
    )

    def __init__(
        self,
        request: api.Request,
        future: "asyncio.Future[Dict[str, Any]]",
        enqueued: float,
        expires: Optional[float],
        depth: int = 0,
        admit_end: float = 0.0,
    ) -> None:
        self.request = request
        self.future = future
        self.enqueued = enqueued
        self.expires = expires
        #: queue depth observed at admission (flight-recorder column)
        self.depth = depth
        #: per-stage timestamps, filled in as the request advances
        self.admit_end = admit_end
        self.t_batch = enqueued
        self.t_compute = enqueued
        self.t_done = enqueued
        self.batch_size = 0


class PredictionService:
    """Transport-independent prediction-as-a-service core."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        calibrations: Optional[CalibrationStore] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.calibrations = calibrations or CalibrationStore()
        #: the per-request record: every admitted request leaves a row
        self.flight = flight or FlightRecorder()
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            rate=self.config.rate,
            burst=self.config.burst,
        )
        self.batcher = MicroBatcher(self._dispatch, max_batch=self.config.max_batch)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started = False
        #: once stop() begins, new submissions shed with ``shed:drain``
        self._draining = False

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the batch loop (must run inside the event loop)."""
        if self._started:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-compute"
        )
        self.batcher.start()
        self._draining = False
        self._started = True

    async def stop(self) -> None:
        """Drain the queue, stop the batch loop, release the worker.

        Requests already queued are dispatched and answered; a request
        that races the stop sentinel into the batcher is shed with a
        deterministic 429 ``shed:drain`` instead of hanging, and new
        submissions shed the same way the moment draining begins.
        """
        if not self._started:
            return
        self._draining = True
        await self.batcher.stop()
        self._shed_drained(self.batcher.drain_pending())
        await self.calibrations.drain()
        # the pipeline is drained, so the flush races no further recording
        await self.flight.flush()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._started = False

    async def __aenter__(self) -> "PredictionService":
        """Async context manager: start on enter."""
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        """Async context manager: stop on exit."""
        await self.stop()

    # ------------------------------------------------------------------
    def _reply(
        self, pending: _Pending, response: Dict[str, Any], now: float
    ) -> None:
        """Record one pending request's row, then resolve its future.

        The row comes first and unconditionally: a caller that stopped
        waiting (its future already cancelled) still leaves its row.
        """
        self.flight.record(
            pending.enqueued,
            (pending.admit_end - pending.enqueued) * 1e6,
            (pending.t_batch - pending.enqueued) * 1e6,
            (pending.t_done - pending.t_compute) * 1e6,
            (now - pending.t_done) * 1e6,
            now - pending.enqueued,
            pending.depth,
            status_code(response),
            pending.batch_size,
        )
        if not pending.future.done():
            pending.future.set_result(response)

    def _record_shed(
        self, response: Dict[str, Any], t_admit: float, admit_end: float, depth: int
    ) -> Dict[str, Any]:
        """Flight-record a request answered without a batch; returns it.

        Such a request never replies through the pipeline: its row has
        no queue/compute/reply time, ``reply_s = 0`` and ``batch = 0``.
        """
        self.flight.record(
            t_admit, (admit_end - t_admit) * 1e6, 0.0, 0.0, 0.0, 0.0,
            depth, status_code(response), 0,
        )
        return response

    # ------------------------------------------------------------------
    async def submit(self, envelope: Any) -> Dict[str, Any]:
        """Serve one decoded request envelope; always returns a response.

        The synchronous prefix — parse, validate, admission — runs
        before the first ``await``, so requests submitted in order are
        admitted in order regardless of event-loop interleaving (this
        is what makes seeded overload runs shed deterministically).
        """
        loop = asyncio.get_running_loop()
        t_admit = loop.time()
        try:
            request = api.parse_request(envelope)
        except ServeError as exc:
            return api.error_response(
                str(envelope.get("id", "")) if isinstance(envelope, dict) else "",
                exc.status,
                exc.reason,
                exc.detail,
            )

        # admission: rate by the stamped virtual arrival when present,
        # by the wall clock otherwise; queue bound by live queue depth
        admit_clock = request.arrival if request.arrival is not None else t_admit
        depth = self.batcher.depth
        verdict = self.admission.decide(request.client, admit_clock, depth)
        t_admitted = loop.time()
        if verdict is not None:
            return self._record_shed(
                api.error_response(
                    request.id,
                    api.SHED,
                    f"shed:{verdict}",
                    f"request shed by admission control ({verdict})",
                ),
                t_admit, t_admitted, depth,
            )

        if self._draining:
            return self._record_shed(
                api.error_response(
                    request.id,
                    api.SHED,
                    "shed:drain",
                    "service is draining for shutdown; request not accepted",
                ),
                t_admit, t_admitted, depth,
            )

        if request.kind == "ping":
            return api.ok_response(request.id, {"kind": "pong"})
        if request.kind == "platforms":
            return api.ok_response(request.id, platform_catalog())

        expires = t_admit + request.deadline if request.deadline is not None else None
        pending = _Pending(
            request,
            loop.create_future(),
            enqueued=t_admit,
            expires=expires,
            depth=depth,
            admit_end=t_admitted,
        )
        self.batcher.put(pending)
        return await pending.future

    def _shed_drained(self, leftovers: List[_Pending]) -> None:
        """Answer batcher leftovers with a deterministic drain shed."""
        for pending in leftovers:
            response = self._record_shed(
                api.error_response(
                    pending.request.id,
                    api.SHED,
                    "shed:drain",
                    "service stopped before this request reached a batch",
                ),
                pending.enqueued, pending.admit_end, pending.depth,
            )
            if not pending.future.done():
                pending.future.set_result(response)

    # ------------------------------------------------------------------
    async def _dispatch(self, batch: List[_Pending]) -> None:
        """Serve one micro-batch: expire, group, evaluate, reply.

        Each request is replied to exactly once, so it leaves exactly
        one flight row.
        """
        loop = asyncio.get_running_loop()
        t_batch = loop.time()
        for pending in batch:
            pending.t_batch = t_batch
            pending.t_compute = t_batch
            pending.t_done = t_batch
            pending.batch_size = len(batch)

        live: List[_Pending] = []
        for pending in batch:
            if pending.expires is not None and t_batch > pending.expires:
                self._reply(
                    pending,
                    api.error_response(
                        pending.request.id,
                        api.DEADLINE_EXPIRED,
                        "deadline-expired",
                        "request outlived its deadline before compute",
                    ),
                    t_batch,
                )
            else:
                live.append(pending)
        if not live:
            return

        try:
            jobs = await self._resolve_jobs(live, t_batch)
            t_compute = loop.time()
            results = await loop.run_in_executor(
                self._executor, _evaluate_jobs, jobs
            )
            t_done = loop.time()
        except Exception as exc:  # noqa: BLE001 - must never wedge clients
            now = loop.time()
            for pending in live:
                self._reply(
                    pending,
                    api.error_response(
                        pending.request.id,
                        api.INTERNAL,
                        "internal-error",
                        f"{type(exc).__name__}: {exc}",
                    ),
                    now,
                )
            return
        for pending, result in zip(live, results):
            pending.t_compute = t_compute
            pending.t_done = t_done
            self._reply(pending, api.ok_response(pending.request.id, result), t_done)

    async def _resolve_jobs(
        self, live: List[_Pending], now: float
    ) -> List[_Job]:
        """Resolve calibration once per compute group, preserving order."""
        resolved: Dict[Tuple[Any, ...], Tuple[ModelPlatformParams, str]] = {}
        jobs: List[_Job] = []
        for pending in live:
            query = pending.request.query
            assert query is not None  # predict/sweep always carry one
            group = query.compute_key
            if group not in resolved:
                spec = get_platform(query.platform)
                if query.family != "opal":
                    if query.calibrated:
                        resolved[group] = await self.calibrations.resolve_family(
                            spec, query.family, now, refresh=self.config.refresh
                        )
                    else:
                        resolved[group] = (
                            get_family(query.family).key_data_params(spec),
                            SOURCE_KEY_DATA,
                        )
                elif query.calibrated:
                    resolved[group] = await self.calibrations.resolve(
                        spec, now, refresh=self.config.refresh
                    )
                else:
                    resolved[group] = (
                        ModelPlatformParams.from_spec(spec),
                        SOURCE_KEY_DATA,
                    )
            params, source = resolved[group]
            jobs.append((pending.request.kind, query, params, source))
        return jobs

    # ------------------------------------------------------------------
    def latency_quantiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the replies the flight ring holds (0 when empty).

        The ring's answered rows (:meth:`FlightRecorder.answered_reply_s`)
        through the repo's one nearest-rank rule, so a store aggregate
        over the same rows reproduces these numbers exactly.
        """
        return latency_quantiles(self.flight.answered_reply_s())

    def report(self) -> Dict[str, Any]:
        """Operational snapshot: admission, batching, latency, cache."""
        quantiles = self.latency_quantiles()
        return {
            "admission": self.admission.stats.as_dict(),
            "batches": self.batcher.batches,
            "batched_items": self.batcher.items,
            "mean_occupancy": (
                self.batcher.items / self.batcher.batches
                if self.batcher.batches
                else 0.0
            ),
            "latency": quantiles,
            "calibration": {
                "hits": self.calibrations.hits,
                "misses": self.calibrations.misses,
                "fits": self.calibrations.fits,
                "refreshes": self.calibrations.refreshes,
            },
        }

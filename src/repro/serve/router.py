"""Fleet front door: consistent-hash routing with health-checked failover.

:class:`FleetRouter` exposes the exact ``start()/stop()/submit()``
surface of :class:`~repro.serve.service.PredictionService`, so the
existing transports (:class:`~repro.serve.server.ServeServer`) and the
load generator drive a fleet without changes.  Behind that surface one
request flows: fleet-wide admission (the single-process token buckets
lifted to the front door) → consistent-hash shard by compute cell
(:mod:`repro.serve.hashring`) → forward over a pipelined worker link
(:class:`~repro.serve.server.TcpServeClient`) →
retry with capped jittered exponential backoff against surviving
workers on timeout or connection loss.

Robustness semantics reuse the Sciddle middleware vocabulary
(:mod:`repro.sciddle.resilient`): :class:`RetryPolicy` bounds every
forward with a deadline and caps the retransmission budget, and
:class:`ServerHealth` ostracizes a worker after
``death_threshold`` consecutive timeouts (a torn connection is an
immediate death).  Every serve query is idempotent — responses are
pure functions of the query — so retrying against a different worker
returns byte-identical answers, which is the fleet's bit-identity
guarantee (docs/FLEET.md).

Death fires the ring rebalance implicitly: the dead slot's virtual
points stay on the ring but :meth:`HashRing.owner` skips them, so only
its keys move, each to the next live successor.  With a ``respawn_fn``
the router supervises recovery — the respawned incarnation keeps its
slot id, reclaims its exact ring points, and (with a shared
calibration ``cache_dir``) reloads calibrations warm.

Observability: one per-request row in the ``fleet`` dataset, held in
a bounded :class:`~repro.serve.flight.FlightRecorder` ring and flushed
into a :class:`~repro.obs.store.TelemetryStore` — SLO-compatible
columns (``t_admit``/``status``/``reply_s``/``depth``) plus the worker
slot and attempt count, so ``obs slo --dataset fleet`` gates a chaos
burst end to end — beside per-worker forward/retry/failure tallies in
:meth:`FleetRouter.worker_report`, front-door sheds in
:attr:`FleetRouter.admission` and membership in :attr:`FleetRouter.health`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ServeError
from ..obs.query import latency_quantiles
from ..sciddle.resilient import RetryPolicy, ServerHealth
from . import api
from .admission import AdmissionController
from .flight import FlightRecorder, status_code
from .hashring import HashRing
from .service import platform_catalog

#: Sentinel worker column value for requests never forwarded.
NO_WORKER = -1

@dataclass
class WorkerStats:
    """Per-worker routing tallies for the fleet report."""

    forwarded: int = 0
    completed: int = 0
    retried: int = 0
    failed: int = 0
    shed: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-able tally row."""
        return {
            "forwarded": self.forwarded,
            "completed": self.completed,
            "retried": self.retried,
            "failed": self.failed,
            "shed": self.shed,
        }


@dataclass(frozen=True)
class FleetConfig:
    """Tunable knobs of the fleet front door.

    Admission mirrors :class:`~repro.serve.service.ServeConfig` but
    rates the *fleet-wide* ingress (workers behind the router run wide
    open — the front door is the single backpressure tier).  ``policy``
    reuses the Sciddle retry vocabulary: per-forward timeout, capped
    jittered exponential backoff, ostracism threshold.
    """

    rate: float = 200.0
    burst: int = 50
    max_queue_depth: int = 1024
    #: seconds between heartbeat ping rounds (0 disables the prober)
    heartbeat: float = 0.25
    #: seed of the backoff-jitter stream (reproducible retry schedules)
    seed: int = 0
    policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            timeout=5.0,
            max_retries=4,
            backoff_base=0.01,
            backoff_cap=0.25,
            death_threshold=3,
        )
    )


class InProcessWorker:
    """A fleet worker backed by an in-process service, with chaos taps.

    The unit-test and single-host bench face of the worker link
    protocol: :meth:`crash` makes every call (and any in-flight call)
    raise :class:`ConnectionError`, :meth:`stall` makes calls hang
    until the router's forward timeout fires.  Both are deterministic —
    they flip at an await point the test controls.
    """

    def __init__(self, service: Any, name: str = "worker") -> None:
        self.service = service
        self.name = name
        self._crashed = asyncio.Event()
        self._stalled = asyncio.Event()

    # -- chaos taps -----------------------------------------------------
    def crash(self) -> None:
        """Simulate a process crash: fail in-flight and future calls."""
        self._crashed.set()

    def stall(self) -> None:
        """Simulate a wedged worker: calls hang until crashed/cancelled."""
        self._stalled.set()

    @property
    def alive(self) -> bool:
        """Whether the link still accepts calls."""
        return not self._crashed.is_set()

    # -- WorkerClient surface -------------------------------------------
    async def request(self, envelope: Dict[str, Any]) -> Dict[str, Any]:
        """Forward one envelope (router wraps this in ``wait_for``)."""
        return await self._roundtrip(envelope)

    async def ping(self) -> bool:
        """Heartbeat probe (router wraps this in ``wait_for``)."""
        response = await self._roundtrip(
            {"kind": "ping", "id": "hb", "client": "router"}
        )
        return api.is_ok(response)

    async def close(self) -> None:
        """Nothing to release for an in-process worker."""

    async def _roundtrip(self, envelope: Dict[str, Any]) -> Dict[str, Any]:
        if self._crashed.is_set():
            raise ConnectionError(f"{self.name} crashed")
        if self._stalled.is_set():
            # hang exactly like a wedged process: until the crash tap
            # fires or the router's wait_for cancels us
            await self._crashed.wait()
            raise ConnectionError(f"{self.name} crashed")
        submit = asyncio.ensure_future(self.service.submit(dict(envelope)))
        crashed = asyncio.ensure_future(self._crashed.wait())
        try:
            done, _pending = await asyncio.wait(
                {submit, crashed}, return_when=asyncio.FIRST_COMPLETED
            )
            if submit in done:
                return dict(await submit)
            raise ConnectionError(f"{self.name} crashed mid-request")
        finally:
            crashed.cancel()
            if not submit.done():
                submit.cancel()


#: A supervisor hook: given a dead slot, spawn a fresh worker and
#: return its connected client (see ServeFleet._respawn).
RespawnFn = Callable[[int], Awaitable[Any]]


class FleetRouter:
    """Consistent-hash front door over N health-checked workers.

    ``workers`` maps slot id -> worker client (anything with the
    ``request/ping/close`` surface).  The router owns admission,
    routing, retries, health, respawn supervision and drain; it is a
    drop-in ``service`` for :class:`~repro.serve.server.ServeServer`.
    """

    def __init__(
        self,
        workers: Mapping[int, Any],
        config: Optional[FleetConfig] = None,
        store: Optional[Any] = None,
        respawn_fn: Optional[RespawnFn] = None,
    ) -> None:
        if not workers:
            raise ValueError("a fleet needs at least one worker")
        self.workers: Dict[int, Any] = dict(workers)
        self.config = config or FleetConfig()
        self.policy = self.config.policy
        self.respawn_fn = respawn_fn
        self.ring = HashRing(self.workers)
        self.health = ServerHealth(self.policy.death_threshold)
        self.health.on_death(self._on_death)
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            rate=self.config.rate,
            burst=self.config.burst,
        )
        #: one ``fleet`` row per request (a bounded ring, flushed at stop)
        self.records = FlightRecorder(store=store, dataset="fleet")
        self.stats: Dict[int, WorkerStats] = {
            slot: WorkerStats() for slot in self.workers
        }
        self._rng = np.random.default_rng([self.config.seed, 1])
        self._inflight = 0
        self._drain_waiters: List["asyncio.Future[None]"] = []
        self._draining = False
        self._started = False
        self._stopping = False
        self._heartbeat_task: Optional["asyncio.Task[None]"] = None
        self._respawning: set = set()
        self._tasks: set = set()

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Start the heartbeat prober (idempotent)."""
        if self._started:
            return
        self._draining = False
        self._stopping = False
        self._started = True
        if self.config.heartbeat > 0:
            self._heartbeat_task = asyncio.get_running_loop().create_task(
                self._heartbeat_loop()
            )

    async def stop(self) -> None:
        """Drain in-flight requests, stop probing, close every link."""
        if not self._started:
            return
        await self.drain()
        self._stopping = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks.clear()
        for client in self.workers.values():
            await client.close()
        await self.records.flush()
        self._started = False

    async def __aenter__(self) -> "FleetRouter":
        """Async context manager: start on enter."""
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        """Async context manager: stop on exit."""
        await self.stop()

    async def drain(self) -> None:
        """Stop accepting new work and wait for in-flight completion.

        New submissions shed with 429 ``shed:drain`` from the moment
        this is called; the returned awaitable resolves once the last
        in-flight forward has replied (or exhausted its retries).
        """
        self._draining = True
        if self._inflight > 0:
            waiter: "asyncio.Future[None]" = (
                asyncio.get_running_loop().create_future()
            )
            self._drain_waiters.append(waiter)
            await waiter

    # -- health / membership --------------------------------------------
    def alive(self, slot: int) -> bool:
        """Whether a slot is on the ring and not ostracized."""
        return slot in self.workers and not self.health.is_dead(slot)

    @property
    def live_slots(self) -> List[int]:
        """Slots currently in rotation."""
        return sorted(s for s in self.workers if self.alive(s))

    def _on_death(self, slot: int) -> None:
        """Death listener: supervise a respawn."""
        if self.respawn_fn is not None and not self._draining:
            task = asyncio.get_running_loop().create_task(self._respawn(slot))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _respawn(self, slot: int) -> None:
        """Spawn a fresh incarnation for a dead slot and revive it."""
        if slot in self._respawning:
            return
        self._respawning.add(slot)
        assert self.respawn_fn is not None
        try:
            client = await self.respawn_fn(slot)
        except Exception:  # noqa: BLE001 - supervisor must survive
            return  # the slot stays dead, as report()["dead"] shows
        finally:
            self._respawning.discard(slot)
        old = self.workers.get(slot)
        self.workers[slot] = client
        self.stats.setdefault(slot, WorkerStats())
        self.ring.add(slot)  # same id -> identical points (no-op if kept)
        self.health.revive(slot)
        if old is not None and old is not client:
            await old.close()

    async def _heartbeat_loop(self) -> None:
        """Ping every in-rotation worker on a fixed cadence."""
        # the flag, not just the cancel, ends the loop: before Python
        # 3.12 ``asyncio.wait_for`` swallows a cancellation that lands
        # just as its ping completes or times out
        while not self._stopping:
            await asyncio.sleep(self.config.heartbeat)
            for slot in list(self.workers):
                if not self.alive(slot):
                    continue
                client = self.workers[slot]
                try:
                    ok = await asyncio.wait_for(
                        client.ping(), self.policy.timeout
                    )
                except asyncio.TimeoutError:
                    self.health.record_timeout(slot)
                except (ConnectionError, OSError):
                    self.health.mark_dead(slot)
                else:
                    if ok:
                        self.health.record_success(slot)

    # -- request path ---------------------------------------------------
    def _dec_inflight(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            for waiter in self._drain_waiters:
                if not waiter.done():
                    waiter.set_result(None)
            self._drain_waiters.clear()

    @staticmethod
    def shard_key(query: api.Query) -> str:
        """The consistent-hash key: the query's compute cell, canonical."""
        return api.canonical(list(query.compute_key))

    async def submit(self, envelope: Any) -> Dict[str, Any]:
        """Route one decoded request envelope; always returns a response.

        Mirrors ``PredictionService.submit``: the synchronous prefix
        (parse, drain check, admission) runs before the first await, so
        a seeded schedule sheds deterministically at the front door.
        """
        loop = asyncio.get_running_loop()
        t_admit = loop.time()
        try:
            request = api.parse_request(envelope)
        except ServeError as exc:
            return self._record(
                api.error_response(
                    str(envelope.get("id", "")) if isinstance(envelope, dict) else "",
                    exc.status,
                    exc.reason,
                    exc.detail,
                ),
                t_admit, 0.0, 0.0, self._inflight, None, 0,
            )

        depth = self._inflight
        if self._draining or not self._started:
            return self._record(
                api.error_response(
                    request.id,
                    api.SHED,
                    "shed:drain",
                    "fleet is draining for shutdown; request not accepted",
                ),
                t_admit, 0.0, 0.0, depth, None, 0,
            )

        admit_clock = request.arrival if request.arrival is not None else t_admit
        verdict = self.admission.decide(request.client, admit_clock, depth)
        t_admitted = loop.time()
        admit_us = (t_admitted - t_admit) * 1e6
        if verdict is not None:
            owner = (
                self.ring.owner(self.shard_key(request.query), alive=self.alive)
                if request.query is not None
                else None
            )
            if owner is not None:
                self.stats[owner].shed += 1
            return self._record(
                api.error_response(
                    request.id,
                    api.SHED,
                    f"shed:{verdict}",
                    f"request shed by fleet admission control ({verdict})",
                ),
                t_admit, admit_us, 0.0, depth, owner, 0,
            )

        if request.kind == "ping":
            return api.ok_response(request.id, {"kind": "pong"})
        if request.kind == "platforms":
            return api.ok_response(request.id, platform_catalog())

        self._inflight += 1
        try:
            response, worker, attempts = await self._forward(
                request, envelope, t_admit
            )
        finally:
            self._dec_inflight()
        return self._record(
            response, t_admit, admit_us, loop.time() - t_admit, depth,
            worker, attempts,
        )

    def _record(
        self,
        response: Dict[str, Any],
        t_admit: float,
        admit_us: float,
        reply_s: float,
        depth: int,
        worker: Optional[int],
        attempts: int,
    ) -> Dict[str, Any]:
        """Leave ``response``'s ``fleet`` row (no slot: :data:`NO_WORKER`)."""
        self.records.record(
            t_admit,
            admit_us,
            reply_s,
            depth,
            status_code(response),
            NO_WORKER if worker is None else worker,
            attempts,
        )
        return response

    async def _forward(
        self, request: api.Request, envelope: Dict[str, Any], t_admit: float
    ) -> Tuple[Dict[str, Any], Optional[int], int]:
        """Forward with failover; returns (response, last slot, attempts).

        One *attempt* is one forward that had to be abandoned (timeout
        or connection loss); the successful forward is not counted, so
        ``attempts == 0`` is the fast path.  Retries target the key's
        current live owner, which moves to the ring successor once the
        previous owner is declared dead — the same ostracism discipline
        as the resilient Sciddle client, lifted to the fleet.
        """
        loop = asyncio.get_running_loop()
        key = self.shard_key(request.query) if request.query is not None else ""
        expires = (
            t_admit + request.deadline if request.deadline is not None else None
        )
        attempts = 0
        last_slot: Optional[int] = None
        for attempt in range(self.policy.max_retries + 1):
            remaining = None if expires is None else expires - loop.time()
            if remaining is not None and remaining <= 0:
                return (
                    api.error_response(
                        request.id,
                        api.DEADLINE_EXPIRED,
                        "deadline-expired",
                        "request outlived its deadline at the router",
                    ),
                    last_slot,
                    attempts,
                )
            slot = self.ring.owner(key, alive=self.alive)
            if slot is None:
                return (
                    api.error_response(
                        request.id,
                        api.INTERNAL,
                        "no-live-workers",
                        "every fleet worker is dead or draining",
                    ),
                    last_slot,
                    attempts,
                )
            last_slot = slot
            forwarded = dict(envelope)
            if remaining is not None:
                # propagate the *remaining* budget so the worker's
                # batcher can still expire the request pre-compute
                forwarded["deadline"] = remaining
            timeout = (
                self.policy.timeout
                if remaining is None
                else min(self.policy.timeout, remaining)
            )
            client = self.workers[slot]
            self.stats[slot].forwarded += 1
            try:
                response = await asyncio.wait_for(
                    client.request(forwarded), timeout
                )
            except asyncio.TimeoutError:
                self.stats[slot].failed += 1
                self.health.record_timeout(slot)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                self.stats[slot].failed += 1
                # a torn link is a crash signal, not a slow reply
                self.health.mark_dead(slot)
            else:
                self.health.record_success(slot)
                self.stats[slot].completed += 1
                return response, slot, attempts
            attempts += 1
            if attempt >= self.policy.max_retries:
                break
            self.stats[slot].retried += 1
            backoff = self.policy.backoff(attempt - 1, self._rng)
            if expires is not None:
                backoff = min(backoff, max(0.0, expires - loop.time()))
            if backoff > 0:
                await asyncio.sleep(backoff)
        return (
            api.error_response(
                request.id,
                api.INTERNAL,
                "retry-exhausted",
                f"no worker replied within {attempts} attempt(s)",
            ),
            last_slot,
            attempts,
        )

    # -- reporting ------------------------------------------------------
    def latency_quantiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the answered ``fleet`` rows the ring holds (0 when empty)."""
        return latency_quantiles(self.records.answered_reply_s())

    def worker_report(self) -> Dict[str, Dict[str, int]]:
        """Per-worker tallies keyed ``w<slot>`` (the loadgen report rows)."""
        return {
            f"w{slot}": self.stats[slot].as_dict()
            for slot in sorted(self.stats)
        }

    def report(self) -> Dict[str, Any]:
        """Operational snapshot: admission, membership, latency, workers."""
        return {
            "admission": self.admission.stats.as_dict(),
            "workers": self.worker_report(),
            "live": [f"w{slot}" for slot in self.live_slots],
            "dead": [f"w{slot}" for slot in sorted(self.health.dead)],
            "latency": self.latency_quantiles(),
        }

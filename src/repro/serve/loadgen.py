"""Deterministic load generator for the prediction service.

Open-loop arrivals: each simulated client draws exponential
inter-arrival gaps from its own seeded stream
(``default_rng([seed, client_index])``) and stamps every request
envelope with the resulting *virtual* arrival time.  The service rates
token buckets by those stamps, so whether a given request is admitted
or shed is a pure function of ``(seed, spec, admission config)`` — the
same campaign replayed on a loaded laptop sheds the exact same request
ids.

``run_open_loop(pace=False)`` submits the whole schedule as fast as the
event loop accepts it (arrival stamps still drive admission): this is
the throughput-benchmark mode, where wall-clock pacing would only add
noise.  ``pace=True`` sleeps until each virtual arrival — the latency
mode, where each request's wall latency is meaningful.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs.monitor import STATUS_NAMES
from . import api
from .flight import status_code

#: An async callable serving one envelope (ServeClient.request etc.).
SubmitFn = Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]

#: The :class:`LoadgenReport` counter of each status code: the code's
#: ``STATUS_NAMES`` name, except that ``error`` counts in ``errors``.
_COUNTERS = {
    code: "errors" if name == "error" else name
    for code, name in STATUS_NAMES.items()
}


@dataclass(frozen=True)
class LoadSpec:
    """One reproducible workload: who asks what, how fast.

    ``rate`` is each client's mean request rate (exponential arrivals);
    ``sweep_fraction`` of requests are server sweeps, the rest single
    points.  All randomness derives from ``seed``.
    """

    clients: int = 8
    requests_per_client: int = 20
    rate: float = 100.0
    seed: int = 0
    sweep_fraction: float = 0.0
    molecules: Tuple[str, ...] = ("small", "medium", "large")
    platforms: Tuple[str, ...] = ("j90", "t3e", "fast-cops")
    max_servers: int = 7
    calibrated: bool = False
    deadline: Optional[float] = None
    #: weighted draw over workload families, e.g. ``{"opal": 0.5,
    #: "collective": 0.5}``; ``None`` (the default) keeps the classic
    #: all-opal schedule byte-identical (no extra random draws)
    family_mix: Optional[Tuple[Tuple[str, float], ...]] = None

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.requests_per_client < 1:
            raise ValueError("requests_per_client must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= self.sweep_fraction <= 1.0:
            raise ValueError("sweep_fraction must be in [0, 1]")
        if self.family_mix is not None:
            from ..workloads import family_names

            if isinstance(self.family_mix, dict):
                object.__setattr__(
                    self,
                    "family_mix",
                    tuple(sorted(self.family_mix.items())),
                )
            else:
                object.__setattr__(
                    self,
                    "family_mix",
                    tuple(sorted((str(k), float(w)) for k, w in self.family_mix)),
                )
            if not self.family_mix:
                raise ValueError("family_mix must name at least one family")
            known = set(family_names())
            for name, weight in self.family_mix:
                if name not in known:
                    raise ValueError(
                        f"family_mix names unknown family {name!r}; "
                        f"registered: {sorted(known)}"
                    )
                if not weight > 0:
                    raise ValueError(
                        f"family_mix weight for {name!r} must be positive, "
                        f"got {weight!r}"
                    )


def build_schedule(spec: LoadSpec) -> List[Dict[str, Any]]:
    """The workload as stamped request envelopes in global arrival order.

    Envelope ids are ``c<client>-<seq>``; within one client, ``seq``
    and the ``arrival`` stamp increase together, so the global sort by
    ``(arrival, client, seq)`` preserves every client's submission
    order — the property per-client token buckets need for determinism.
    """
    mix_names: List[str] = []
    mix_probs: Optional[np.ndarray] = None
    spec_pools: Dict[str, List[Dict[str, Any]]] = {}
    if spec.family_mix is not None:
        from ..workloads import get_family

        mix_names = [name for name, _ in spec.family_mix]
        weights = np.array([w for _, w in spec.family_mix], dtype=float)
        mix_probs = weights / weights.sum()
        for name in mix_names:
            if name != "opal":
                spec_pools[name] = [
                    dict(p) for p in get_family(name).example_params()
                ]

    envelopes: List[Tuple[float, int, int, Dict[str, Any]]] = []
    for ci in range(spec.clients):
        rng = np.random.default_rng([spec.seed, ci])
        clock = 0.0
        for seq in range(spec.requests_per_client):
            clock += float(rng.exponential(1.0 / spec.rate))
            is_sweep = bool(rng.random() < spec.sweep_fraction)
            family = "opal"
            if mix_probs is not None:
                family = mix_names[int(rng.choice(len(mix_names), p=mix_probs))]
            if family == "opal":
                query: Dict[str, Any] = {
                    "platform": str(rng.choice(list(spec.platforms))),
                    "molecule": str(rng.choice(list(spec.molecules))),
                    "update_interval": int(rng.choice([1, 10])),
                    "cutoff": 10.0 if bool(rng.random() < 0.5) else None,
                    "calibrated": spec.calibrated,
                }
            else:
                pool = spec_pools[family]
                query = {
                    "platform": str(rng.choice(list(spec.platforms))),
                    "family": family,
                    "spec": dict(pool[int(rng.integers(0, len(pool)))]),
                    "calibrated": spec.calibrated,
                }
            if is_sweep:
                query["servers"] = list(range(1, spec.max_servers + 1))
            else:
                query["servers"] = int(rng.integers(1, spec.max_servers + 1))
            envelope: Dict[str, Any] = {
                "v": api.WIRE_VERSION,
                "id": f"c{ci}-{seq}",
                "client": f"c{ci}",
                "kind": "sweep" if is_sweep else "predict",
                "arrival": clock,
                "query": query,
            }
            if spec.deadline is not None:
                envelope["deadline"] = spec.deadline
            envelopes.append((clock, ci, seq, envelope))
    envelopes.sort(key=lambda item: (item[0], item[1], item[2]))
    return [envelope for _, _, _, envelope in envelopes]


@dataclass
class LoadgenReport:
    """Outcome of one load-generation run."""

    sent: int = 0
    ok: int = 0
    shed_rate: int = 0
    shed_queue: int = 0
    #: requests shed because the service/fleet was draining for shutdown
    shed_drain: int = 0
    expired: int = 0
    errors: int = 0
    #: wall-clock duration of the whole run (seconds)
    wall: float = 0.0
    #: client-side wall latency of every response, sheds included, in
    #: completion order
    latencies: List[float] = field(default_factory=list)
    #: response envelopes keyed by request id
    responses: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: per-worker routing tallies, filled by the fleet bench
    #: (``{"w0": {"forwarded": ..., "completed": ..., ...}}``)
    per_worker: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Served (non-shed) responses per wall-clock second."""
        return self.ok / self.wall if self.wall > 0 else 0.0

    def shed_ids(self) -> List[str]:
        """Sorted ids of every request shed by admission control."""
        return sorted(
            rid
            for rid, response in self.responses.items()
            if response.get("status") == api.SHED
        )

    def canonical_responses(self) -> str:
        """All responses in id order as one canonical JSON string.

        The bit-identity oracle: two runs served the same answers iff
        these strings are equal (ids are unique per schedule, and the
        encoding is canonical).
        """
        ordered = [self.responses[rid] for rid in sorted(self.responses)]
        return api.canonical(ordered)

    def summary(self) -> Dict[str, Any]:
        """The report as JSON-able data (without raw responses)."""
        summary: Dict[str, Any] = {
            "sent": self.sent,
            "ok": self.ok,
            "shed_rate": self.shed_rate,
            "shed_queue": self.shed_queue,
            "shed_drain": self.shed_drain,
            "expired": self.expired,
            "errors": self.errors,
            "wall_s": self.wall,
            "throughput_rps": self.throughput,
        }
        if self.per_worker:
            summary["per_worker"] = self.per_worker
        return summary

    def ingest_into(self, store: Any, meta: Optional[Dict[str, Any]] = None) -> str:
        """Append this run's client-side latencies to a telemetry store.

        One ``loadgen`` segment: the client-side wall latency of every
        response, sheds included, in completion order, with
        :meth:`summary` riding in the segment meta.
        Returns the new segment id.
        """
        from ..obs.ingest import ingest_loadgen_report

        return ingest_loadgen_report(store, self, meta=meta)

    def _account(self, envelope: Dict[str, Any], response: Dict[str, Any]) -> None:
        """Classify one response into the counters."""
        self.responses[envelope["id"]] = response
        counter = _COUNTERS[status_code(response)]
        setattr(self, counter, getattr(self, counter) + 1)


async def run_open_loop(
    submit: SubmitFn,
    schedule: List[Dict[str, Any]],
    pace: bool = False,
    time_scale: float = 1.0,
    abort_after: Optional[int] = None,
    abort: Optional[Callable[[], Awaitable[None]]] = None,
) -> LoadgenReport:
    """Drive one schedule through ``submit``; returns the tally.

    With ``pace=False`` every request is task-spawned in schedule order
    with no awaits in between, so the service sees the admission
    sequence the schedule dictates.  With ``pace=True`` the generator
    sleeps until each request's virtual arrival (divided by
    ``time_scale`` — 2.0 replays twice as fast), making client-side
    latencies meaningful.

    ``abort_after``/``abort`` is the fault-injection tap for chaos
    campaigns: once exactly ``abort_after`` requests have been
    submitted, the ``abort`` coroutine fires (kill a worker, stall a
    link, ...) before any further submissions — the same schedule
    position every run, so the fault lands deterministically.
    """
    loop = asyncio.get_running_loop()
    report = LoadgenReport()
    t0 = loop.time()

    async def fire(envelope: Dict[str, Any]) -> None:
        started = loop.time()
        response = await submit(envelope)
        report.latencies.append(loop.time() - started)
        report._account(envelope, response)

    tasks: List["asyncio.Task[None]"] = []
    for envelope in schedule:
        if pace:
            due = t0 + envelope["arrival"] / time_scale
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
        tasks.append(loop.create_task(fire(envelope)))
        report.sent += 1
        if abort is not None and report.sent == abort_after:
            await abort()
    if tasks:
        await asyncio.gather(*tasks)
    report.wall = loop.time() - t0
    return report

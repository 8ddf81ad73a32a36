"""The flight ring accounts for every admitted request.

The ring is the serve path's one record, so its rows must reconcile
with every other tally of the same run: the load generator's outcome
counts (client side), the admission controller's decisions, the
batcher's item count and, at the fleet tier, the router's per-worker
forwards.  One row per request holds even when the caller stopped
waiting before the answer was ready.
"""

import asyncio
from collections import Counter

from repro.obs.monitor import STATUS_EXPIRED, STATUS_NAMES, STATUS_OK
from repro.serve import LoadSpec, PredictionService, ServeConfig, run_open_loop
from repro.serve.loadgen import build_schedule
from repro.serve.router import FleetConfig, FleetRouter, InProcessWorker

#: a scaled-down copy of the throughput benchmark's overload campaign,
#: with a queue bound small enough to shed by queue as well as by rate
OVERLOAD = LoadSpec(clients=8, requests_per_client=8, seed=2, sweep_fraction=0.25)
TIGHT = dict(max_queue_depth=16, rate=20.0, burst=2)
WIDE_OPEN = dict(max_queue_depth=100000, rate=1e9, burst=10**6)
#: the LoadgenReport counter of each outcome name
COUNTERS = ("ok", "shed_rate", "shed_queue", "shed_drain", "expired", "errors")


def run(coro):
    return asyncio.run(coro)


def overload_schedule():
    """The overload schedule with every fifth request already doomed.

    A 1 ns budget has always lapsed by the time its batch starts, so
    these requests expire at the batcher; admission rates the virtual
    arrival stamps, so which requests shed does not depend on timing.
    """
    schedule = build_schedule(OVERLOAD)
    for envelope in schedule[::5]:
        envelope["deadline"] = 1e-9
    return schedule


def status_tally(recorder):
    """Row count per LoadgenReport counter name, from the ``status`` column."""
    names = Counter(STATUS_NAMES[int(code)] for code in recorder.snapshot()["status"])
    return {name: names["error" if name == "errors" else name] for name in COUNTERS}


def report_tally(report):
    summary = report.summary()
    return {name: summary[name] for name in COUNTERS}


def admitted_rows(tally):
    """Rows of requests admission let through (answered, expired or drained)."""
    return tally["ok"] + tally["expired"] + tally["errors"] + tally["shed_drain"]


class TestService:
    def test_overload_rows_match_every_tally(self):
        async def scenario():
            service = PredictionService(ServeConfig(max_batch=8, **TIGHT))
            async with service:
                report = await run_open_loop(service.submit, overload_schedule())
            return service, report

        service, report = run(scenario())
        tally = status_tally(service.flight)
        assert tally == report_tally(report)
        assert service.flight.recorded == report.sent == 64
        stats = service.admission.stats
        assert (tally["shed_rate"], tally["shed_queue"]) == (
            stats.shed_rate, stats.shed_queue
        )
        assert admitted_rows(tally) == stats.admitted == service.batcher.items
        # the campaign exercises every outcome it can produce
        for name in ("ok", "shed_rate", "shed_queue", "expired"):
            assert tally[name] > 0, name

    def test_cancelled_callers_still_leave_one_row_each(self, compute_gate):
        def envelope(rid, servers, deadline=None):
            query = {"platform": "j90", "molecule": "small", "servers": servers}
            env = {"kind": "predict", "id": rid, "client": "c", "query": query}
            if deadline is not None:
                env["deadline"] = deadline
            return env

        async def scenario():
            service = PredictionService(ServeConfig(**WIDE_OPEN))
            async with service:
                first = asyncio.ensure_future(service.submit(envelope("first", 2)))
                await compute_gate.entered()
                # two callers give up while their requests wait behind
                # the held batch, as the router's wait_for does
                callers = [
                    asyncio.ensure_future(service.submit(envelope("doomed", 3, 1e-3))),
                    asyncio.ensure_future(service.submit(envelope("computed", 5))),
                ]
                await asyncio.sleep(0.01)
                for caller in callers:
                    caller.cancel()
                await asyncio.gather(*callers, return_exceptions=True)
                compute_gate.released.set()
                assert (await first)["status"] == 200
            return service

        service = run(scenario())
        statuses = [int(code) for code in service.flight.snapshot()["status"]]
        assert statuses == [STATUS_OK, STATUS_EXPIRED, STATUS_OK]
        assert compute_gate.evaluated == [2, 5], "the doomed request reached the model"
        assert service.flight.recorded == service.admission.stats.admitted == 3
        assert service.batcher.items == 3


class TestRouter:
    def test_fleet_rows_match_every_tally(self):
        async def scenario():
            services = [PredictionService(ServeConfig(**WIDE_OPEN)) for _ in range(3)]
            for service in services:
                await service.start()
            router = FleetRouter(
                {i: InProcessWorker(s, name=f"w{i}") for i, s in enumerate(services)},
                config=FleetConfig(heartbeat=0.0, **TIGHT),
            )
            await router.start()
            report = await run_open_loop(router.submit, overload_schedule())
            await router.stop()
            for service in services:
                await service.stop()
            return router, services, report

        router, services, report = run(scenario())
        tally = status_tally(router.records)
        assert tally == report_tally(report)
        assert router.records.recorded == report.sent == 64
        stats = router.admission.stats
        assert (tally["shed_rate"], tally["shed_queue"]) == (
            stats.shed_rate, stats.shed_queue
        )
        assert admitted_rows(tally) == stats.admitted
        for name in ("ok", "shed_rate", "shed_queue"):
            assert tally[name] > 0, name
        # every forward left exactly one worker row, and no worker shed
        forwarded = sum(row["forwarded"] for row in router.worker_report().values())
        assert sum(s.flight.recorded for s in services) == forwarded
        for service in services:
            rows = status_tally(service.flight)
            assert rows["shed_rate"] == rows["shed_queue"] == 0

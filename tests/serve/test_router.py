"""Fleet router edge cases: failover, retries, respawn, deadlines, drain.

All tests run in-process (:class:`InProcessWorker` wraps a real
:class:`PredictionService` and adds deterministic crash/stall taps), so
every chaos scenario lands at an await point the test controls.
"""

import asyncio
import dataclasses

import pytest

from repro.obs.monitor import STATUS_EXPIRED
from repro.obs.query import latency_quantiles
from repro.obs.store import TelemetryStore
from repro.sciddle.resilient import RetryPolicy
from repro.serve import api
from repro.serve.calibstore import CalibrationStore
from repro.serve.flight import FlightRecorder
from repro.serve.hashring import HashRing
from repro.serve.loadgen import LoadSpec, build_schedule, run_open_loop
from repro.serve.router import FleetConfig, FleetRouter, InProcessWorker
from repro.serve.service import PredictionService, ServeConfig

WIDE_OPEN = dict(max_queue_depth=100000, rate=1e9, burst=10**6)
FAST_RETRY = RetryPolicy(
    timeout=0.2, max_retries=4, backoff_base=0.0, backoff_cap=0.0,
    backoff_jitter=0.0, death_threshold=2,
)


def run(coro):
    return asyncio.run(coro)


def predict_envelope(rid="r", client="c", deadline=None, **query):
    q = {"platform": "j90", "molecule": "small", "servers": 3}
    q.update(query)
    envelope = {"kind": "predict", "id": rid, "client": client, "query": q}
    if deadline is not None:
        envelope["deadline"] = deadline
    return envelope


def wide_service(**overrides):
    return PredictionService(ServeConfig(**{**WIDE_OPEN, **overrides}))


async def boot_fleet(n=3, policy=FAST_RETRY, respawn=None, store=None,
                     heartbeat=0.0, service_overrides=None, **config):
    services = [wide_service(**(service_overrides or {})) for _ in range(n)]
    for service in services:
        await service.start()
    workers = {
        i: InProcessWorker(service, name=f"w{i}")
        for i, service in enumerate(services)
    }
    router = FleetRouter(
        workers,
        config=FleetConfig(
            heartbeat=heartbeat, policy=policy,
            **{**WIDE_OPEN_ROUTER, **config},
        ),
        store=store,
        respawn_fn=respawn,
    )
    await router.start()
    return router, services, workers


WIDE_OPEN_ROUTER = dict(rate=1e9, burst=10**6, max_queue_depth=100000)


async def shutdown(router, services):
    await router.stop()
    for service in services:
        await service.stop()


def owner_of(router, envelope):
    request = api.parse_request(envelope)
    return router.ring.owner(router.shard_key(request.query))


class TestBitIdentity:
    def test_burst_matches_single_service(self):
        spec = LoadSpec(clients=4, requests_per_client=8, seed=3,
                        sweep_fraction=0.25)
        schedule = build_schedule(spec)

        async def fleet_run():
            router, services, _ = await boot_fleet(3)
            report = await run_open_loop(router.submit, schedule)
            await shutdown(router, services)
            return report

        async def single_run():
            service = wide_service()
            async with service:
                return await run_open_loop(service.submit, schedule)

        fleet_report = run(fleet_run())
        single_report = run(single_run())
        assert fleet_report.ok == len(schedule)
        assert (
            fleet_report.canonical_responses()
            == single_report.canonical_responses()
        )


class TestFailover:
    def test_owner_crash_reroutes_to_survivor(self):
        async def main():
            router, services, workers = await boot_fleet(3)
            envelope = predict_envelope()
            baseline = await router.submit(dict(envelope))
            owner = owner_of(router, envelope)
            workers[owner].crash()
            rerouted = await router.submit(dict(envelope, id="r2"))
            report = router.worker_report()
            await shutdown(router, services)
            return baseline, rerouted, owner, report

        baseline, rerouted, owner, report = run(main())
        assert rerouted["status"] == api.OK
        assert report[f"w{owner}"]["failed"] >= 1
        # identical payload from the surviving worker
        assert api.canonical(dict(baseline, id="x")) == api.canonical(
            dict(rerouted, id="x")
        )

    def test_double_death_mid_retry_still_completes(self):
        async def main():
            router, services, workers = await boot_fleet(3)
            envelope = predict_envelope()
            request = api.parse_request(envelope)
            order = router.ring.preference(router.shard_key(request.query))
            workers[order[0]].crash()
            workers[order[1]].crash()  # second death lands mid-retry walk
            response = await router.submit(dict(envelope))
            dead = set(router.health.dead)
            await shutdown(router, services)
            return response, order, dead

        response, order, dead = run(main())
        assert response["status"] == api.OK
        assert {order[0], order[1]} <= dead

    def test_all_dead_is_an_explicit_error(self):
        async def main():
            router, services, workers = await boot_fleet(2)
            for worker in workers.values():
                worker.crash()
            response = await router.submit(predict_envelope())
            await shutdown(router, services)
            return response

        response = run(main())
        assert response["status"] == api.INTERNAL
        assert response["error"]["reason"] == "no-live-workers"

    def test_stalled_worker_is_ostracized_by_timeouts(self):
        async def main():
            router, services, workers = await boot_fleet(2)
            envelope = predict_envelope()
            owner = owner_of(router, envelope)
            workers[owner].stall()
            response = await router.submit(dict(envelope))
            is_dead = router.health.is_dead(owner)
            report = router.worker_report()
            workers[owner].crash()  # release the stalled call
            await shutdown(router, services)
            return response, is_dead, report, owner

        response, is_dead, report, owner = run(main())
        assert response["status"] == api.OK
        assert is_dead, "consecutive timeouts must ostracize the worker"
        assert report[f"w{owner}"]["retried"] >= FAST_RETRY.death_threshold


#: FAST_RETRY with a forward timeout that covers a blocking calibration
#: fit (the reduced campaign): the crash under test is detected at once
#: (InProcessWorker.crash raises ConnectionError), so only the first
#: calibrated request needs the time — 0.2 s made it retry-exhaust
FIT_RETRY = dataclasses.replace(FAST_RETRY, timeout=5.0)


class TestRespawn:
    def test_respawn_rejoins_ring_with_warm_calibrations(self, tmp_path):
        cache_dir = str(tmp_path / "calib")

        async def main():
            incarnations = []

            def make_service():
                # blocking refresh: the fit lands on disk before the
                # response, so the warm-reload assertion is race-free
                service = PredictionService(
                    ServeConfig(**WIDE_OPEN, refresh="blocking"),
                    calibrations=CalibrationStore(cache_dir=cache_dir),
                )
                incarnations.append(service)
                return service

            services = [make_service() for _ in range(2)]
            for service in services:
                await service.start()
            workers = {
                i: InProcessWorker(s, name=f"w{i}")
                for i, s in enumerate(services)
            }

            async def respawn(slot):
                service = make_service()
                await service.start()
                return InProcessWorker(service, name=f"w{slot}'")

            router = FleetRouter(
                workers,
                config=FleetConfig(
                    heartbeat=0.0, policy=FIT_RETRY, **WIDE_OPEN_ROUTER
                ),
                respawn_fn=respawn,
            )
            await router.start()
            envelope = predict_envelope(calibrated=True)
            owner = owner_of(router, envelope)
            first = await router.submit(dict(envelope))
            owner_before = owner_of(router, envelope)
            workers[owner].crash()
            failover = await router.submit(dict(envelope, id="r2"))
            # let the supervised respawn land
            for _ in range(100):
                if not router.health.is_dead(owner):
                    break
                await asyncio.sleep(0.01)
            revived = not router.health.is_dead(owner)
            owner_after = owner_of(router, envelope)
            warm = await router.submit(dict(envelope, id="r3"))
            respawned_store = incarnations[-1].calibrations
            await router.stop()
            for service in incarnations:
                await service.stop()
            return (
                first, failover, warm, revived,
                owner_before, owner_after, owner,
                respawned_store.fits,
            )

        (first, failover, warm, revived, owner_before, owner_after,
         owner, respawn_fits) = run(main())
        assert first["status"] == api.OK
        assert failover["status"] == api.OK
        assert warm["status"] == api.OK
        assert revived, "respawned slot must be revived in health tracking"
        # the revived slot reclaims its exact ring points
        assert owner_after == owner_before == owner
        # warm reload: the fit came from the shared disk cache, not refit
        assert respawn_fits == 0
        assert api.canonical(dict(first, id="x")) == api.canonical(
            dict(warm, id="x")
        )


class TestDeadlines:
    def test_forwarded_deadline_is_remaining_budget(self):
        forwarded = []

        class RecordingWorker:
            alive = True

            async def request(self, envelope):
                forwarded.append(dict(envelope))
                return api.ok_response(envelope.get("id", ""), {"kind": "pong"})

            async def ping(self):
                return True

            async def close(self):
                pass

        async def main():
            router = FleetRouter(
                {0: RecordingWorker()},
                config=FleetConfig(
                    heartbeat=0.0, policy=FAST_RETRY, **WIDE_OPEN_ROUTER
                ),
            )
            await router.start()
            await asyncio.sleep(0)
            response = await router.submit(predict_envelope(deadline=10.0))
            await router.stop()
            return response

        response = run(main())
        assert response["status"] == api.OK
        assert len(forwarded) == 1
        # the worker sees what is LEFT of the budget, never more
        assert 0 < forwarded[0]["deadline"] <= 10.0

    def test_expired_budget_is_504_before_any_compute(self, compute_gate):
        async def main():
            router, services, _ = await boot_fleet(2)
            doomed = predict_envelope(rid="dead", deadline=0.05)
            # a batch of the same compute cell holds the owner's compute
            # thread past the whole budget, so the request must die of
            # deadline — at the worker's batcher or the router's clock —
            # without one model evaluation
            first = asyncio.ensure_future(
                services[owner_of(router, doomed)].submit(
                    predict_envelope(rid="first", servers=2)
                )
            )
            await compute_gate.entered()
            response = await router.submit(doomed)
            # the worker's copy of the budget lapses too before release
            await asyncio.sleep(0.05)
            compute_gate.released.set()
            await first
            await shutdown(router, services)
            expired_at_worker = sum(
                list(s.flight.snapshot()["status"]).count(STATUS_EXPIRED)
                for s in services
            )
            return response, expired_at_worker

        response, expired_at_worker = run(main())
        assert response["status"] == api.DEADLINE_EXPIRED
        assert response["error"]["reason"] == "deadline-expired"
        assert compute_gate.evaluated == [2], "an expired request must not reach compute"
        assert expired_at_worker >= 1, (
            "the propagated deadline must expire inside the worker batcher"
        )


class TestAdmissionAndDrain:
    def test_fleet_admission_sheds_on_virtual_stamps(self):
        async def main():
            router, services, _ = await boot_fleet(2, rate=1.0, burst=1)
            first = await router.submit(
                dict(predict_envelope(rid="a"), arrival=0.0)
            )
            second = await router.submit(
                dict(predict_envelope(rid="b"), arrival=0.001)
            )
            await shutdown(router, services)
            return first, second

        first, second = run(main())
        assert first["status"] == api.OK
        assert second["status"] == api.SHED
        assert second["error"]["reason"] == "shed:rate"

    def test_drain_sheds_new_work(self):
        async def main():
            router, services, _ = await boot_fleet(2)
            await router.drain()
            response = await router.submit(predict_envelope())
            await shutdown(router, services)
            return response

        response = run(main())
        assert response["status"] == api.SHED
        assert response["error"]["reason"] == "shed:drain"

    def test_stop_is_idempotent(self):
        async def main():
            router, services, _ = await boot_fleet(2)
            await router.stop()
            await router.stop()  # the fleet CLI path stops twice
            for service in services:
                await service.stop()

        run(main())


class TestRouterTelemetry:
    def test_fleet_dataset_rows_flushed_on_stop(self, tmp_path):
        store = TelemetryStore(tmp_path / "store")

        async def main():
            router, services, _ = await boot_fleet(2, store=store)
            for i in range(4):
                await router.submit(predict_envelope(rid=f"r{i}"))
            await shutdown(router, services)

        run(main())
        assert store.rows("fleet") == 4
        segment = store.segments("fleet")[0]
        columns = store.read_segment(segment["id"])
        assert set(columns) == {
            "t_admit", "admit_us", "reply_s", "depth", "status", "worker",
            "attempts",
        }
        assert all(int(s) == 0 for s in columns["status"])  # all OK

    def test_storeless_router_rows_stay_in_a_bounded_ring(self):
        async def main():
            router, services, _ = await boot_fleet(2)
            router.records = FlightRecorder(capacity=4, dataset="fleet")
            for i in range(10):  # malformed: never forwarded
                response = await router.submit(predict_envelope(f"bad{i}", servers=0))
                assert response["status"] == api.BAD_REQUEST
            await shutdown(router, services)
            return router.records

        records = run(main())
        assert records.recorded == 10
        assert records.pending == 4
        assert list(records.snapshot()["worker"]) == [-1] * 4

    def test_latency_report_reads_the_answered_rows_of_the_ring(self):
        async def main():
            router, services, _ = await boot_fleet(2)
            for i in range(3):
                await router.submit(predict_envelope(f"r{i}"))
            await router.submit(predict_envelope("bad", servers=0))  # a 400 row
            await router.drain()
            await router.submit(predict_envelope("late"))  # a shed:drain row
            await shutdown(router, services)
            return router

        router = run(main())
        answered = router.records.answered_reply_s()
        assert router.records.recorded == 5
        # the parse error counts as answered, with reply_s 0; the shed does not
        assert len(answered) == 4 and answered[3] == 0.0 and min(answered[:3]) > 0
        assert router.latency_quantiles() == latency_quantiles(answered)
        assert router.report()["latency"] == latency_quantiles(answered)

    def test_worker_report_accounts_every_forward(self):
        async def main():
            router, services, _ = await boot_fleet(2)
            for i in range(6):
                await router.submit(predict_envelope(rid=f"r{i}"))
            report = router.worker_report()
            await shutdown(router, services)
            return report

        report = run(main())
        assert sum(w["forwarded"] for w in report.values()) == 6
        assert sum(w["completed"] for w in report.values()) == 6


class TestLoadgenChaosHook:
    def test_abort_fires_after_exact_submission_count(self):
        fired_at = []

        async def main():
            seen = []

            async def submit(envelope):
                seen.append(envelope["id"])
                return api.ok_response(envelope["id"], {"kind": "pong"})

            schedule = build_schedule(
                LoadSpec(clients=2, requests_per_client=5, seed=1)
            )

            async def abort():
                fired_at.append(len(seen))

            report = await run_open_loop(
                submit, schedule, abort_after=4, abort=abort
            )
            return report

        report = run(main())
        assert report.sent == 10
        assert len(fired_at) == 1
        # with pace=False no fire() task has run yet at the abort point:
        # the chaos lands at a deterministic schedule position
        assert fired_at[0] == 0

    def test_report_accounts_drain_sheds(self):
        async def main():
            async def submit(envelope):
                return api.error_response(
                    envelope["id"], api.SHED, "shed:drain", "draining"
                )

            schedule = build_schedule(
                LoadSpec(clients=1, requests_per_client=3, seed=0)
            )
            return await run_open_loop(submit, schedule)

        report = run(main())
        assert report.shed_drain == 3
        assert report.shed_rate == 0
        summary = report.summary()
        assert summary["shed_drain"] == 3

    def test_per_worker_rides_in_summary(self):
        from repro.serve.loadgen import LoadgenReport

        report = LoadgenReport()
        assert "per_worker" not in report.summary()
        report.per_worker = {"w0": {"forwarded": 1}}
        assert report.summary()["per_worker"] == {"w0": {"forwarded": 1}}


class TestRingIntegration:
    def test_router_ring_matches_standalone_ring(self):
        async def main():
            router, services, _ = await boot_fleet(3)
            ring = HashRing([0, 1, 2])
            keys = [f"probe-{i}" for i in range(200)]
            same = all(
                router.ring.owner(k) == ring.owner(k) for k in keys
            )
            await shutdown(router, services)
            return same

        assert run(main())

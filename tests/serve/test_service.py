"""The pipeline core: correctness, bit-identity, shedding, deadlines."""

import asyncio

import pytest

from repro.core.model import OpalPerformanceModel
from repro.core.parameters import ApplicationParams, ModelPlatformParams
from repro.obs.monitor import STATUS_EXPIRED, STATUS_OK, STATUS_SHED_RATE
from repro.opal.complexes import get_complex
from repro.platforms import get_platform
from repro.serve import (
    LoadSpec,
    PredictionService,
    ServeClient,
    ServeConfig,
    api,
    build_schedule,
    run_open_loop,
)
from repro.units import MICROSECOND

WIDE_OPEN = dict(max_queue_depth=100000, rate=1e9, burst=10**6)


def run(coro):
    return asyncio.run(coro)


async def serve_one(service, envelope):
    async with service:
        return await ServeClient(service).request(envelope)


def predict_envelope(rid="r", client="c", **query):
    q = {"platform": "j90", "molecule": "medium", "servers": 4}
    q.update(query)
    return {"kind": "predict", "id": rid, "client": client, "query": q}


async def run_campaign(spec, **config):
    service = PredictionService(ServeConfig(**config))
    async with service:
        report = await run_open_loop(
            ServeClient(service).request, build_schedule(spec)
        )
    return report, service


def ring_statuses(service):
    """The ``status`` column of every row the service's flight ring holds."""
    return list(service.flight.snapshot()["status"])


class TestAnswers:
    def test_point_matches_direct_model_evaluation(self):
        response = run(
            serve_one(PredictionService(), predict_envelope(servers=4))
        )
        assert response["status"] == 200
        params = ModelPlatformParams.from_spec(get_platform("j90"))
        model = OpalPerformanceModel(params)
        app = ApplicationParams(molecule=get_complex("medium"), servers=4)
        expected = model.breakdown(app)
        result = response["result"]
        assert result["time"] == expected.total
        assert result["breakdown"] == expected.as_dict()
        t1 = model.breakdown(app.with_(servers=1)).total
        assert result["speedup"] == t1 / expected.total
        assert result["calibration"] == "key-data"

    def test_sweep_matches_predict_series(self):
        from repro.core.prediction import predict_series

        response = run(
            serve_one(
                PredictionService(),
                {"kind": "sweep", "id": "s", "client": "c",
                 "query": {"platform": "t3e", "molecule": "large"}},
            )
        )
        params = ModelPlatformParams.from_spec(get_platform("t3e"))
        app = ApplicationParams(molecule=get_complex("large"))
        series = predict_series(params, app, tuple(range(1, 8)))
        result = response["result"]
        assert result["times"] == list(series.times)
        assert result["speedups"] == list(series.speedups)
        assert result["saturation"] == series.saturation

    def test_ping_and_platforms(self):
        async def scenario():
            service = PredictionService()
            async with service:
                client = ServeClient(service)
                pong = await client.request({"kind": "ping", "id": "p"})
                catalog = await client.request({"kind": "platforms", "id": "q"})
            return pong, catalog

        pong, catalog = run(scenario())
        assert pong["result"] == {"kind": "pong"}
        names = [p["name"] for p in catalog["result"]["platforms"]]
        assert "j90" in names and names == sorted(names)

    def test_invalid_request_is_answered_not_raised(self):
        response = run(
            serve_one(PredictionService(), {"kind": "predict", "id": "bad",
                                            "client": "c", "query": {"servers": 0}})
        )
        assert response["status"] == 400
        assert response["id"] == "bad"


class TestBitIdentity:
    def test_batched_equals_sequential_and_repeat(self):
        spec = LoadSpec(clients=8, requests_per_client=12, seed=11,
                        sweep_fraction=0.25)
        batched, svc_b = run(run_campaign(spec, max_batch=64, **WIDE_OPEN))
        sequential, _ = run(run_campaign(spec, max_batch=1, **WIDE_OPEN))
        again, _ = run(run_campaign(spec, max_batch=64, **WIDE_OPEN))
        assert batched.ok == spec.clients * spec.requests_per_client
        assert batched.canonical_responses() == sequential.canonical_responses()
        assert batched.canonical_responses() == again.canonical_responses()
        # and batching actually happened on the batched run
        assert svc_b.batcher.batches < batched.sent


class TestShedding:
    def test_overload_sheds_deterministically(self):
        spec = LoadSpec(clients=6, requests_per_client=30, rate=200.0, seed=7)
        tight = dict(max_queue_depth=100000, rate=50.0, burst=5)
        a, _ = run(run_campaign(spec, max_batch=64, **tight))
        b, _ = run(run_campaign(spec, max_batch=64, **tight))
        c, _ = run(run_campaign(spec, max_batch=1, **tight))
        assert a.shed_rate > 0
        assert a.shed_ids() == b.shed_ids() == c.shed_ids()
        # the answered subset is also bit-identical across modes
        assert a.canonical_responses() == c.canonical_responses()

    def test_shed_response_is_4xx_with_reason(self):
        async def scenario():
            service = PredictionService(
                ServeConfig(rate=10.0, burst=1, max_queue_depth=100000)
            )
            async with service:
                client = ServeClient(service)
                first = await client.request(
                    dict(predict_envelope(rid="a"), arrival=0.0)
                )
                second = await client.request(
                    dict(predict_envelope(rid="b"), arrival=0.0)
                )
            return first, second, service

        first, second, service = run(scenario())
        assert first["status"] == 200
        assert second["status"] == 429
        assert second["error"]["reason"] == "shed:rate"
        assert ring_statuses(service).count(STATUS_SHED_RATE) == 1

    def test_queue_bound_sheds_when_full(self):
        async def scenario():
            # tasks created back-to-back run their admission prefixes
            # back-to-back: "b" sees "a" still queued and is shed
            service = PredictionService(
                ServeConfig(max_queue_depth=1, rate=1e9, burst=10**6)
            )
            async with service:
                client = ServeClient(service)
                loop = asyncio.get_running_loop()
                task_a = loop.create_task(client.request(predict_envelope(rid="a")))
                task_b = loop.create_task(client.request(predict_envelope(rid="b")))
                served, shed = await asyncio.gather(task_a, task_b)
            return served, shed

        served, shed = run(scenario())
        assert {served["status"], shed["status"]} == {200, 429}
        assert shed["error"]["reason"] == "shed:queue"


class TestDeadlines:
    def test_expired_request_is_dropped_before_compute(self, compute_gate):
        async def scenario():
            service = PredictionService(ServeConfig(max_batch=8, **WIDE_OPEN))
            async with service:
                client = ServeClient(service)
                # a first request holds the compute thread, so the doomed
                # one waits behind its batch until its deadline has passed
                first = asyncio.ensure_future(
                    client.request(predict_envelope(rid="first", servers=2))
                )
                await compute_gate.entered()
                doomed = asyncio.ensure_future(
                    client.request(dict(predict_envelope(rid="dead"), deadline=1e-3))
                )
                await asyncio.sleep(0.05)
                compute_gate.released.set()
                return await first, await doomed, service

        first, response, service = run(scenario())
        assert first["status"] == 200
        assert response["status"] == 504
        assert response["error"]["reason"] == "deadline-expired"
        assert ring_statuses(service).count(STATUS_EXPIRED) == 1
        assert compute_gate.evaluated == [2], "the doomed request reached the model"

    def test_generous_deadline_is_served(self):
        response = run(
            serve_one(
                PredictionService(ServeConfig(**WIDE_OPEN)),
                dict(predict_envelope(), deadline=30.0),
            )
        )
        assert response["status"] == 200


class TestObservability:
    def test_ring_rows_cover_the_pipeline(self):
        async def scenario():
            service = PredictionService(ServeConfig(**WIDE_OPEN))
            async with service:
                report = await run_open_loop(
                    ServeClient(service).request,
                    build_schedule(LoadSpec(clients=3, requests_per_client=5)),
                )
            return service, report

        service, report = run(scenario())
        assert report.ok == 15
        rows = service.flight.snapshot()
        # one row per request, every one answered through a batch
        assert service.flight.recorded == 15
        assert list(rows["status"]) == [STATUS_OK] * 15
        assert len(service.flight.answered_reply_s()) == 15
        # each row's stages fit inside its own reply latency (the gap
        # is the calibration resolve between queue and compute)
        for name in ("admit_us", "queue_us", "compute_us", "reply_us"):
            assert (rows[name] >= 0).all(), name
        stages = (rows["queue_us"] + rows["compute_us"] + rows["reply_us"]) * MICROSECOND
        assert (stages <= rows["reply_s"] + 1e-9).all()
        assert (rows["admit_us"] <= rows["queue_us"]).all()
        # every batch's rows carry its size: they add back up to the batches
        assert round(float((1.0 / rows["batch"]).sum()), 9) == service.batcher.batches
        assert int(rows["batch"].max()) <= service.config.max_batch

    def test_report_shape(self):
        async def scenario():
            service = PredictionService(ServeConfig(**WIDE_OPEN))
            async with service:
                await ServeClient(service).request(predict_envelope())
            return service.report()

        report = run(scenario())
        assert report["admission"]["admitted"] == 1
        assert set(report["latency"]) == {"p50", "p95", "p99"}
        assert report["batches"] == 1


#: cutoffs whose cube overflows a float
HUGE_CUTOFFS = (1e103, 1e200, 1.7976931348623157e308)


class TestRobustness:
    @pytest.mark.parametrize("kind", ["predict", "sweep"])
    @pytest.mark.parametrize("cutoff", HUGE_CUTOFFS)
    def test_huge_cutoff_answers_like_no_cutoff(self, kind, cutoff):
        # a cutoff sphere past float range holds every pair
        def envelope(cutoff):
            query = {"platform": "j90", "molecule": "medium", "cutoff": cutoff}
            if kind == "predict":
                query["servers"] = 4
            return {"kind": kind, "id": "c", "client": "c", "query": query}

        huge = run(serve_one(PredictionService(), envelope(cutoff)))
        none = run(serve_one(PredictionService(), envelope(None)))
        assert huge["status"] == 200
        assert api.canonical(huge) == api.canonical(none)

    def test_huge_cutoff_does_not_fail_its_batchmates(self):
        envelopes = [
            predict_envelope(rid="a", cutoff=10.0),
            predict_envelope(rid="huge", cutoff=HUGE_CUTOFFS[1]),
            predict_envelope(rid="b", cutoff=12.0),
        ]

        async def serve_together(max_batch):
            service = PredictionService(ServeConfig(max_batch=max_batch, **WIDE_OPEN))
            async with service:
                client = ServeClient(service)
                responses = await asyncio.gather(*map(client.request, envelopes))
            return [api.canonical(r) for r in responses], service.batcher.batches

        together, batches = run(serve_together(64))
        alone, _ = run(serve_together(1))
        assert batches == 1  # all three rode one batch
        assert together == alone
        assert all('"status":200' in answer for answer in together)

    def test_internal_error_answers_500_not_a_hang(self, monkeypatch):
        from repro.serve import service as service_mod

        def boom(jobs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(service_mod, "_evaluate_jobs", boom)

        async def scenario():
            # the patched evaluation raises on the compute thread
            service = PredictionService(ServeConfig(**WIDE_OPEN))
            async with service:
                return await asyncio.wait_for(
                    ServeClient(service).request(predict_envelope()), timeout=5.0
                )

        response = run(scenario())
        assert response["status"] == 500
        assert response["error"]["reason"] == "internal-error"
        assert "kaboom" in response["error"]["detail"]

"""Graceful-shutdown drain: no queued request is ever dropped.

The S702-adjacent bug this pins: an item ``put()`` concurrently with
``MicroBatcher.stop()`` can land *behind* the stop sentinel, where the
batch loop never picks it up — its future would hang forever.  The
drain contract now answers every such request deterministically with a
429 ``shed:drain``, and new submissions shed the same way the moment
draining begins.
"""

import asyncio

from repro.obs.monitor import SHED_STATUSES
from repro.serve import api
from repro.serve.batcher import MicroBatcher
from repro.serve.flight import STATUS_SHED_DRAIN, FlightRecorder
from repro.serve.service import PredictionService, ServeConfig, _Pending

WIDE_OPEN = dict(max_queue_depth=100000, rate=1e9, burst=10**6)


def run(coro):
    return asyncio.run(coro)


def predict_envelope(rid="r", client="c"):
    return {
        "kind": "predict",
        "id": rid,
        "client": client,
        "query": {"platform": "j90", "molecule": "small", "servers": 2},
    }


class TestBatcherDrain:
    def test_item_behind_sentinel_is_collected(self):
        async def main():
            dispatched = []

            async def dispatch(batch):
                dispatched.extend(batch)

            batcher = MicroBatcher(dispatch, max_batch=4)
            batcher.start()
            batcher.put("early")
            stopping = asyncio.get_running_loop().create_task(batcher.stop())
            await asyncio.sleep(0)  # sentinel enqueued, loop draining
            batcher.put("late")  # races in behind the sentinel
            await stopping
            return dispatched, batcher.drain_pending()

        dispatched, leftovers = run(main())
        assert "early" in dispatched
        assert "late" not in dispatched
        assert leftovers == ["late"]

    def test_drain_pending_empty_after_clean_stop(self):
        async def main():
            async def dispatch(batch):
                pass

            batcher = MicroBatcher(dispatch, max_batch=4)
            batcher.start()
            batcher.put("a")
            await batcher.stop()
            return batcher.drain_pending()

        assert run(main()) == []


class TestServiceDrain:
    def test_submit_during_drain_sheds_deterministically(self):
        async def main():
            service = PredictionService(ServeConfig(**WIDE_OPEN))
            await service.start()
            stopping = asyncio.get_running_loop().create_task(service.stop())
            await asyncio.sleep(0)  # stop() has set the draining flag
            response = await service.submit(predict_envelope())
            await stopping
            return response

        response = run(main())
        assert response["status"] == api.SHED
        assert response["error"]["reason"] == "shed:drain"

    def test_raced_pending_is_answered_not_hung(self):
        """A pending that lands behind the sentinel gets shed:drain."""

        async def main():
            flight = FlightRecorder()
            service = PredictionService(ServeConfig(**WIDE_OPEN), flight=flight)
            await service.start()
            loop = asyncio.get_running_loop()
            request = api.parse_request(predict_envelope(rid="raced"))
            now = loop.time()
            pending = _Pending(
                request, loop.create_future(), now, None, depth=1,
                admit_end=now,
            )
            stopping = loop.create_task(service.stop())
            await asyncio.sleep(0)
            service.batcher.put(pending)  # races in behind the sentinel
            await stopping
            assert pending.future.done(), "raced request would hang forever"
            return pending.future.result(), flight

        response, flight = run(main())
        assert response["status"] == api.SHED
        assert response["error"]["reason"] == "shed:drain"
        assert response["id"] == "raced"
        assert list(flight.snapshot()["status"]) == [STATUS_SHED_DRAIN]

    def test_queued_work_is_answered_before_stop_returns(self):
        """Everything ahead of the sentinel is served, not shed."""

        async def main():
            service = PredictionService(ServeConfig(**WIDE_OPEN))
            async with service:
                tasks = [
                    asyncio.ensure_future(
                        service.submit(predict_envelope(rid=f"q{i}"))
                    )
                    for i in range(8)
                ]
                responses = await asyncio.gather(*tasks)
            return responses

        responses = run(main())
        assert all(r["status"] == api.OK for r in responses)

    def test_drain_status_counts_as_shed_for_slo(self):
        assert STATUS_SHED_DRAIN in SHED_STATUSES

    def test_restart_clears_draining(self):
        async def main():
            service = PredictionService(ServeConfig(**WIDE_OPEN))
            await service.start()
            await service.stop()
            await service.start()
            response = await service.submit(predict_envelope())
            await service.stop()
            return response

        assert run(main())["status"] == api.OK

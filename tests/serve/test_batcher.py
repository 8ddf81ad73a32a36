"""Micro-batcher: coalescing, ordering, dispatch when idle, and shutdown."""

import asyncio

import pytest

from repro.serve.batcher import MicroBatcher


def run(coro):
    return asyncio.run(coro)


def collecting_batcher(max_batch=8):
    batches = []

    async def dispatch(batch):
        batches.append(list(batch))

    return MicroBatcher(dispatch, max_batch=max_batch), batches


class TestBatching:
    def test_queued_items_coalesce_into_one_batch(self):
        async def scenario():
            batcher, batches = collecting_batcher(max_batch=8)
            for i in range(5):
                batcher.put(i)
            batcher.start()
            await batcher.stop()
            return batches

        batches = run(scenario())
        assert batches == [[0, 1, 2, 3, 4]]

    def test_max_batch_splits_a_burst(self):
        async def scenario():
            batcher, batches = collecting_batcher(max_batch=3)
            for i in range(7):
                batcher.put(i)
            batcher.start()
            await batcher.stop()
            return batches

        batches = run(scenario())
        assert [len(b) for b in batches] == [3, 3, 1]
        assert [i for b in batches for i in b] == list(range(7))

    def test_max_batch_one_is_sequential(self):
        async def scenario():
            batcher, batches = collecting_batcher(max_batch=1)
            for i in range(4):
                batcher.put(i)
            batcher.start()
            await batcher.stop()
            return batches

        assert run(scenario()) == [[0], [1], [2], [3]]

    def test_items_put_during_a_dispatch_ride_in_the_next_batch(self):
        async def scenario():
            batches = []
            computing = asyncio.Event()
            release = asyncio.Event()

            async def dispatch(batch):
                batches.append(list(batch))
                computing.set()
                await release.wait()

            batcher = MicroBatcher(dispatch, max_batch=8)
            batcher.start()
            batcher.put("first")
            await computing.wait()  # "first" dispatched alone, still computing
            for item in ("a", "b", "c"):
                batcher.put(item)
            release.set()
            await batcher.stop()
            return batches

        assert run(scenario()) == [["first"], ["a", "b", "c"]]

    def test_zero_linger_dispatches_immediately(self):
        # an idle batcher never waits for a batchmate
        async def scenario():
            batcher, batches = collecting_batcher(max_batch=8)
            batcher.start()
            batcher.put("first")
            await asyncio.sleep(0.01)
            batcher.put("second")
            await batcher.stop()
            return batches

        assert run(scenario()) == [["first"], ["second"]]

    def test_stop_flushes_pending_items(self):
        async def scenario():
            batcher, batches = collecting_batcher(max_batch=100)
            batcher.start()
            await asyncio.sleep(0)  # batch loop parked on an empty queue
            for i in range(3):
                batcher.put(i)
            await batcher.stop()
            return batches

        batches = run(scenario())
        assert [i for b in batches for i in b] == [0, 1, 2]

    def test_counters(self):
        async def scenario():
            batcher, _ = collecting_batcher(max_batch=2)
            for i in range(5):
                batcher.put(i)
            batcher.start()
            await batcher.stop()
            return batcher

        batcher = run(scenario())
        assert batcher.items == 5
        assert batcher.batches == 3

    def test_rejects_bad_parameters(self):
        async def nop(batch):
            pass

        with pytest.raises(ValueError):
            MicroBatcher(nop, max_batch=0)

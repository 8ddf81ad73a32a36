"""Retention, corruption and concurrency behaviour of the result cache.

The on-disk cache sits under every campaign, benchmark and the serve
layer's calibration store; these tests pin down the paths that only
show up in production use: entries that must never be dropped, torn or
corrupted entry files, and many threads hitting one instance.
"""

import json
import threading

from repro.experiments.cache import ResultCache


def entry(i):
    return {"payload": i}


def key(i):
    return ResultCache.key_for({"cell": i})


class TestEviction:
    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(50):
            cache.store(key(i), entry(i))
        assert len(cache) == 50
        assert cache.stats.stores == 50
        assert all(cache.load(key(i)) == entry(i) for i in range(50))
        # a second instance over the same directory sees every entry
        assert len(ResultCache(tmp_path)) == 50


class TestCorruption:
    def test_truncated_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(key(0), entry(0))
        path = tmp_path / f"{key(0)}.json"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn write
        assert cache.load(key(0)) is None
        assert cache.stats.misses == 1

    def test_garbage_bytes_are_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = tmp_path / f"{key(1)}.json"
        path.write_bytes(b"\xff\xfe\x00 not json at all \x9c")
        assert cache.load(key(1)) is None
        assert cache.stats.misses == 1

    def test_non_object_json_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = tmp_path / f"{key(2)}.json"
        path.write_text(json.dumps([1, 2, 3]))
        assert cache.load(key(2)) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_can_be_overwritten_and_hit_again(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(key(0), entry(0))
        (tmp_path / f"{key(0)}.json").write_text("{ truncated")
        assert cache.load(key(0)) is None
        cache.store(key(0), entry(0))
        assert cache.load(key(0)) == entry(0)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1


class TestConcurrency:
    def test_stats_stay_consistent_under_concurrent_readers(self, tmp_path):
        cache = ResultCache(tmp_path)
        present = 8
        for i in range(present):
            cache.store(key(i), entry(i))
        # half the lookups hit, half miss, across many racing threads
        readers, per_reader = 8, 160  # per_reader % (2 * present) == 0
        errors = []

        def read(tid):
            try:
                for j in range(per_reader):
                    i = (tid + j) % (2 * present)
                    value = cache.load(key(i))
                    if i < present:
                        assert value == entry(i)
                    else:
                        assert value is None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=read, args=(t,)) for t in range(readers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = readers * per_reader
        assert cache.stats.lookups == total
        assert cache.stats.hits + cache.stats.misses == total
        assert cache.stats.hits == total // 2
        assert cache.stats.misses == total // 2

    def test_concurrent_hits_on_bounded_cache_keep_entry_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(4):
            cache.store(key(i), entry(i))

        def hammer(tid):
            for j in range(100):
                cache.load(key((tid + j) % 4))

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 4
        assert cache.stats.hits == 600
        assert cache.stats.misses == 0


#: big enough that one write spans many syscalls, widening any race
BIG = {"payload": "x" * 65536, "cell": list(range(2000))}
HAMMER_KEY = key("hammer")


def _store_repeatedly(root, n):
    """Pool-worker body: store one shared key ``n`` times."""
    cache = ResultCache(root)
    for _ in range(n):
        cache.store(HAMMER_KEY, BIG)
    return n


def _read_until(root, done):
    """Load the shared key until ``done()``; count bad loads after a hit.

    Once the key has been published every later load must return the
    complete value: a miss or a torn payload means a reader saw a
    half-written or vanished file.
    """
    reader = ResultCache(root)
    seen, bad = False, 0
    while not done():
        value = reader.load(HAMMER_KEY)
        if value is not None:
            seen = True
        if seen and value != BIG:
            bad += 1
    return seen, bad


class TestConcurrentWriters:
    """Many writers of one key over a shared directory (pool, fleet)."""

    def test_threads_storing_one_key_never_fail_or_tear(self, tmp_path):
        cache = ResultCache(tmp_path)
        errors = []

        def write():
            try:
                for _ in range(150):
                    cache.store(HAMMER_KEY, BIG)
            except Exception as exc:
                errors.append(exc)

        writers = [threading.Thread(target=write) for _ in range(4)]
        for t in writers:
            t.start()
        seen, bad = _read_until(tmp_path, lambda: not any(t.is_alive() for t in writers))
        for t in writers:
            t.join()
        assert errors == []
        assert seen and bad == 0
        assert cache.stats.stores == 4 * 150
        assert ResultCache(tmp_path).load(HAMMER_KEY) == BIG
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{HAMMER_KEY}.json"]

    def test_processes_storing_one_key_never_fail_or_tear(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=3) as pool:
            futures = [
                pool.submit(_store_repeatedly, tmp_path, 100) for _ in range(3)
            ]
            seen, bad = _read_until(
                tmp_path, lambda: all(f.done() for f in futures)
            )
            stored = [f.result() for f in futures]  # re-raises writer errors
        assert stored == [100, 100, 100]
        assert seen and bad == 0
        assert ResultCache(tmp_path).load(HAMMER_KEY) == BIG
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{HAMMER_KEY}.json"]

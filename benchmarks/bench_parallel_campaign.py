"""PARALLEL — design execution over a process pool with result caching.

Runs the reduced 7 * 2^(3-1) design on the simulated J90 three ways —
serially, over a process pool, and again from a warm on-disk cache —
and verifies the engine's two contracts: parallel execution reproduces
the serial records bit for bit (content-derived per-cell seeds), and a
warm cache performs zero new simulations.
"""

import tempfile
import time

from _emit import emit, record
from repro.experiments import ResultCache, reduced_design
from repro.platforms import CRAY_J90
from repro.workloads.campaign import run_workload_design


def run_three_ways(cache_dir: str):
    design = reduced_design()
    timings = {}

    t0 = time.perf_counter()
    serial_records, _ = run_workload_design(design, CRAY_J90)
    timings["serial"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel_records, _ = run_workload_design(
        design, CRAY_J90, workers=4, cache=ResultCache(cache_dir)
    )
    timings["parallel (4 workers, cold cache)"] = time.perf_counter() - t0

    cache = ResultCache(cache_dir)
    t0 = time.perf_counter()
    warm_records, simulated = run_workload_design(
        design, CRAY_J90, workers=4, cache=cache
    )
    timings["parallel (4 workers, warm cache)"] = time.perf_counter() - t0

    return (design, timings, serial_records, parallel_records, warm_records,
            simulated, cache.stats)


def render(design, timings, warm_simulated, warm_stats) -> str:
    lines = [
        f"reduced design: {len(design)} cells on the simulated J90",
        "",
    ]
    for label, seconds in timings.items():
        lines.append(f"  {label:<34s} {seconds * 1e3:9.1f} ms")
    lines.extend(
        [
            "",
            f"warm-cache run: {warm_simulated} simulations, "
            f"cache {warm_stats}",
            "serial and parallel records are identical by construction: "
            "every cell's seed derives from its content, not its position.",
        ]
    )
    return "\n".join(lines)


def test_bench_parallel_campaign(benchmark, artifact):
    with tempfile.TemporaryDirectory() as cache_dir:
        (design, timings, serial_records, parallel_records, warm_records,
         warm_simulated, warm_stats) = benchmark.pedantic(
            run_three_ways, args=(cache_dir,), rounds=1, iterations=1
        )
        artifact(
            "PARALLEL_campaign",
            render(design, timings, warm_simulated, warm_stats),
        )
        emit(
            "PARALLEL_campaign",
            [record(label, "wall_time", seconds, "s")
             for label, seconds in timings.items()]
            + [record("warm-cache", "simulations_run",
                      warm_simulated, "count")],
        )

        for a, b in zip(serial_records, parallel_records):
            assert a.breakdown == b.breakdown
            assert a.wall_stats == b.wall_stats
        for a, b in zip(serial_records, warm_records):
            assert a.breakdown == b.breakdown
        assert warm_simulated == 0
        assert warm_stats.misses == 0
        assert warm_stats.hits == len(design)

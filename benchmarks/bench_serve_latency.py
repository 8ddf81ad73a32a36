"""BENCH_serve_latency — paced-load latency quantiles of the service.

Where the throughput benchmark slams the service with everything at
once, this one replays the seeded schedule *paced* — the load
generator sleeps until each request's virtual arrival — so per-request
wall latency is meaningful.  Reported quantiles come from two clocks:
the client side (submit to response, including event-loop travel) and
the service side (admit to reply, the span the obs layer also traces).

The batcher dispatches as soon as it is idle, so at nominal load a
request's latency is its own sub-millisecond compute, the wait behind
a batch already computing when it arrived, and event-loop travel.  A
p99 within a small multiple of one compute is the "service is healthy"
signal the CI smoke job also checks.
"""

import asyncio

import numpy as np

from _emit import emit, record
from repro.serve.loadgen import LoadSpec, build_schedule, run_open_loop
from repro.serve.service import PredictionService, ServeConfig

#: nominal load: 32 clients, mixed points and paper-range sweeps
SPEC = LoadSpec(
    clients=32,
    requests_per_client=10,
    seed=7,
    sweep_fraction=0.25,
    max_servers=7,
)
#: p99 budget (seconds) on the client-side clock at nominal load; one
#: compute, the wait behind a computing batch and loop travel fit well
#: under this even on a busy CI host
P99_BUDGET = 0.25


def run_paced():
    schedule = build_schedule(SPEC)

    async def go():
        config = ServeConfig(max_queue_depth=10**6, rate=1e9, burst=10**6)
        async with PredictionService(config) as service:
            report = await run_open_loop(service.submit, schedule, pace=True)
            return report, service.latency_quantiles(), service.report()

    return asyncio.run(go())


def quantiles(latencies) -> dict:
    ordered = np.sort(np.asarray(latencies))
    return {
        "p50": float(np.quantile(ordered, 0.50)),
        "p95": float(np.quantile(ordered, 0.95)),
        "p99": float(np.quantile(ordered, 0.99)),
    }


def render(report, client_q, server_q, service_report) -> str:
    lines = [
        f"BENCH_serve_latency) paced replay: {SPEC.clients} clients x "
        f"{SPEC.requests_per_client} requests (seed {SPEC.seed}, "
        f"{SPEC.sweep_fraction:.0%} sweeps), {report.ok} served in "
        f"{report.wall:.2f} s",
        "",
        "              p50        p95        p99",
        "  client  "
        + "".join(f"{client_q[k] * 1e3:8.2f}ms " for k in ("p50", "p95", "p99")),
        "  service "
        + "".join(f"{server_q[k] * 1e3:8.2f}ms " for k in ("p50", "p95", "p99")),
        "",
        f"  mean batch occupancy {service_report['mean_occupancy']:.1f}, "
        f"p99 budget {P99_BUDGET * 1e3:.0f} ms, zero shed at nominal load",
    ]
    return "\n".join(lines)


def test_bench_serve_latency(benchmark, artifact):
    report, server_q, service_report = benchmark.pedantic(
        run_paced, rounds=1, iterations=1
    )
    client_q = quantiles(report.latencies)
    artifact(
        "BENCH_serve_latency",
        render(report, client_q, server_q, service_report),
    )
    emit(
        "BENCH_serve_latency",
        [record("client", metric, client_q[metric], "s")
         for metric in ("p50", "p95", "p99")]
        + [record("service", metric, server_q[metric], "s")
           for metric in ("p50", "p95", "p99")]
        + [record("paced", "throughput", report.throughput, "req/s")],
    )

    # nominal load: everything served, nothing shed or stuck
    assert report.ok == report.sent == len(report.responses)
    # quantiles are ordered and the tail stays within budget
    assert client_q["p50"] <= client_q["p95"] <= client_q["p99"]
    assert server_q["p50"] <= server_q["p95"] <= server_q["p99"]
    assert client_q["p99"] < P99_BUDGET
    # the service-side clock starts at admit, so it can only be tighter
    assert server_q["p99"] <= client_q["p99"] + 0.01

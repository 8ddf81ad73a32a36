"""BENCH — flushing the flight ring to a store must cost <5% on the serve hot path.

Every :class:`~repro.serve.service.PredictionService` records each
request in its :class:`~repro.serve.flight.FlightRecorder` ring; the
ring is its only per-request record.  What ``--store-out`` adds is a
store behind the ring and one flush at service stop.  Wiring that into
the throughput campaign of ``bench_serve_throughput`` may cost at most
``OVERHEAD_BUDGET`` of the store-less ring's throughput.  The rounds
interleave the two configurations so slow machine drift hits both
equally, and each takes its best round before comparing.

Fidelity is asserted before the timing means anything: on both sides
the ring must hold a row for every request sent (nothing dropped), the
flushed store must hold exactly those rows, and the *answers* must be
bit-identical with and without the store — observability that changes
the observed system is a bug, not an overhead.
"""

import asyncio
import pathlib
import tempfile

from _emit import emit, record
from repro.obs.store import TelemetryStore
from repro.serve.flight import FlightRecorder
from repro.serve.loadgen import LoadSpec, build_schedule, run_open_loop
from repro.serve.service import PredictionService, ServeConfig

#: the throughput campaign, scaled to keep 2 x ROUNDS runs fast
SPEC = LoadSpec(
    clients=32,
    requests_per_client=8,
    seed=2,
    sweep_fraction=1.0,
    max_servers=32,
)
#: admission wide enough that nothing sheds (throughput mode)
WIDE_OPEN = dict(max_queue_depth=10**6, rate=1e9, burst=10**6)
ROUNDS = 5
#: allowed relative throughput loss with a store behind the ring
OVERHEAD_BUDGET = 0.05


def run_campaign(store_dir):
    """One seeded campaign; a store behind the ring iff ``store_dir`` is given."""
    schedule = build_schedule(SPEC)

    async def go():
        flight = None
        if store_dir is not None:
            flight = FlightRecorder(store=TelemetryStore(store_dir))
        config = ServeConfig(max_batch=256, **WIDE_OPEN)
        async with PredictionService(config, flight=flight) as service:
            report = await run_open_loop(service.submit, schedule)
        return report, service

    return asyncio.run(go())


def run_interleaved(root):
    """Best-of-ROUNDS (report, service) for both configurations, interleaved."""
    plain_best = None
    flight_best = None
    for i in range(ROUNDS):
        plain = run_campaign(None)
        if plain_best is None or plain[0].throughput > plain_best[0].throughput:
            plain_best = plain
        flight = run_campaign(root / f"round-{i}")
        if flight_best is None or flight[0].throughput > flight_best[0].throughput:
            flight_best = flight
    return plain_best, flight_best


def render(plain, flight, overhead) -> str:
    lines = [
        f"BENCH_serve_flight) {SPEC.clients} clients x "
        f"{SPEC.requests_per_client} sweep requests (seed {SPEC.seed}), "
        f"best of {ROUNDS}, interleaved",
        "",
        f"  ring only:    {plain.throughput:8.0f} req/s   "
        f"wall {plain.wall * 1e3:7.1f} ms",
        f"  ring + store: {flight.throughput:8.0f} req/s   "
        f"wall {flight.wall * 1e3:7.1f} ms   (one flush at stop)",
        f"  overhead: {100 * overhead:+.1f}% "
        f"(budget < {100 * OVERHEAD_BUDGET:.0f}%), "
        "responses bit-identical with and without the store",
    ]
    return "\n".join(lines)


def test_bench_serve_flight_overhead(artifact):
    with tempfile.TemporaryDirectory() as tmp:
        (plain, plain_service), (flight_report, service) = run_interleaved(
            pathlib.Path(tmp)
        )

        # fidelity first: every request recorded, every row flushed
        for report, ring in ((plain, plain_service.flight), (flight_report, service.flight)):
            assert ring.recorded == report.sent
            assert ring.dropped == 0
        assert plain_service.flight.pending == plain.sent  # nowhere to flush
        recorder = service.flight
        assert recorder.pending == 0  # stop() flushed the ring
        assert recorder.store.rows("serve") == flight_report.sent
        # observability must not change the answers
        assert plain.canonical_responses() == flight_report.canonical_responses()
        for report in (plain, flight_report):
            assert report.ok == report.sent == len(report.responses)

    overhead = (plain.throughput - flight_report.throughput) / plain.throughput

    artifact("BENCH_serve_flight", render(plain, flight_report, overhead))
    emit(
        "BENCH_serve_flight",
        [
            record("ring-only", "throughput", plain.throughput, "req/s"),
            record("ring+store", "throughput", flight_report.throughput, "req/s"),
            record("store", "overhead", overhead, "ratio"),
        ],
    )

    assert overhead < OVERHEAD_BUDGET, (
        f"the flight store costs {100 * overhead:.1f}% throughput "
        f"(budget < {100 * OVERHEAD_BUDGET:.0f}%)"
    )

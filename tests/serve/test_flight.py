"""Flight recorder: ring semantics, flush, outcome codes, live fidelity."""

import asyncio

import pytest

from repro.obs.monitor import (
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_NAMES,
    STATUS_OK,
    STATUS_SHED_DRAIN,
    STATUS_SHED_QUEUE,
    STATUS_SHED_RATE,
)
from repro.obs.query import percentile, run_query
from repro.obs.store import TelemetryStore
from repro.serve import (
    LoadgenReport,
    LoadSpec,
    PredictionService,
    ServeConfig,
    api,
    build_schedule,
    run_open_loop,
)
from repro.serve.flight import LAYOUTS, FlightRecorder, status_code
from repro.serve.service import _Pending

WIDE_OPEN = dict(max_queue_depth=100000, rate=1e9, burst=10**6)
#: the SLO monitor's answered rule as a store filter: no SHED_STATUSES row
ANSWERED = "status!=1 and status!=2 and status!=5"


def fill(recorder, n, reply_s=0.01):
    # t_admit admit_us queue_us compute_us reply_us reply_s depth status batch
    for i in range(n):
        recorder.record(float(i), 1.0, 2.0, 3.0, 4.0, reply_s, i, STATUS_OK, 1)


# ----------------------------------------------------------------------
# ring semantics
# ----------------------------------------------------------------------
def test_snapshot_returns_rows_oldest_first():
    r = FlightRecorder(capacity=8)
    fill(r, 3)
    snap = r.snapshot()
    floats, ints = LAYOUTS["serve"]
    assert tuple(snap) == floats + ints
    assert snap["t_admit"].dtype.kind == "f" and snap["depth"].dtype.kind == "i"
    assert list(snap["t_admit"]) == [0.0, 1.0, 2.0]
    assert list(snap["depth"]) == [0, 1, 2]
    assert r.recorded == 3 and r.pending == 3


def test_wraparound_keeps_newest_and_counts_drops(tmp_path):
    r = FlightRecorder(capacity=4, store=TelemetryStore(tmp_path))
    fill(r, 6)
    assert list(r.snapshot()["t_admit"]) == [2.0, 3.0, 4.0, 5.0]
    r.flush_sync()
    assert r.dropped == 2
    assert r.pending == 0
    assert r.store.rows("serve") == 4


def test_dropped_counts_wraparound_without_a_store():
    r = FlightRecorder(capacity=4)
    fill(r, 10)
    assert (r.recorded, r.pending) == (10, 4)
    assert r.dropped == 6  # every overwritten row, though nothing flushes


def test_dropped_is_live_between_flushes_and_matches_segment_meta(tmp_path):
    r = FlightRecorder(capacity=4, store=TelemetryStore(tmp_path))
    fill(r, 6)
    assert r.dropped == 2  # before any flush
    r.flush_sync()
    assert (r.dropped, r.pending) == (2, 0)
    fill(r, 5)  # one more row lost to the wrap
    assert r.dropped == 3
    r.flush_sync()
    assert r.dropped == 3
    assert [seg["meta"]["dropped"] for seg in r.store.segments("serve")] == [2, 3]
    assert r.store.rows("serve") == 8


def test_a_failed_flush_does_not_count_its_loss_twice():
    class FailsOnce:
        calls = 0

        def append(self, dataset, columns, meta):
            self.calls += 1
            if self.calls == 1:
                raise OSError("disk full")
            return "segment"

    r = FlightRecorder(capacity=4, store=FailsOnce())
    fill(r, 6)
    with pytest.raises(OSError):
        r.flush_sync()
    assert r.dropped == 2
    assert r.flush_sync() == "segment"  # the retry writes the 4 survivors
    assert (r.dropped, r.pending) == (2, 0)


def test_record_shed_rows_never_reply():
    r = FlightRecorder(capacity=4)
    service = PredictionService(ServeConfig(), flight=r)
    shed = api.error_response("r", api.SHED, "shed:rate", "shed by rate")
    assert service._record_shed(shed, t_admit=1.0, admit_end=1.5, depth=7) is shed
    snap = r.snapshot()
    assert snap["status"][0] == STATUS_SHED_RATE
    assert snap["reply_s"][0] == 0.0
    assert snap["batch"][0] == 0
    assert snap["depth"][0] == 7 and snap["admit_us"][0] == 0.5e6


def test_flush_without_store_or_rows_is_a_noop(tmp_path):
    assert FlightRecorder().flush_sync() is None
    r = FlightRecorder(store=TelemetryStore(tmp_path))
    assert r.flush_sync() is None  # nothing recorded yet
    fill(r, 2)
    first = r.flush_sync()
    assert first is not None
    assert r.flush_sync() is None  # nothing new since
    fill(r, 1)
    assert r.store.rows("serve") == 2
    r.flush_sync()
    assert r.store.rows("serve") == 3


def test_answered_rows_are_every_held_row_but_sheds(tmp_path):
    r = FlightRecorder(capacity=4, store=TelemetryStore(tmp_path))
    r.record(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0, STATUS_SHED_RATE, 0)
    r.record(1.0, 1.0, 2.0, 3.0, 4.0, 0.25, 0, STATUS_OK, 1)
    r.flush_sync()
    # flushed rows still count; every shed status is left out
    for code, reply_s in ((STATUS_EXPIRED, 0.5), (STATUS_SHED_DRAIN, 0.0),
                          (STATUS_ERROR, 0.75)):
        r.record(2.0, 1.0, 2.0, 3.0, 4.0, reply_s, 0, code, 1)
    assert sorted(r.answered_reply_s()) == [0.25, 0.5, 0.75]
    r.record(3.0, 1.0, 2.0, 3.0, 4.0, 1.0, 0, STATUS_OK, 1)
    assert sorted(r.answered_reply_s()) == [0.5, 0.75, 1.0]  # 0.25 was overwritten
    assert r.recorded == 6


def test_service_always_holds_a_storeless_ring():
    service = PredictionService()
    assert isinstance(service.flight, FlightRecorder)
    assert service.flight.store is None
    assert PredictionService().flight is not service.flight
    ring = FlightRecorder(capacity=4)
    assert PredictionService(flight=ring).flight is ring  # empty, still used


def test_storeless_flush_takes_no_executor_hop():
    r = FlightRecorder()
    fill(r, 3)

    async def go():
        loop = asyncio.get_running_loop()

        def refuse(*_args):
            raise AssertionError("a store-less flush must not reach the executor")

        loop.run_in_executor = refuse
        return await r.flush()

    assert asyncio.run(go()) is None
    assert r.pending == 3


def test_capacity_validation():
    with pytest.raises(ValueError, match="capacity"):
        FlightRecorder(capacity=0)


def test_dataset_picks_the_row_layout(tmp_path):
    r = FlightRecorder(store=TelemetryStore(tmp_path), dataset="fleet")
    # t_admit admit_us reply_s depth status worker attempts
    r.record(1.0, 2.0, 0.5, 3, STATUS_OK, 1, 0)
    r.flush_sync()
    segment = r.store.segments("fleet")[0]
    assert segment["meta"] == {"source": "flight", "dropped": 0}
    columns = r.store.read_segment(segment["id"])
    floats, ints = LAYOUTS["fleet"]
    assert set(columns) == set(floats + ints)
    assert int(columns["worker"][0]) == 1 and float(columns["reply_s"][0]) == 0.5
    with pytest.raises(ValueError, match="row layout"):
        FlightRecorder(dataset="nope")


# ----------------------------------------------------------------------
# outcome codes
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "status, reason, code",
    [
        (api.OK, None, STATUS_OK),
        (api.SHED, "shed:rate", STATUS_SHED_RATE),
        (api.SHED, "shed:queue", STATUS_SHED_QUEUE),
        (api.SHED, "shed:drain", STATUS_SHED_DRAIN),
        (api.DEADLINE_EXPIRED, "deadline-expired", STATUS_EXPIRED),
        (api.BAD_REQUEST, "invalid-field", STATUS_ERROR),
        (api.INTERNAL, "internal-error", STATUS_ERROR),
    ],
)
def test_status_code_classifies_every_outcome(status, reason, code):
    response = (
        api.ok_response("r", {"kind": "pong"})
        if reason is None
        else api.error_response("r", status, reason)
    )
    assert status_code(response) == code
    # the load generator counts the response under the code's name
    report = LoadgenReport()
    report._account({"id": "r"}, response)
    counter = "errors" if STATUS_NAMES[code] == "error" else STATUS_NAMES[code]
    counts = report.summary()
    assert counts[counter] == 1
    assert sum(counts[name] for name in (
        "ok", "shed_rate", "shed_queue", "shed_drain", "expired", "errors"
    )) == 1


def test_async_flush_runs_off_loop(tmp_path):
    r = FlightRecorder(store=TelemetryStore(tmp_path))
    fill(r, 5)

    async def go():
        return await r.flush()

    assert asyncio.run(go()) is not None
    assert r.store.rows("serve") == 5


# ----------------------------------------------------------------------
# live service fidelity
# ----------------------------------------------------------------------
def run_flight_campaign(tmp_path, config_kwargs, spec):
    store = TelemetryStore(tmp_path)
    flight = FlightRecorder(store=store)

    async def go():
        config = ServeConfig(**config_kwargs)
        async with PredictionService(config, flight=flight) as service:
            report = await run_open_loop(service.submit, build_schedule(spec))
            return report, service

    report, service = asyncio.run(go())
    return store, flight, report, service


def test_store_quantiles_equal_service_report(tmp_path):
    spec = LoadSpec(clients=8, requests_per_client=10, seed=5, sweep_fraction=0.3)
    store, flight, report, service = run_flight_campaign(
        tmp_path, dict(max_batch=64, **WIDE_OPEN), spec
    )
    assert flight.recorded == report.sent
    assert flight.pending == 0  # service stop flushed the ring
    assert store.rows("serve") == report.sent

    # the acceptance contract: store aggregates reproduce the service's
    # own quantile report exactly (shared percentile, the ring's reply_s)
    answered = flight.answered_reply_s()
    assert len(answered) == report.sent - report.shed_rate - report.shed_queue
    served = service.latency_quantiles()
    result = run_query(
        store,
        "serve",
        where=ANSWERED,
        agg="p50(reply_s), p95(reply_s), p99(reply_s), count()",
    )
    assert result.aggregates["p50(reply_s)"] == served["p50"]
    assert result.aggregates["p95(reply_s)"] == served["p95"]
    assert result.aggregates["p99(reply_s)"] == served["p99"]
    assert result.aggregates["count()"] == float(len(answered))
    assert result.aggregates["p99(reply_s)"] == percentile(answered, 0.99)


def test_drain_shed_rows_stay_out_of_the_quantiles(tmp_path):
    """A ``shed:drain`` row (status 5) is a shed: the store filter must drop it too."""
    store = TelemetryStore(tmp_path)
    flight = FlightRecorder(store=store)

    def envelope(rid):
        query = {"platform": "j90", "molecule": "small", "servers": 2}
        return {"kind": "predict", "id": rid, "client": "c", "query": query}

    async def go():
        service = PredictionService(ServeConfig(**WIDE_OPEN), flight=flight)
        await service.start()
        await asyncio.gather(*(service.submit(envelope(f"q{i}")) for i in range(8)))
        # the stop race of test_drain: a pending lands behind the sentinel
        loop = asyncio.get_running_loop()
        now = loop.time()
        raced = _Pending(
            api.parse_request(envelope("raced")), loop.create_future(), now, None,
            admit_end=now,
        )
        stopping = loop.create_task(service.stop())
        await asyncio.sleep(0)
        service.batcher.put(raced)
        await stopping
        return service, raced.future.result()

    service, response = asyncio.run(go())
    assert response["error"]["reason"] == "shed:drain"
    assert list(store.scan("serve")["status"]).count(STATUS_SHED_DRAIN) == 1

    aggregates = "p50(reply_s), p95(reply_s), p99(reply_s), count()"
    result = run_query(store, "serve", where=ANSWERED, agg=aggregates).aggregates
    served = service.latency_quantiles()
    assert result["count()"] == float(len(flight.answered_reply_s())) == 8.0
    assert (result["p50(reply_s)"], result["p95(reply_s)"], result["p99(reply_s)"]) == (
        served["p50"], served["p95"], served["p99"]
    )
    # the two-status filter keeps the drain row and its reply_s of 0
    kept = run_query(store, "serve", where="status!=1 and status!=2", agg="count()")
    assert kept.aggregates["count()"] == 9.0


def test_quantiles_cover_the_newest_capacity_rows():
    spec = LoadSpec(clients=4, requests_per_client=10, seed=3)
    flight = FlightRecorder(capacity=16)

    async def go():
        async with PredictionService(ServeConfig(**WIDE_OPEN), flight=flight) as service:
            report = await run_open_loop(service.submit, build_schedule(spec))
        return report, service

    report, service = asyncio.run(go())
    assert flight.recorded == report.sent == 40
    newest = list(flight.snapshot()["reply_s"])  # store-less: nothing flushed
    assert len(newest) == 16
    assert service.latency_quantiles() == {
        "p50": percentile(newest, 0.50),
        "p95": percentile(newest, 0.95),
        "p99": percentile(newest, 0.99),
    }


def test_shed_requests_leave_shed_rows(tmp_path):
    spec = LoadSpec(clients=8, requests_per_client=10, seed=2)
    store, flight, report, _service = run_flight_campaign(
        tmp_path,
        dict(max_batch=64, max_queue_depth=100000, rate=40.0, burst=4),
        spec,
    )
    assert report.shed_rate > 0
    table = store.scan("serve")
    shed = run_query(store, "serve", where="status==1", agg="count()")
    assert shed.aggregates["count()"] == float(report.shed_rate)
    assert store.rows("serve") == report.sent
    # shed rows never reply and never ride in a batch
    shed_rows = table["status"] == STATUS_SHED_RATE
    assert float(table["reply_s"][shed_rows].max()) == 0.0
    assert int(table["batch"][shed_rows].max()) == 0


def test_flight_recording_does_not_change_answers(tmp_path):
    spec = LoadSpec(clients=6, requests_per_client=6, seed=9, sweep_fraction=0.5)

    async def plain():
        async with PredictionService(ServeConfig(max_batch=64, **WIDE_OPEN)) as s:
            return await run_open_loop(s.submit, build_schedule(spec))

    baseline = asyncio.run(plain())
    _store, _flight, report, _service = run_flight_campaign(
        tmp_path, dict(max_batch=64, **WIDE_OPEN), spec
    )
    assert baseline.canonical_responses() == report.canonical_responses()

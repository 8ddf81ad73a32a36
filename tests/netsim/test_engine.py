"""Unit tests for the discrete-event engine.

The whole module runs once per scheduler: the production calendar
queue (``calendar``) and the test-only reference binary heap
(``heap``, :mod:`tests.netsim.heap_engine`).  The two must be
observationally identical — same firing order, same clocks, same
counters — which is also pinned adversarially by
``test_scheduler_differential.py``.
"""

import pytest

from repro.errors import DeadlockError, PastEventError, SimulationError

from .heap_engine import ENGINES


@pytest.fixture(params=tuple(ENGINES))
def make_engine(request):
    """Factory for an engine of the parametrized scheduler kind."""
    return ENGINES[request.param]


def test_time_starts_at_zero(make_engine):
    assert make_engine().now == 0.0


def test_events_fire_in_time_order(make_engine):
    eng = make_engine()
    fired = []
    eng.schedule(2.0, lambda: fired.append("late"))
    eng.schedule(1.0, lambda: fired.append("early"))
    eng.schedule(1.5, lambda: fired.append("middle"))
    eng.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_fire_in_schedule_order(make_engine):
    eng = make_engine()
    fired = []
    for i in range(10):
        eng.schedule(1.0, lambda i=i: fired.append(i))
    eng.run()
    assert fired == list(range(10))


def test_now_advances_to_event_time(make_engine):
    eng = make_engine()
    seen = []
    eng.schedule(3.25, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [3.25]
    assert eng.now == 3.25


def test_negative_delay_rejected(make_engine):
    eng = make_engine()
    with pytest.raises(SimulationError):
        eng.schedule(-0.1, lambda: None)


def test_run_until_stops_early(make_engine):
    eng = make_engine()
    fired = []
    eng.schedule(1.0, lambda: fired.append(1))
    eng.schedule(5.0, lambda: fired.append(5))
    t = eng.run(until=2.0)
    assert fired == [1]
    assert t == 2.0
    assert eng.pending() == 1
    eng.run()
    assert fired == [1, 5]


def test_nested_scheduling_from_callbacks(make_engine):
    eng = make_engine()
    fired = []

    def outer():
        fired.append(("outer", eng.now))
        eng.schedule(1.0, inner)

    def inner():
        fired.append(("inner", eng.now))

    eng.schedule(1.0, outer)
    eng.run()
    assert fired == [("outer", 1.0), ("inner", 2.0)]


def test_schedule_at_absolute_time(make_engine):
    eng = make_engine()
    seen = []
    eng.schedule(1.0, lambda: eng.schedule_at(4.0, lambda: seen.append(eng.now)))
    eng.run()
    assert seen == [4.0]


def test_schedule_at_past_raises_dedicated_error(make_engine):
    eng = make_engine()
    eng.schedule(2.0, lambda: None)
    eng.run()
    with pytest.raises(PastEventError, match=r"t=1\.0.*now=2\.0") as excinfo:
        eng.schedule_at(1.0, lambda: None)
    assert excinfo.value.time == 1.0
    assert excinfo.value.now == 2.0


def test_schedule_at_current_time_allowed(make_engine):
    eng = make_engine()
    fired = []
    eng.schedule(1.0, lambda: eng.schedule_at(eng.now, lambda: fired.append(eng.now)))
    eng.run()
    assert fired == [1.0]


def test_events_executed_counter(make_engine):
    eng = make_engine()
    for _ in range(5):
        eng.schedule(1.0, lambda: None)
    eng.run()
    assert eng.events_executed == 5


def test_events_scheduled_counts_all_schedules(make_engine):
    eng = make_engine()
    eng.schedule(1.0, lambda: eng.schedule(0.5, lambda: None))
    eng.schedule(1.0, lambda: None)
    eng.run()
    assert eng.events_scheduled == 3
    assert eng.events_executed == 3


def test_run_all_raises_on_blocked_processes(make_engine):
    eng = make_engine()
    eng.blocked_processes = 1
    with pytest.raises(DeadlockError):
        eng.run_all()


def test_reentrant_run_rejected(make_engine):
    eng = make_engine()
    errors = []

    def recurse():
        try:
            eng.run()
        except SimulationError as exc:
            errors.append(exc)

    eng.schedule(0.0, recurse)
    eng.run()
    assert len(errors) == 1


def test_zero_delay_events_fire_at_current_time(make_engine):
    eng = make_engine()
    times = []
    eng.schedule(1.0, lambda: eng.schedule(0.0, lambda: times.append(eng.now)))
    eng.run()
    assert times == [1.0]


def test_run_until_advances_clock_when_queue_drains_early(make_engine):
    # regression: the clock must land on `until` even when no event
    # exists beyond it — run(until=t) used to return the last event time
    eng = make_engine()
    eng.schedule(1.0, lambda: None)
    assert eng.run(until=5.0) == 5.0
    assert eng.now == 5.0


def test_run_until_on_empty_queue_advances_clock(make_engine):
    eng = make_engine()
    assert eng.run(until=2.5) == 2.5
    assert eng.now == 2.5


def test_run_until_result_independent_of_later_events(make_engine):
    # the two queues below must stop at the same time: the presence of
    # an event after the horizon may not change the returned clock
    with_later = make_engine()
    with_later.schedule(1.0, lambda: None)
    with_later.schedule(9.0, lambda: None)
    without_later = make_engine()
    without_later.schedule(1.0, lambda: None)
    assert with_later.run(until=3.0) == without_later.run(until=3.0) == 3.0


def test_run_until_in_the_past_does_not_rewind_clock(make_engine):
    eng = make_engine()
    eng.schedule(2.0, lambda: None)
    eng.schedule(10.0, lambda: None)
    assert eng.run(until=3.0) == 3.0
    # a second run with an earlier horizon must not go backwards
    assert eng.run(until=1.0) == 3.0
    assert eng.now == 3.0


def test_event_exactly_at_until_fires_before_clock_parks(make_engine):
    # regression: `time > until` is the stop condition, not `>=` — an
    # event scheduled exactly on the horizon belongs to the run
    eng = make_engine()
    fired = []
    eng.schedule(2.0, lambda: fired.append(eng.now))
    assert eng.run(until=2.0) == 2.0
    assert fired == [2.0]
    assert eng.pending() == 0


def test_zero_delay_chain_at_until_completes(make_engine):
    # zero-delay follow-ups scheduled *by* the at-horizon event are at
    # the same instant, hence still inside the horizon
    eng = make_engine()
    fired = []
    eng.schedule(2.0, lambda: eng.schedule(0.0, lambda: fired.append(eng.now)))
    eng.run(until=2.0)
    assert fired == [2.0]


def test_second_run_with_earlier_until_identical_across_schedulers():
    # regression: both schedulers must treat a redundant earlier horizon
    # as the same no-op, leaving queue contents and counters untouched
    def drive(kind):
        eng = ENGINES[kind]()
        fired = []
        for d in (1.0, 2.0, 2.0, 4.0):
            eng.schedule(d, lambda d=d: fired.append((d, eng.now)))
        t1 = eng.run(until=3.0)
        t2 = eng.run(until=1.0)  # earlier than the clock: no-op
        t3 = eng.run()
        return fired, (t1, t2, t3), eng.events_executed, eng.pending()

    assert drive("calendar") == drive("heap")


def test_callback_exception_preserves_remaining_events(make_engine):
    # a raising callback must not orphan later events at the same
    # instant: the engine stays consistent and a subsequent run()
    # executes the remainder in the original order
    eng = make_engine()
    fired = []

    def boom():
        raise RuntimeError("app bug")

    eng.schedule(1.0, lambda: fired.append("a"))
    eng.schedule(1.0, boom)
    eng.schedule(1.0, lambda: fired.append("b"))
    eng.schedule(2.0, lambda: fired.append("c"))
    with pytest.raises(RuntimeError):
        eng.run()
    assert fired == ["a"]
    assert eng.pending() == 2
    eng.run()
    assert fired == ["a", "b", "c"]


def test_run_all_reports_blocked_process_count(make_engine):
    eng = make_engine()
    eng.blocked_processes = 2
    with pytest.raises(DeadlockError, match="2 process"):
        eng.run_all()


def test_max_queue_depth_identical_across_schedulers():
    def drive(kind):
        eng = ENGINES[kind]()
        for d in (3.0, 1.0, 1.0, 2.0, 2.0, 2.0):
            eng.schedule(d, lambda: None)
        eng.run()
        return eng.max_queue_depth

    assert drive("calendar") == drive("heap") == 6

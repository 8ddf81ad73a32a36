"""Differential property tests: calendar scheduler vs. heap scheduler.

The calendar queue in ``repro.netsim.engine`` is a performance
replacement for a binary-heap scheduler, kept as a test-only reference
(:mod:`tests.netsim.heap_engine`) precisely so it can be checked like
this: run the *same randomized event program* on both implementations and
require bit-identical observable behaviour — firing order (including
FIFO order within one timestamp), clocks at every event, horizon
handling, and every public counter.

Programs are generated from seeded ``random.Random`` instances so
failures reproduce exactly; delays are drawn from a small pool to
force heavy timestamp collisions (the case where the two scheduler
data structures differ most).
"""

import random

import pytest

from .heap_engine import ENGINES

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dep
    HAVE_HYPOTHESIS = False

#: Delay pool biased towards collisions and zero-delay chains.
DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 1.0, 2.0, 3.5)


def run_program(scheduler: str, seed: int, n_initial: int = 20):
    """Execute one randomized event program; return its full observable trace.

    Every callback records ``(its id, engine.now)`` and may schedule
    follow-up events (nested scheduling is where tie-breaking between
    "old" and "new" events at one instant matters).  The run is split
    across several ``run(until=...)`` horizons drawn from the same rng,
    including redundant past horizons, before a final drain.
    """
    rng = random.Random(seed)
    eng = ENGINES[scheduler]()
    trace = []
    budget = [60]  # cap total events so programs terminate

    def make_callback(ident):
        def callback():
            trace.append((ident, eng.now))
            while budget[0] > 0 and rng.random() < 0.4:
                budget[0] -= 1
                child = f"{ident}.{budget[0]}"
                eng.schedule(rng.choice(DELAYS), make_callback(child))

        return callback

    for i in range(n_initial):
        eng.schedule(rng.choice(DELAYS), make_callback(f"e{i}"))

    clocks = []
    for _ in range(rng.randrange(4)):
        clocks.append(eng.run(until=rng.choice((0.5, 1.0, 1.0, 2.0, 6.0))))
    clocks.append(eng.run())

    return {
        "trace": trace,
        "clocks": clocks,
        "now": eng.now,
        "executed": eng.events_executed,
        "scheduled": eng.events_scheduled,
        "max_depth": eng.max_queue_depth,
        "pending": eng.pending(),
    }


@pytest.mark.parametrize("seed", range(25))
def test_calendar_and_heap_traces_identical(seed):
    results = [run_program(s, seed) for s in ENGINES]
    assert results[0] == results[1], (
        f"scheduler divergence for seed={seed}: "
        f"calendar={results[0]!r} heap={results[1]!r}"
    )


@pytest.mark.parametrize("seed", range(10))
def test_differential_under_heavy_collisions(seed):
    # every event lands on one of two timestamps: FIFO-within-instant
    # is the entire ordering contract here
    rng = random.Random(seed)

    def drive(scheduler):
        eng = ENGINES[scheduler]()
        fired = []
        rng_local = random.Random(seed)
        for i in range(40):
            t = rng_local.choice((1.0, 2.0))
            eng.schedule(t, lambda i=i: fired.append((i, eng.now)))
        eng.run()
        return fired

    del rng  # only seed matters; each drive re-derives its own stream
    assert drive("calendar") == drive("heap")


if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(
        delays=st.lists(
            st.sampled_from(DELAYS), min_size=1, max_size=30
        ),
        until=st.sampled_from((None, 0.5, 1.0, 2.0)),
    )
    def test_hypothesis_differential(delays, until):
        def drive(scheduler):
            eng = ENGINES[scheduler]()
            fired = []
            for i, d in enumerate(delays):
                eng.schedule(d, lambda i=i: fired.append((i, eng.now)))
            first = eng.run() if until is None else eng.run(until=until)
            final = eng.run()
            return fired, first, final, eng.events_executed

        assert drive("calendar") == drive("heap")

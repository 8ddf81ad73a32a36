"""Differential tests for the accounted barrier cost.

The breakdown's ``sync`` term is read from
:attr:`~repro.netsim.SimProcess.sync_seconds`, which the barrier manager
adds to at every release, instead of re-summing the tracer's ``sync``
spans.  These tests pin the two sources to each other bit for bit, and
pin a run that records no trace to its traced twin.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import ApplicationParams
from repro.netsim import (
    Barrier,
    Cluster,
    Compute,
    Node,
    Recv,
    Send,
    SwitchedFabric,
    constant_rate,
)
from repro.netsim.faults import FaultSpec, NodeCrash
from repro.obs import ObsSession
from repro.opal.complexes import MEDIUM, SMALL
from repro.opal.parallel import run_parallel_opal
from repro.platforms import CRAY_J90


def build_cluster(n_nodes, trace):
    cluster = Cluster(
        lambda e: SwitchedFabric(e, latency=1e-4, bandwidth=1e7), seed=0, trace=trace
    )
    nodes = [
        cluster.add_node(Node(cluster.engine, i, constant_rate(1e8)))
        for i in range(n_nodes)
    ]
    return cluster, nodes


@st.composite
def barrier_programs(draw):
    """n processes, each: one ring message, then rounds of compute and
    one shared barrier name (a new generation per round), optionally
    with one crash that purges a waiting or computing member."""
    n = draw(st.integers(2, 6))
    rounds = draw(st.integers(1, 4))
    delays = draw(
        st.lists(
            st.lists(st.floats(0.0, 0.2), min_size=rounds, max_size=rounds),
            min_size=n,
            max_size=n,
        )
    )
    costs = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 0.05)),
            min_size=rounds,
            max_size=rounds,
        )
    )
    # crashes wait for the ring messages (delivered by ~1 ms), so a
    # receive never waits on a dead sender
    crash = draw(
        st.none()
        | st.tuples(st.integers(0, n - 1), st.floats(0.01, 0.5), st.floats(0.0, 0.05))
    )
    return n, delays, costs, crash


def simulate(program, trace):
    n, delays, costs, crash = program
    cluster, nodes = build_cluster(n, trace)
    procs = []
    tids = []
    # the group shrinks as soon as a member is killed
    cluster.barriers.set_count_provider(
        "round", lambda: sum(not p.killed for p in procs)
    )

    def body(ctx, i, row):
        yield Send(tids[(i + 1) % n], nbytes=8, tag=1)
        yield Recv(source=tids[(i - 1) % n], tag=1)
        for delay, cost in zip(row, costs):
            yield Compute(seconds=delay)
            yield Barrier("round", count=n, cost=cost)

    for i in range(n):
        procs.append(cluster.spawn(f"p{i}", nodes[i], body, i, delays[i]))
    tids.extend(p.tid for p in procs)
    if crash is not None:
        victim, at, latency = crash
        cluster.engine.schedule(at, lambda: cluster.crash_node(victim, latency))
    cluster.run()
    return cluster, procs


@given(barrier_programs())
@settings(max_examples=60, deadline=None)
def test_sync_total_equals_the_traced_sync_spans(program):
    cluster, procs = simulate(program, trace=True)
    rows = cluster.tracer.by_process()
    for proc in procs:
        assert proc.sync_seconds == rows.get(proc.name, {}).get("sync", 0.0)


@given(barrier_programs())
@settings(max_examples=60, deadline=None)
def test_an_untraced_run_matches_its_traced_twin(program):
    traced, traced_procs = simulate(program, trace=True)
    quiet, quiet_procs = simulate(program, trace=False)
    assert [p.sync_seconds for p in quiet_procs] == [
        p.sync_seconds for p in traced_procs
    ]
    assert [p.killed for p in quiet_procs] == [p.killed for p in traced_procs]
    assert quiet.engine.now == traced.engine.now
    assert quiet.engine.events_executed == traced.engine.events_executed
    assert traced.tracer.spans and traced.tracer.flows
    assert quiet.tracer.spans == [] and quiet.tracer.flows == []


# ----------------------------------------------------------------------
SMALL_APP = ApplicationParams(molecule=SMALL, steps=4, servers=3, cutoff=10.0)
CRASH_APP = ApplicationParams(molecule=MEDIUM, steps=6, servers=4, update_interval=3)

CASES = {
    "accounted": (SMALL_APP, {}),
    "overlapped": (SMALL_APP, {"sync_mode": "overlapped"}),
    "chaos": (
        SMALL_APP,
        {"faults": FaultSpec.parse("drop=0.05,delay=0.05,delay_scale=0.05,timeout=5")},
    ),
    "failover": (
        CRASH_APP,
        {"faults": FaultSpec(crashes=(NodeCrash(2, 1.5),), rpc_timeout=5.0)},
    ),
}


def measured(result):
    return (
        result.wall_time,
        result.breakdown,
        result.client_phases,
        result.server_update_seconds,
        result.server_energy_seconds,
        result.flops_counted,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_observing_an_opal_run_does_not_change_its_measurement(case):
    app, kwargs = CASES[case]
    plain = run_parallel_opal(app, CRAY_J90, seed=3, **kwargs)
    session = ObsSession()
    observed = run_parallel_opal(app, CRAY_J90, seed=3, obs=session, **kwargs)
    kept = run_parallel_opal(app, CRAY_J90, seed=3, keep_cluster=True, **kwargs)

    assert measured(observed) == measured(plain)
    assert measured(kept) == measured(plain)
    assert plain.cluster is None
    assert session.tracer.spans and session.tracer.flows
    assert kept.cluster.tracer.spans and kept.cluster.tracer.flows
    # the retired source of the sync term, read from the kept trace
    client_rows = kept.cluster.tracer.by_process()["opal-client"]
    assert plain.breakdown.sync == client_rows.get("sync", 0.0)
    if case == "overlapped":
        assert plain.breakdown.sync == 0.0
    if case == "chaos":
        counters = kept.cluster.metrics.counters
        assert counters["faults.drops"].value > 0
        assert counters["faults.delays"].value > 0
    if case == "failover":
        assert plain.servers_failed and plain.failovers >= 1

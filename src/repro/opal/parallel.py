"""The parallel Opal client/server program over Sciddle on the simulator.

Faithful to the structure in Section 2.1 of the paper:

* one **client** coordinates the run and computes the few remaining
  (bonded) interactions plus the reduction of the partial results into
  total energy / volume / pressure / temperature;
* ``p`` **servers** own a pseudo-random share of the pair work, keep the
  replicated global interaction data, and per step service two RPCs:
  ``update_lists`` (when the step is an update step) and
  ``eval_nonbonded``;
* the client sends only the atom coordinates (``alpha * n`` bytes); the
  energy reply returns the two partial energies plus the gradients
  (``alpha * n`` bytes again, eq. 9); the update reply is a bare
  completion message (eq. 8).

With ``sync_mode='accounted'`` the run uses the paper's modified
middleware: explicit barriers bracket every phase so communication,
computation, synchronization and idle time separate exactly (Section
3.3).  With ``sync_mode='overlapped'`` the original Sciddle behaviour is
simulated: no barriers, maximal overlap, and only the wall-clock time is
trustworthy — running both quantifies the <5% accounting overhead the
paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.breakdown import TimeBreakdown
from ..core.parameters import ApplicationParams
from ..errors import FaultError, RpcTimeoutError, ServerDeadError, SimulationError
from ..hpm import PhaseAccountant
from ..netsim import Cluster, FaultPlan, FaultSpec
from ..obs.session import ObsSession
from ..obs.session import run_label as _make_run_label
from ..pvm import PvmSystem, PvmTask
from ..sciddle import (
    ResilientSciddleClient,
    RetryPolicy,
    RpcReply,
    SciddleClient,
    SciddleInterface,
    SciddleServer,
    ServerHealth,
    SyncDiscipline,
)
from .workload import OpalWorkload


def make_opal_interface() -> SciddleInterface:
    """The remote interface the Sciddle stub generator would compile."""
    iface = SciddleInterface("opal")
    iface.procedure(
        "update_lists",
        doc="rebuild this server's list of active pairs from fresh coordinates",
    )
    iface.procedure(
        "eval_nonbonded",
        doc="evaluate partial Van der Waals / Coulomb energies and gradients",
    )
    return iface


@dataclass
class OpalRunResult:
    """Everything measured during one simulated Opal run."""

    app: ApplicationParams
    platform_name: str
    sync_mode: str
    wall_time: float
    #: the paper's response variables (client-perspective, additive)
    breakdown: TimeBreakdown
    #: per-server compute seconds for the two routines
    server_update_seconds: List[float] = field(default_factory=list)
    server_energy_seconds: List[float] = field(default_factory=list)
    #: client accountant categories -> seconds
    client_phases: Dict[str, float] = field(default_factory=dict)
    #: counted flops summed over all nodes
    flops_counted: float = 0.0
    barriers_executed: int = 0
    #: graceful-degradation record: original indices of servers that died
    #: mid-run and had their partition redistributed across survivors
    servers_failed: List[int] = field(default_factory=list)
    failovers: int = 0
    rpc_retries: int = 0
    rpc_timeouts: int = 0
    cluster: Optional[Cluster] = None

    @property
    def imbalance(self) -> float:
        """max/mean of per-server energy compute time."""
        if not self.server_energy_seconds:
            return 1.0
        arr = np.asarray(self.server_energy_seconds)
        return float(arr.max() / arr.mean()) if arr.mean() > 0 else 1.0


# ----------------------------------------------------------------------
def _server_body(
    task: PvmTask,
    iface: SciddleInterface,
    sync: SyncDiscipline,
    workload: OpalWorkload,
    index: int,
    accountant: PhaseAccountant,
):
    """One Opal server: replicate global data, then serve RPCs."""
    update_flops = float(workload.server_update_flops()[index])
    energy_flops = float(workload.server_energy_flops()[index])
    working_set = workload.server_working_set()

    # ``bar`` labels the barrier round: the resilient client re-issues a
    # phase's remaining work under fresh labels ("{step}.r{n}") after a
    # failover, so recovery barriers never collide with the original
    # round's.  ``scale`` stretches this server's share when it absorbs a
    # dead peer's partition.  The plain client sends neither key, and the
    # defaults reproduce today's labels and flops exactly.
    def update_lists(t: PvmTask, args):
        bar = args.get("bar", args["step"])
        scale = float(args.get("scale", 1.0))
        # start-of-phase barrier (paper's instrumentation discipline),
        # then the pure compute interval is what the accountant brackets
        yield from sync.phase_barrier(t, f"upd_start@{bar}")
        accountant.begin("par:update_lists")
        yield from t.compute(flops=update_flops * scale, working_set=working_set)
        accountant.end()
        yield from sync.phase_barrier(t, f"upd_end@{bar}")
        return RpcReply(nbytes=workload.ack_nbytes)

    def eval_nonbonded(t: PvmTask, args):
        bar = args.get("bar", args["step"])
        scale = float(args.get("scale", 1.0))
        yield from sync.phase_barrier(t, f"nbi_start@{bar}")
        accountant.begin("par:eval_nonbonded")
        yield from t.compute(flops=energy_flops * scale, working_set=working_set)
        accountant.end()
        yield from sync.phase_barrier(t, f"nbi_end@{bar}")
        return RpcReply(
            nbytes=workload.result_nbytes,
            payload={"evdw": 0.0, "ecoul": 0.0},
        )

    server = SciddleServer(task, iface)
    server.bind("update_lists", update_lists)
    server.bind("eval_nonbonded", eval_nonbonded)
    yield from server.run()


def _client_body(
    task: PvmTask,
    iface: SciddleInterface,
    sync: SyncDiscipline,
    workload: OpalWorkload,
    server_tids: List[int],
    accountant: PhaseAccountant,
    result_slot: dict,
    retry_policy: Optional[RetryPolicy] = None,
    health: Optional[ServerHealth] = None,
):
    """The Opal client: drive s simulation steps, then shut servers down.

    Without a retry policy this is the classic fragile client (exactly
    the paper's program).  With one, RPCs are deadline-bounded and
    retried, and a server declared dead triggers graceful degradation:
    its partition is redistributed across the survivors (via the
    ``scale`` argument) in recovery rounds with fresh barrier labels,
    and the run continues on the shrunk group.
    """
    app = workload.app
    t_start = task.now

    if retry_policy is None:
        client = SciddleClient(task, iface, server_tids, accountant=accountant)

        for step in range(app.steps):
            is_update_step = step % app.update_interval == 0
            # one shared payload shell per phase: the handlers only read
            # the args, so every server can carry the same dict instead
            # of p per-call allocations
            phase_args = {"step": step}

            if is_update_step:
                # ---- pair-list update phase ------------------------------
                # calls go out first (servers must have their request in
                # hand before anyone can reach the phase barrier), then the
                # start barrier separates communication from computation,
                # the end barrier separates computation from the returns.
                handles = yield from client.call_all(
                    "update_lists",
                    args_for=lambda i, tid: phase_args,
                    nbytes=workload.coords_nbytes,
                    category="comm:call_upd",
                )
                yield from sync.phase_barrier(task, f"upd_start@{step}")
                yield from sync.phase_barrier(task, f"upd_end@{step}")
                yield from client.wait_all(handles, category="comm:return_upd")

            # ---- non-bonded energy evaluation phase ----------------------
            handles = yield from client.call_all(
                "eval_nonbonded",
                args_for=lambda i, tid: phase_args,
                nbytes=workload.coords_nbytes,
                category="comm:call_nbi",
            )
            yield from sync.phase_barrier(task, f"nbi_start@{step}")
            yield from sync.phase_barrier(task, f"nbi_end@{step}")
            yield from client.wait_all(handles, category="comm:return_nbi")

            # ---- sequential work: bonded terms + reduction ----------------
            accountant.begin("seq_comp")
            yield from task.compute(
                flops=workload.seq_flops_per_step,
                working_set=workload.client_working_set(),
            )
            accountant.end()

        yield from client.shutdown()
        result_slot["wall"] = task.now - t_start
        return

    # ---- resilient path ----------------------------------------------
    client = ResilientSciddleClient(
        task,
        iface,
        server_tids,
        policy=retry_policy,
        health=health,
        accountant=accountant,
    )
    health = client.health
    m_failovers = task.ctx.cluster.metrics.counter("opal.failovers")
    live_idx = list(range(len(server_tids)))
    failed: List[int] = []
    result_slot["failed"] = failed
    upd_shares = [float(f) for f in workload.server_update_flops()]
    nbi_shares = [float(f) for f in workload.server_energy_flops()]

    def _handle_death(idx: int):
        """Ostracize one server and shrink the working group."""
        if idx not in live_idx:
            return
        tid = server_tids[idx]
        start = task.now
        accountant.begin("failover")
        # shrinking health/sync first is safe here: the dead server has
        # no outstanding barrier arrivals (see module protocol notes)
        health.mark_dead(tid)
        yield from client.quarantine(tid)
        accountant.end()
        client.remove_server(tid)
        live_idx.remove(idx)
        failed.append(idx)
        m_failovers.inc()
        task.ctx.trace(
            "failover",
            start,
            task.now,
            detail=f"server{idx} (tid {tid}) removed; {len(live_idx)} survive",
        )

    def _phase(step: int, proc: str, prefix: str, shares: List[float]):
        """Run one phase to completion, redistributing after deaths.

        Round 0 issues each live server its own share (``scale`` 1.0,
        barrier labels identical to the plain client's).  If servers die
        the loop re-issues the *unexecuted* fraction of the phase across
        the survivors under fresh labels until the whole partition has
        been computed.
        """
        total = sum(shares)
        executed = 0.0
        round_no = 0
        while True:
            if not live_idx:
                raise SimulationError(
                    f"all {len(server_tids)} Opal servers died before "
                    f"step {step} ({prefix} phase) could complete"
                )
            remaining = total - executed
            bar = f"{step}" if round_no == 0 else f"{step}.r{round_no}"
            live_sum = sum(shares[i] for i in live_idx)
            scale = remaining / live_sum if live_sum > 0 else 1.0
            handles = []
            for i in list(live_idx):
                try:
                    handle = yield from client.call_async(
                        server_tids[i],
                        proc,
                        {"step": step, "bar": bar, "scale": scale},
                        nbytes=workload.coords_nbytes,
                        category=f"comm:call_{prefix}",
                    )
                    handles.append((i, handle))
                except ServerDeadError:
                    yield from _handle_death(i)
            yield from sync.phase_barrier(task, f"{prefix}_start@{bar}")
            yield from sync.phase_barrier(task, f"{prefix}_end@{bar}")
            for i, handle in handles:
                try:
                    yield from client.wait(handle, category=f"comm:return_{prefix}")
                    executed += shares[i] * scale
                except (RpcTimeoutError, ServerDeadError):
                    # retry budget exhausted or server declared dead:
                    # either way its slice of this round was lost
                    yield from _handle_death(i)
            round_no += 1
            if total - executed <= total * 1e-9:
                return

    for step in range(app.steps):
        if step % app.update_interval == 0:
            yield from _phase(step, "update_lists", "upd", upd_shares)
        yield from _phase(step, "eval_nonbonded", "nbi", nbi_shares)

        accountant.begin("seq_comp")
        yield from task.compute(
            flops=workload.seq_flops_per_step,
            working_set=workload.client_working_set(),
        )
        accountant.end()

    yield from client.shutdown()
    result_slot["wall"] = task.now - t_start


# ----------------------------------------------------------------------
def run_parallel_opal(
    app: ApplicationParams,
    platform,
    sync_mode: str = "accounted",
    seed: int = 0,
    jitter_sigma: float = 0.0,
    defect: float = 0.1,
    share_noise: float = 0.01,
    keep_cluster: bool = False,
    obs: Optional[ObsSession] = None,
    run_label: Optional[str] = None,
    faults: Optional[FaultSpec] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> OpalRunResult:
    """Simulate one full Opal run on ``platform`` (a PlatformSpec).

    Returns the measured :class:`OpalRunResult`; the breakdown is
    reconstructed exactly as the paper's instrumentation does it —
    middleware accountants on every process plus the barrier discipline
    (see module docstring).  In ``overlapped`` mode the per-category
    breakdown degenerates: everything un-attributable lands in ``idle``
    (which is precisely the paper's complaint about plain Sciddle).

    With ``obs=`` the run's trace, flow edges, metrics and measured
    breakdown are folded into that :class:`~repro.obs.ObsSession` under
    ``run_label`` (a deterministic label is derived when omitted).
    ``keep_cluster=True`` returns the cluster with its full trace.  A
    run with neither records no spans or flow edges: the breakdown
    reads accountant totals and the client's accounted barrier cost
    (:attr:`~repro.netsim.SimProcess.sync_seconds`), not the trace.

    ``faults=`` installs a seed-deterministic
    :class:`~repro.netsim.FaultPlan` (message drops / delay spikes /
    outages / crashes / slowdowns) *and* switches the client to the
    resilient Sciddle stub, deriving its :class:`RetryPolicy` from the
    spec unless ``retry_policy=`` overrides it.  Passing only
    ``retry_policy=`` runs resiliently on a healthy cluster (the
    zero-fault overhead measurement).  Crashing the client's own node
    is rejected: the paper's program has a single coordinator.
    """
    p = app.servers
    workload = OpalWorkload(app, seed=seed, defect=defect, share_noise=share_noise)
    cluster = platform.build_cluster(
        p + 1,
        seed=seed,
        jitter_sigma=jitter_sigma,
        trace=obs is not None or keep_cluster,
    )
    pvm = PvmSystem(cluster, barrier_cost=platform.sync_cost)
    iface = make_opal_interface()
    sync = SyncDiscipline(sync_mode, group="opal", count=p + 1)
    # phase barriers count only live group members, so a crashed server
    # can never wedge the survivors (no-op while nobody is dead)
    cluster.barriers.set_count_provider(
        f"pvm:{sync.group}:", lambda: sync.live_count
    )

    resilient = faults is not None or retry_policy is not None
    if resilient and retry_policy is None:
        retry_policy = RetryPolicy.from_spec(faults)

    clock = lambda: cluster.engine.now  # noqa: E731
    client_node = platform.place(cluster, 0)
    if faults is not None:
        for crash in faults.crashes:
            if crash.node == client_node.node_id:
                raise FaultError(
                    f"cannot crash node {crash.node}: it hosts the Opal "
                    "client (the single coordinator)"
                )
        if faults.enabled:
            FaultPlan(faults, cluster.rng).install(cluster)
    client_acct = PhaseAccountant(
        clock, client_node.hpm, tracer=cluster.tracer, proc="opal-client"
    )
    server_accts = []
    server_procs = []
    for i in range(p):
        node = platform.place(cluster, i + 1)
        acct = PhaseAccountant(
            clock, node.hpm, tracer=cluster.tracer, proc=f"server{i}"
        )
        server_accts.append(acct)
        proc = pvm.spawn(
            f"server{i}", node, _server_body, iface, sync, workload, i, acct
        )
        server_procs.append(proc)

    health: Optional[ServerHealth] = None
    if resilient:
        health = ServerHealth(retry_policy.death_threshold)
        health.on_death(sync.mark_dead)
        server_tid_set = {sp.tid for sp in server_procs}

        def _crash_detected(proc) -> None:
            if proc.tid in server_tid_set:
                health.mark_dead(proc.tid)

        cluster.add_death_listener(_crash_detected)

    result_slot: dict = {}
    client_proc = pvm.spawn(
        "opal-client",
        client_node,
        _client_body,
        iface,
        sync,
        workload,
        [sp.tid for sp in server_procs],
        client_acct,
        result_slot,
        retry_policy=retry_policy,
        health=health,
    )
    pvm.run()
    wall = result_slot["wall"]

    # ---- reconstruct the paper's response variables -------------------
    upd_secs = [a.seconds("par:update_lists") for a in server_accts]
    nbi_secs = [a.seconds("par:eval_nonbonded") for a in server_accts]
    t_update = float(np.mean(upd_secs)) if upd_secs else 0.0
    t_nbint = float(np.mean(nbi_secs)) if nbi_secs else 0.0
    t_seq = client_acct.seconds("seq_comp")
    t_comm = sum(
        v for k, v in client_acct.as_dict().items() if k.startswith("comm:")
    )
    # barrier cost paid by the client: cost portion only (the wait
    # portion is idle); the barrier manager separates them exactly, and
    # overlapped mode never reaches a barrier, so this reads 0 there
    t_sync = client_proc.sync_seconds
    t_idle = max(wall - (t_update + t_nbint + t_seq + t_comm + t_sync), 0.0)

    breakdown = TimeBreakdown(
        update=t_update,
        nbint=t_nbint,
        seq_comp=t_seq,
        comm=t_comm,
        sync=t_sync,
        idle=t_idle,
    )
    flops_counted = sum(n.hpm.flops_counted for n in cluster.nodes)

    def _counted(name: str) -> int:
        # peek without creating: plain runs must not grow zero-valued
        # resilience rows in their metric dumps
        counter = cluster.metrics.counters.get(name)
        return int(counter.value) if counter is not None else 0

    result = OpalRunResult(
        app=app,
        platform_name=platform.name,
        sync_mode=sync_mode,
        wall_time=wall,
        breakdown=breakdown,
        server_update_seconds=upd_secs,
        server_energy_seconds=nbi_secs,
        client_phases=client_acct.as_dict(),
        flops_counted=flops_counted,
        barriers_executed=sync.barriers_executed,
        servers_failed=list(result_slot.get("failed", [])),
        failovers=_counted("opal.failovers"),
        rpc_retries=_counted("sciddle.retries"),
        rpc_timeouts=_counted("sciddle.rpc_timeouts"),
        cluster=cluster if keep_cluster else None,
    )
    if obs is not None:
        label = run_label or _make_run_label(platform.name, app, seed)
        obs.absorb_opal_run(label, cluster, result)
    return result

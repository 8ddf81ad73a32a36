"""The generic client/server DES program every workload family runs.

A family's compiler lowers one (spec, servers) cell into a flat tuple
of :class:`PhaseStep` — the single IR both backends consume:

* :func:`run_workload_program` executes the steps on the simulator with
  the paper's full instrumentation discipline (phase barriers, per-
  process accountants, barrier-accounted sync cost), exactly mirroring
  the Opal program in :mod:`repro.opal.parallel`;
* ``WorkloadFamily.terms`` (see :mod:`repro.workloads.base`) reduces
  the same steps to closed-form regressors for the model.

Because both derive from one compiled program, measurement and
prediction agree by construction on what work a cell contains.

Each step is one RPC phase: the client calls every server (``phase``
procedure, ``send_bytes`` out), a start barrier separates communication
from computation, every server burns ``server_flops``, an end barrier,
the replies come back (``reply_bytes`` each), then the client runs its
own ``client_flops`` sequentially.  With faults the client switches to
the resilient Sciddle stub (retried idempotent RPCs); crash faults are
rejected — the generic program has no partition-redistribution logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.breakdown import TimeBreakdown
from ..errors import WorkloadError
from ..hpm import PhaseAccountant
from ..netsim import FaultPlan, FaultSpec
from ..pvm import PvmSystem, PvmTask
from ..sciddle import (
    ResilientSciddleClient,
    RetryPolicy,
    RpcReply,
    SciddleClient,
    SciddleInterface,
    SciddleServer,
    SyncDiscipline,
)
from .spec import WorkloadSpec

#: Bytes of a bare control message (acks, barrier-style payloads).
CTRL_BYTES = 8

#: Floor on compute working sets: a zero-byte working set would degrade
#: the memory-hierarchy timing; one line-ish block keeps it physical.
MIN_WORKING_SET = 1024.0


@dataclass(frozen=True)
class PhaseStep:
    """One compiled RPC phase of a workload program."""

    label: str
    #: request payload bytes, client -> each server
    send_bytes: int
    #: reply payload bytes, each server -> client
    reply_bytes: int
    #: flops each server burns inside the phase barriers
    server_flops: float
    #: flops the client burns sequentially after the replies
    client_flops: float

    def __post_init__(self) -> None:
        if self.send_bytes < 0 or self.reply_bytes < 0:
            raise WorkloadError(f"{self.label}: negative message size")
        if self.server_flops < 0 or self.client_flops < 0:
            raise WorkloadError(f"{self.label}: negative flop count")

    @property
    def working_set(self) -> float:
        """Bytes the phase's compute touches (floored; see above)."""
        return max(float(self.send_bytes + self.reply_bytes), MIN_WORKING_SET)


@dataclass
class WorkloadRunResult:
    """Everything measured during one simulated workload cell run."""

    family: str
    spec: WorkloadSpec
    servers: int
    platform_name: str
    wall_time: float
    breakdown: TimeBreakdown
    barriers_executed: int = 0
    rpc_retries: int = 0
    client_phases: Dict[str, float] = field(default_factory=dict)


def make_workload_interface(family: str) -> SciddleInterface:
    """The one-procedure remote interface of the generic program."""
    iface = SciddleInterface(f"workload-{family}")
    iface.procedure(
        "phase", doc="run one compiled phase step of the workload program"
    )
    return iface


def _server_body(
    task: PvmTask,
    iface: SciddleInterface,
    sync: SyncDiscipline,
    steps: Sequence[PhaseStep],
    accountant: PhaseAccountant,
):
    """One generic server: serve ``phase`` RPCs until shutdown."""

    def phase(t: PvmTask, args):
        step = steps[args["step"]]
        yield from sync.phase_barrier(t, f"ph_start@{args['step']}")
        if step.server_flops > 0:
            accountant.begin("par:work")
            yield from t.compute(
                flops=step.server_flops, working_set=step.working_set
            )
            accountant.end()
        yield from sync.phase_barrier(t, f"ph_end@{args['step']}")
        return RpcReply(nbytes=step.reply_bytes)

    server = SciddleServer(task, iface)
    server.bind("phase", phase)
    yield from server.run()


def _client_body(
    task: PvmTask,
    iface: SciddleInterface,
    sync: SyncDiscipline,
    steps: Sequence[PhaseStep],
    server_tids: List[int],
    accountant: PhaseAccountant,
    result_slot: dict,
    retry_policy: Optional[RetryPolicy] = None,
):
    """The generic client: drive every compiled step, then shut down."""
    if retry_policy is None:
        client = SciddleClient(task, iface, server_tids, accountant=accountant)
    else:
        client = ResilientSciddleClient(
            task, iface, server_tids, policy=retry_policy, accountant=accountant
        )
    t_start = task.now
    for k, step in enumerate(steps):
        phase_args = {"step": k}
        handles = yield from client.call_all(
            "phase",
            args_for=lambda i, tid: phase_args,
            nbytes=step.send_bytes,
            category="comm:call_phase",
        )
        yield from sync.phase_barrier(task, f"ph_start@{k}")
        yield from sync.phase_barrier(task, f"ph_end@{k}")
        yield from client.wait_all(handles, category="comm:return_phase")
        if step.client_flops > 0:
            accountant.begin("seq_comp")
            yield from task.compute(
                flops=step.client_flops, working_set=step.working_set
            )
            accountant.end()
    yield from client.shutdown()
    result_slot["wall"] = task.now - t_start


def run_workload_program(
    family: str,
    spec: WorkloadSpec,
    steps: Sequence[PhaseStep],
    servers: int,
    platform,
    seed: int = 0,
    jitter_sigma: float = 0.0,
    faults: Optional[FaultSpec] = None,
) -> WorkloadRunResult:
    """Simulate one compiled workload cell on ``platform``.

    The breakdown is reconstructed exactly as the Opal program does it:
    server compute from the server accountants (mean over servers,
    reported as the ``nbint`` pair-work component), sequential and
    communication time from the client accountant, synchronization from
    the client's accounted barrier cost
    (:attr:`~repro.netsim.SimProcess.sync_seconds`), idle as the clamped
    remainder of the wall clock.  The run records no trace.
    """
    if servers < 1:
        raise WorkloadError(f"{family}: servers must be >= 1, got {servers}")
    if not steps:
        raise WorkloadError(f"{family}: compiled program has no steps")
    p = servers
    cluster = platform.build_cluster(
        p + 1, seed=seed, jitter_sigma=jitter_sigma, trace=False
    )
    pvm = PvmSystem(cluster, barrier_cost=platform.sync_cost)
    iface = make_workload_interface(family)
    group = f"wl-{family}"
    sync = SyncDiscipline("accounted", group=group, count=p + 1)
    cluster.barriers.set_count_provider(
        f"pvm:{sync.group}:", lambda: sync.live_count
    )

    retry_policy: Optional[RetryPolicy] = None
    client_node = platform.place(cluster, 0)
    if faults is not None:
        if faults.crashes:
            raise WorkloadError(
                f"{family}: crash faults are not supported by the generic "
                "workload program (no failover partition logic); use "
                "drop/delay/slowdown chaos instead"
            )
        retry_policy = RetryPolicy.from_spec(faults)
        if faults.enabled:
            FaultPlan(faults, cluster.rng).install(cluster)

    clock = lambda: cluster.engine.now  # noqa: E731
    client_acct = PhaseAccountant(clock, client_node.hpm)
    server_accts = []
    server_procs = []
    for i in range(p):
        node = platform.place(cluster, i + 1)
        acct = PhaseAccountant(clock, node.hpm)
        server_accts.append(acct)
        server_procs.append(
            pvm.spawn(f"{group}-server{i}", node, _server_body, iface, sync,
                      tuple(steps), acct)
        )

    result_slot: dict = {}
    client_proc = pvm.spawn(
        f"{group}-client",
        client_node,
        _client_body,
        iface,
        sync,
        tuple(steps),
        [sp.tid for sp in server_procs],
        client_acct,
        result_slot,
        retry_policy=retry_policy,
    )
    pvm.run()
    wall = result_slot["wall"]

    work_secs = [a.seconds("par:work") for a in server_accts]
    t_work = float(np.mean(work_secs)) if work_secs else 0.0
    t_seq = client_acct.seconds("seq_comp")
    t_comm = sum(
        v for k, v in client_acct.as_dict().items() if k.startswith("comm:")
    )
    t_sync = client_proc.sync_seconds
    t_idle = max(wall - (t_work + t_seq + t_comm + t_sync), 0.0)

    breakdown = TimeBreakdown(
        update=0.0,
        nbint=t_work,
        seq_comp=t_seq,
        comm=t_comm,
        sync=t_sync,
        idle=t_idle,
    )
    retries_counter = cluster.metrics.counters.get("sciddle.retries")
    return WorkloadRunResult(
        family=family,
        spec=spec,
        servers=servers,
        platform_name=platform.name,
        wall_time=wall,
        breakdown=breakdown,
        barriers_executed=sync.barriers_executed,
        rpc_retries=int(retries_counter.value) if retries_counter else 0,
        client_phases=client_acct.as_dict(),
    )

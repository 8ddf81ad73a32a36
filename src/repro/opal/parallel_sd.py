"""Space-decomposition Opal: the SPMD alternative, simulated.

:mod:`repro.opal.decomposition` models the Section 2.1 alternatives
analytically; this module *runs* one of them.  The program is the
standard slab-decomposed MD main loop:

* ``p`` peers own contiguous slabs of the box (1-D decomposition along
  x); there is no client — the coordination pattern is neighbour halo
  exchange plus a tree reduction of the partial energies;
* per step each peer sends its boundary region (one cutoff deep,
  ``alpha * halo`` bytes) to each slab neighbour, computes the pair work
  of its slab + halo, and joins an energy reduction;
* on update steps the peer additionally rebuilds its local pair list
  (quadratic in its slab+halo population).

With a 1-D decomposition the halo is a slab face — its size is
*independent of p* — so per-peer communication stays constant while
compute shrinks: the scalability the replicated-data client/server
structure cannot offer.  (The 3-D analytic model in ``decomposition``
has still smaller halos; 1-D is the honest-to-implement variant and is
what the simulated-vs-analytic comparison in the EXT6 bench uses.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..core.breakdown import TimeBreakdown
from ..core.parameters import ApplicationParams
from ..errors import WorkloadError
from ..hpm import PhaseAccountant
from ..netsim import Barrier, Compute, Recv, Send
from ..pvm import PvmSystem
from . import costs

#: message tags
_TAG_HALO = 31
_TAG_REDUCE = 32
_TAG_BCAST = 33


@dataclass
class SdRunResult:
    """Outcome of one simulated space-decomposition run."""

    app: ApplicationParams
    platform_name: str
    wall_time: float
    breakdown: TimeBreakdown
    halo_atoms: float
    peer_compute_seconds: List[float] = field(default_factory=list)


def sd_halo_atoms(app: ApplicationParams) -> float:
    """Mass centers in one slab's halo (both faces, one cutoff deep)."""
    if app.cutoff is None:
        return float(app.n)  # degenerate: everyone is a neighbour
    box = app.molecule.box_edge
    slab_width = box / app.p
    if app.cutoff >= slab_width:
        return float(app.n)
    density = app.molecule.density
    return min(2.0 * app.cutoff * box * box * density, float(app.n))


def _sd_peer(
    task,
    app: ApplicationParams,
    index: int,
    peers: List[int],
    accountant: PhaseAccountant,
    sync_cost: float,
    work_noise: float,
    rng: np.random.Generator,
    result_slot: dict,
):
    """One SPMD peer of the slab-decomposed main loop."""
    p = app.p
    halo = sd_halo_atoms(app)
    local_n = app.n / p + halo

    # per-step pair work: this slab's share of the global active pairs
    from ..core.parameters import energy_pair_work, update_pair_work
    from ..core.space import SpaceModel

    # memory: the slab's pair-list share plus halo-augmented local arrays
    space = SpaceModel(app.molecule)
    working_set = (
        space.pair_list_total() * (local_n / app.n)
        + 48.0 * local_n
        + space.interaction_tables()
    )
    energy_pairs = energy_pair_work(app.n, app.n_tilde) / p
    # update work: quadratic scan over the slab + halo population
    update_pairs = max(
        update_pair_work(app.n, app.gamma) * (local_n / app.n) ** 2 * p, local_n
    )
    halo_bytes = app.alpha * halo / 2.0  # one face per neighbour

    left = peers[index - 1] if index > 0 else None
    right = peers[index + 1] if index < p - 1 else None
    t0 = task.now

    for step in range(app.steps):
        # ---- halo exchange --------------------------------------------
        accountant.begin("comm")
        for neighbour in (left, right):
            if neighbour is not None:
                yield Send(neighbour, nbytes=halo_bytes, tag=_TAG_HALO + step % 2)
        for neighbour in (left, right):
            if neighbour is not None:
                yield Recv(source=neighbour, tag=_TAG_HALO + step % 2)
        accountant.end()

        # ---- local computation -----------------------------------------
        noise = 1.0 + work_noise * float(rng.standard_normal())
        flops = energy_pairs * costs.NB_PAIR_FLOPS * max(noise, 0.5)
        if step % app.update_interval == 0:
            flops += update_pairs * costs.UPDATE_PAIR_FLOPS
        flops += costs.SEQ_ATOM_FLOPS * local_n  # local bonded terms
        accountant.begin("compute")
        yield Compute(flops=flops, working_set=working_set)
        accountant.end()

        # ---- energy reduction (binomial tree to 0, then broadcast) ------
        accountant.begin("reduce")
        tag_r = _TAG_REDUCE + 10 * (step % 2)
        mask = 1
        while mask < p:
            if index & mask:
                yield Send(peers[index - mask], nbytes=64, tag=tag_r)
                break
            partner = index + mask
            if partner < p:
                yield Recv(source=peers[partner], tag=tag_r)
            mask <<= 1
        tag_b = _TAG_BCAST + 10 * (step % 2)
        top = 1
        while top < p:
            top <<= 1
        mask = top >> 1
        while mask > 0:
            if index % (mask * 2) == 0 and index + mask < p:
                yield Send(peers[index + mask], nbytes=64, tag=tag_b)
            elif index % (mask * 2) == mask:
                yield Recv(source=peers[index - mask], tag=tag_b)
            mask >>= 1
        accountant.end()
        yield Barrier(f"sd-step{step}", count=p, cost=sync_cost)

    if index == 0:
        result_slot["wall"] = task.now - t0


def run_parallel_opal_sd(
    app: ApplicationParams,
    platform,
    seed: int = 0,
    jitter_sigma: float = 0.0,
    work_noise: float = 0.01,
) -> SdRunResult:
    """Simulate the slab-decomposed Opal on ``platform``.

    Unlike the client/server RD driver this is a flat SPMD program: no
    coordinator, neighbour messages only, one small reduction per step.
    """
    p = app.servers
    if p < 1:
        raise WorkloadError("servers must be >= 1")
    cluster = platform.build_cluster(
        p, seed=seed, jitter_sigma=jitter_sigma, trace=False
    )
    pvm = PvmSystem(cluster, barrier_cost=platform.sync_cost)

    clock = lambda: cluster.engine.now  # noqa: E731
    accountants = [PhaseAccountant(clock) for _ in range(p)]
    slot: dict = {}

    # spawn with placeholder tid lists, patch after spawning
    peers: List[int] = []
    procs = []
    for i in range(p):
        proc = pvm.spawn(
            f"sd-peer{i}",
            platform.place(cluster, i),
            _sd_peer,
            app,
            i,
            peers,  # shared list, filled below before t=0 runs
            accountants[i],
            platform.sync_cost,
            work_noise,
            cluster.rng.stream(f"sd/peer{i}/work-noise"),
            slot,
        )
        procs.append(proc)
    peers.extend(proc.tid for proc in procs)
    pvm.run()
    wall = slot["wall"]

    compute = [a.seconds("compute") for a in accountants]
    comm = [a.seconds("comm") + a.seconds("reduce") for a in accountants]
    mean_compute = float(np.mean(compute))
    mean_comm = float(np.mean(comm))
    sync = app.steps * platform.sync_cost
    idle = max(wall - mean_compute - mean_comm - sync, 0.0)
    breakdown = TimeBreakdown(
        update=0.0,
        nbint=mean_compute,
        seq_comp=0.0,
        comm=mean_comm,
        sync=sync,
        idle=idle,
    )
    return SdRunResult(
        app=app,
        platform_name=platform.name,
        wall_time=wall,
        breakdown=breakdown,
        halo_atoms=sd_halo_atoms(app),
        peer_compute_seconds=compute,
    )

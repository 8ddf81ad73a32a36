"""Parallel Opal with real physics through the simulated middleware.

Where :mod:`repro.opal.parallel` drives the client/server program with
*operation counts* (for paper-scale problems), this module runs the
replicated-data parallelization with **actual numbers**: coordinates
travel in the RPC payloads, each server evaluates the Van der Waals and
Coulomb contributions of its pseudo-randomly assigned pair share, the
client reduces the partial energies and gradients, computes the bonded
terms and advances a velocity-Verlet step — a genuine parallel molecular
dynamics simulation executing inside the discrete-event cluster.

Its twin purposes:

* correctness: the parallel decomposition must produce the serial
  engine's energies and trajectories bit-for-bit up to floating point
  reassociation (asserted in tests and usable as an example);
* fidelity: virtual time still advances through the same Compute/Send
  cost models, so the run yields a breakdown exactly like the cost-model
  driver — the physics and performance faces share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import WorkloadError
from ..pvm import PvmSystem, PvmTask
from ..sciddle import (
    RpcReply,
    SciddleClient,
    SciddleServer,
    SyncDiscipline,
)
from . import costs
from .distribution import PairDistribution
from .dynamics import KB
from .forcefield import (
    angle_energy,
    bond_energy,
    dihedral_energy,
    improper_energy,
    nonbonded_energy,
)
from .parallel import make_opal_interface
from .system import MolecularSystem


def partition_candidate_pairs(
    system: MolecularSystem,
    servers: int,
    seed: int = 0,
    defect: float = 0.1,
) -> List[np.ndarray]:
    """Split ALL candidate pairs among servers (replicated-data method).

    Uses the same pseudo-random block dealer as the cost model — the
    even-p anomaly therefore exists in the physics runs too.  Excluded
    (bonded) pairs are removed before dealing.
    """
    n = system.n
    iu, ju = np.triu_indices(n, k=1)
    pairs = np.stack([iu, ju], axis=1)
    excl = system.topology.excluded_pairs()
    if len(excl):
        codes = pairs[:, 0] * n + pairs[:, 1]
        excl_codes = excl[:, 0] * n + excl[:, 1]
        pairs = pairs[~np.isin(codes, excl_codes)]
    dist = PairDistribution(servers, seed=seed, defect=defect)
    n_blocks = -(-len(pairs) // dist.block)
    owners_per_block = dist.assign_blocks(n_blocks)
    owner = np.repeat(owners_per_block, dist.block)[: len(pairs)]
    return [pairs[owner == s] for s in range(servers)]


@dataclass
class PhysicsStepRecord:
    """Observables reduced by the client at the end of one step."""

    step: int
    e_vdw: float
    e_coul: float
    e_bonded: float
    e_kinetic: float
    temperature: float

    @property
    def e_potential(self) -> float:
        """Bonded + non-bonded potential energy."""
        return self.e_vdw + self.e_coul + self.e_bonded

    @property
    def e_total(self) -> float:
        """Potential + kinetic energy."""
        return self.e_potential + self.e_kinetic


@dataclass
class PhysicsRunResult:
    """Outcome of one physics-mode parallel run."""

    records: List[PhysicsStepRecord] = field(default_factory=list)
    wall_time: float = 0.0
    final_coords: Optional[np.ndarray] = None
    server_pair_counts: List[int] = field(default_factory=list)

    @property
    def energies(self) -> np.ndarray:
        """Total energy per recorded step."""
        return np.array([r.e_total for r in self.records])


# ----------------------------------------------------------------------
def _physics_server(task: PvmTask, iface, sync, system, candidates, working_set):
    """One server: keep replicated data, filter and evaluate its pairs."""
    state = {"active": candidates}

    def update_lists(t, args):
        yield from sync.phase_barrier(t, f"upd_start@{args['step']}")
        coords = args["coords"]
        if args["cutoff"] is None:
            state["active"] = candidates
        else:
            d = coords[candidates[:, 0]] - coords[candidates[:, 1]]
            r2 = np.einsum("ij,ij->i", d, d)
            state["active"] = candidates[r2 <= args["cutoff"] ** 2]
        yield from t.compute(
            flops=len(candidates) * costs.UPDATE_PAIR_FLOPS,
            working_set=working_set,
        )
        yield from sync.phase_barrier(t, f"upd_end@{args['step']}")
        return RpcReply(nbytes=0)

    def eval_nonbonded(t, args):
        yield from sync.phase_barrier(t, f"nbi_start@{args['step']}")
        coords = args["coords"]
        e_vdw, e_coul, grad = nonbonded_energy(system, state["active"], coords)
        yield from t.compute(
            flops=max(len(state["active"]), 1) * costs.NB_PAIR_FLOPS,
            working_set=working_set,
        )
        yield from sync.phase_barrier(t, f"nbi_end@{args['step']}")
        return RpcReply(
            nbytes=16 + 24 * system.n,
            payload={"e_vdw": e_vdw, "e_coul": e_coul, "grad": grad,
                     "pairs": len(state["active"])},
        )

    server = SciddleServer(task, iface)
    server.bind("update_lists", update_lists)
    server.bind("eval_nonbonded", eval_nonbonded)
    yield from server.run()


def _physics_client(
    task: PvmTask,
    iface,
    sync,
    system: MolecularSystem,
    server_tids,
    steps,
    dt,
    cutoff,
    update_interval,
    temperature,
    seed,
    result: PhysicsRunResult,
):
    client = SciddleClient(task, iface, server_tids)
    coords = system.coords.copy()
    masses = system.masses[:, None]
    rng = np.random.default_rng(seed)
    if temperature and temperature > 0:
        sigma = np.sqrt(KB * temperature / system.masses)[:, None]
        velocities = sigma * rng.standard_normal(coords.shape)
        velocities -= (masses * velocities).sum(axis=0) / masses.sum()
    else:
        velocities = np.zeros_like(coords)
    coords_nbytes = 24 * system.n
    t0 = task.now
    grad = None

    def gather_forces(step):
        """update (if due) + energy RPCs; returns total gradient/energies."""
        nonlocal grad
        if step % update_interval == 0:
            handles = yield from client.call_all(
                "update_lists",
                args_for=lambda i, tid: {
                    "step": step, "coords": coords, "cutoff": cutoff,
                },
                nbytes=coords_nbytes,
            )
            yield from sync.phase_barrier(task, f"upd_start@{step}")
            yield from sync.phase_barrier(task, f"upd_end@{step}")
            yield from client.wait_all(handles)
        handles = yield from client.call_all(
            "eval_nonbonded",
            args_for=lambda i, tid: {"step": step, "coords": coords},
            nbytes=coords_nbytes,
        )
        yield from sync.phase_barrier(task, f"nbi_start@{step}")
        yield from sync.phase_barrier(task, f"nbi_end@{step}")
        replies = yield from client.wait_all(handles)
        e_vdw = sum(r["e_vdw"] for r in replies)
        e_coul = sum(r["e_coul"] for r in replies)
        grad_nb = sum(r["grad"] for r in replies)
        result.server_pair_counts = [r["pairs"] for r in replies]
        # client: the few remaining (bonded) interactions + reduction
        e_b, g_b = bond_energy(system, coords)
        e_a, g_a = angle_energy(system, coords)
        e_d, g_d = dihedral_energy(system, coords)
        e_i, g_i = improper_energy(system, coords)
        yield from task.compute(flops=costs.SEQ_ATOM_FLOPS * system.n)
        grad = grad_nb + g_b + g_a + g_d + g_i
        return e_vdw, e_coul, e_b + e_a + e_d + e_i

    e_vdw, e_coul, e_bonded = yield from gather_forces(0)
    for step in range(1, steps + 1):
        forces = -grad
        velocities += 0.5 * dt * forces / masses
        coords += dt * velocities
        e_vdw, e_coul, e_bonded = yield from gather_forces(step)
        velocities += 0.5 * dt * (-grad) / masses
        ke = float(0.5 * np.sum(system.masses * np.einsum("ij,ij->i", velocities, velocities)))
        dof = max(3 * system.n - 3, 1)
        result.records.append(
            PhysicsStepRecord(
                step=step,
                e_vdw=e_vdw,
                e_coul=e_coul,
                e_bonded=e_bonded,
                e_kinetic=ke,
                temperature=2.0 * ke / (dof * KB),
            )
        )

    yield from client.shutdown()
    result.wall_time = task.now - t0
    result.final_coords = coords


# ----------------------------------------------------------------------
def run_parallel_opal_physics(
    system: MolecularSystem,
    servers: int,
    platform,
    steps: int = 5,
    dt: float = 0.0005,
    cutoff: Optional[float] = None,
    update_interval: int = 1,
    temperature: Optional[float] = None,
    sync_mode: str = "accounted",
    seed: int = 0,
    defect: float = 0.1,
) -> PhysicsRunResult:
    """Run real parallel MD on the simulated ``platform``.

    Returns per-step observables plus the virtual wall time.  Intended
    for systems of a few hundred mass centers (the physics is O(n^2) in
    host time); paper-scale performance studies use
    :func:`repro.opal.parallel.run_parallel_opal` instead.
    """
    if servers < 1:
        raise WorkloadError("servers must be >= 1")
    if steps < 1:
        raise WorkloadError("steps must be >= 1")
    cluster = platform.build_cluster(servers + 1, seed=seed, trace=False)
    pvm = PvmSystem(cluster, barrier_cost=platform.sync_cost)
    iface = make_opal_interface()
    sync = SyncDiscipline(sync_mode, group="opal-phys", count=servers + 1)
    partitions = partition_candidate_pairs(system, servers, seed=seed, defect=defect)
    working_set = 8.0 * sum(len(p) for p in partitions) / servers + 48.0 * system.n

    result = PhysicsRunResult()
    tids = []
    for i in range(servers):
        proc = pvm.spawn(
            f"pserver{i}",
            platform.place(cluster, i + 1),
            _physics_server,
            iface,
            sync,
            system,
            partitions[i],
            working_set,
        )
        tids.append(proc.tid)
    pvm.spawn(
        "pclient",
        platform.place(cluster, 0),
        _physics_client,
        iface,
        sync,
        system,
        tids,
        steps,
        dt,
        cutoff,
        update_interval,
        temperature,
        seed,
        result,
    )
    pvm.run()
    return result

"""Multi-worker serve fleet: subprocess supervision for the router.

:class:`ServeFleet` boots N worker processes — each one the existing
single-process server (``python -m repro.serve serve``) listening on
an ephemeral localhost port — wires a pipelined
:class:`~repro.serve.server.TcpServeClient` to each, and fronts them
with a :class:`~repro.serve.router.FleetRouter`.  Workers run with
admission wide open: the router's fleet-wide token buckets are the
single backpressure tier, so a worker never sheds what the front door
admitted (except during its own drain, which the router retries).

Calibration replication is by construction: every worker shares the
fleet's content-addressed calibration ``cache_dir``, so a respawned
worker reloads calibrations warm from disk instead of re-fitting.
The router and every worker keep their per-request rows in their own
flight rings (:mod:`repro.serve.flight`), the fleet's one record; with
a ``store_root`` each worker incarnation flushes its ring into its own
telemetry store directory (``worker-<slot>-g<generation>``) next to the
router's, and ``python -m repro.obs merge`` folds them into one store
for the SLO gate.

Chaos taps: :meth:`kill_worker` (SIGKILL, abrupt death) and
:meth:`stall_worker` (SIGSTOP, wedged-but-connected) let the chaos
bench and CI kill a named worker mid-burst deterministically.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from .router import FleetConfig, FleetRouter
from .server import TcpServeClient

#: stdout banner of a ready worker (see ``cmd_serve``).
_PORT_RE = re.compile(rb"serving on [^:]+:(\d+)")

#: seconds to wait for a worker's ready banner before giving up
SPAWN_TIMEOUT = 60.0


def _signal(process: "asyncio.subprocess.Process", sig: int) -> None:
    """Send ``sig`` to a child that asyncio has not yet seen exit.

    ``Process.kill()`` and friends poll first, and that poll's
    ``waitpid`` can reap a child that has just died before asyncio's
    child watcher does; the watcher then reports returncode 255 instead
    of the real exit status.  Signalling the pid directly never reaps:
    until the watcher reaps it the pid stays ours (a zombie ignores the
    signal), so a death is always reported as it happened.
    """
    if process.returncode is not None:
        return
    try:
        os.kill(process.pid, sig)
    except ProcessLookupError:  # pragma: no cover - reaped meanwhile
        pass


@dataclass(frozen=True)
class FleetSpec:
    """Shape of one fleet: worker count, shared stores, service knobs."""

    workers: int = 3
    host: str = "127.0.0.1"
    #: shared content-addressed calibration cache (None = per-worker
    #: in-memory stores; set it to get warm respawn reloads)
    cache_dir: Optional[str] = None
    #: root directory for telemetry stores (router + per-worker); None
    #: means no store: the router and every worker still keep their
    #: per-request rows in their in-memory flight rings
    store_root: Optional[str] = None
    max_batch: int = 64
    config: FleetConfig = field(default_factory=FleetConfig)


@dataclass
class WorkerProc:
    """One live worker incarnation under fleet supervision."""

    slot: int
    generation: int
    process: "asyncio.subprocess.Process"
    port: int
    store_dir: Optional[str]
    drain_task: Optional["asyncio.Task[None]"] = None


class ServeFleet:
    """Boot, supervise, and drain a fleet of serve worker processes.

    Use as an async context manager::

        async with ServeFleet(FleetSpec(workers=3)) as fleet:
            response = await fleet.router.submit(envelope)

    ``fleet.router`` is a drop-in ``service`` for
    :class:`~repro.serve.server.ServeServer`, so ``python -m
    repro.serve fleet`` exposes the whole fleet on one front-door port.
    """

    def __init__(self, spec: Optional[FleetSpec] = None) -> None:
        self.spec = spec or FleetSpec()
        if self.spec.workers < 1:
            raise ValueError("a fleet needs at least one worker")
        self.procs: Dict[int, WorkerProc] = {}
        self.router: Optional[FleetRouter] = None
        self._generation: Dict[int, int] = {}
        self._started = False

    # -- spawning -------------------------------------------------------
    def _store_dir(self, slot: int, generation: int) -> Optional[str]:
        if self.spec.store_root is None:
            return None
        return str(Path(self.spec.store_root) / f"worker-{slot}-g{generation}")

    def _worker_argv(self, store_dir: Optional[str]) -> List[str]:
        argv = [
            sys.executable, "-m", "repro.serve", "serve",
            "--host", self.spec.host,
            "--port", "0",
            "--max-batch", str(self.spec.max_batch),
            # wide open: the router is the only admission tier
            "--queue-depth", "1000000",
            "--admit-rate", "1e9",
            "--burst", "1000000",
        ]
        if self.spec.cache_dir is not None:
            argv += ["--cache-dir", self.spec.cache_dir]
        if store_dir is not None:
            argv += ["--store-out", store_dir]
        return argv

    async def _spawn(self, slot: int) -> WorkerProc:
        """Start one worker process and wait for its ready banner."""
        generation = self._generation.get(slot, 0) + 1
        self._generation[slot] = generation
        store_dir = self._store_dir(slot, generation)
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
        process = await asyncio.create_subprocess_exec(
            *self._worker_argv(store_dir),
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        assert process.stdout is not None
        try:
            line = await asyncio.wait_for(process.stdout.readline(), SPAWN_TIMEOUT)
        except asyncio.TimeoutError:
            _signal(process, signal.SIGKILL)
            raise RuntimeError(
                f"worker w{slot} did not print its port within {SPAWN_TIMEOUT}s"
            ) from None
        except asyncio.CancelledError:
            # a respawn aborted by shutdown must not orphan the child
            _signal(process, signal.SIGKILL)
            raise
        match = _PORT_RE.search(line)
        if match is None:
            _signal(process, signal.SIGKILL)
            raise RuntimeError(
                f"worker w{slot} printed an unexpected banner: {line!r}"
            )
        proc = WorkerProc(
            slot=slot,
            generation=generation,
            process=process,
            port=int(match.group(1)),
            store_dir=store_dir,
        )
        proc.drain_task = asyncio.get_running_loop().create_task(
            self._drain_stdout(process)
        )
        return proc

    @staticmethod
    async def _drain_stdout(process: "asyncio.subprocess.Process") -> None:
        """Keep reading worker stdout so the pipe buffer never fills."""
        assert process.stdout is not None
        while True:
            # deliberately unbounded: a quiet worker prints nothing for
            # arbitrarily long; EOF (death) is the only exit condition
            line = await process.stdout.readline()  # simlint: disable=R502
            if not line:
                return

    async def _connect(self, proc: WorkerProc) -> TcpServeClient:
        client = TcpServeClient(self.spec.host, proc.port)
        await client.connect()
        return client

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Spawn every worker, connect links, start the router."""
        if self._started:
            return
        procs = await asyncio.gather(
            *(self._spawn(slot) for slot in range(self.spec.workers))
        )
        workers: Dict[int, Any] = {}
        for proc in procs:
            self.procs[proc.slot] = proc
            workers[proc.slot] = await self._connect(proc)
        store = None
        if self.spec.store_root is not None:
            from ..obs.store import TelemetryStore

            router_dir = str(Path(self.spec.store_root) / "router")
            # TelemetryStore.__init__ reads the manifest from disk;
            # keep that I/O off the event loop
            store = await asyncio.get_running_loop().run_in_executor(
                None, TelemetryStore, router_dir
            )
        self.router = FleetRouter(
            workers,
            config=self.spec.config,
            store=store,
            respawn_fn=self._respawn_client,
        )
        await self.router.start()
        self._started = True

    async def stop(self) -> None:
        """Drain the router, then gracefully stop every worker."""
        if not self._started:
            return
        self._started = False
        if self.router is not None:
            await self.router.stop()
        live = [p for p in self.procs.values() if p.process.returncode is None]
        for proc in live:
            # SIGTERM -> worker drains + flushes
            _signal(proc.process, signal.SIGTERM)
        for proc in live:
            try:
                await asyncio.wait_for(proc.process.wait(), 15.0)
            except asyncio.TimeoutError:  # pragma: no cover - wedged worker
                _signal(proc.process, signal.SIGKILL)
                await proc.process.wait()
        for proc in self.procs.values():
            if proc.drain_task is not None:
                proc.drain_task.cancel()
                try:
                    await proc.drain_task
                except asyncio.CancelledError:
                    pass
                proc.drain_task = None

    async def __aenter__(self) -> "ServeFleet":
        """Async context manager: boot the fleet on enter."""
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        """Async context manager: drain and stop on exit."""
        await self.stop()

    # -- supervision ----------------------------------------------------
    async def _respawn_client(self, slot: int) -> TcpServeClient:
        """Router respawn hook: fresh incarnation, connected link."""
        old = self.procs.get(slot)
        if old is not None:
            # a torn link usually means the process already died; the
            # signal only matters for a wedged one that is still running
            _signal(old.process, signal.SIGKILL)
            await old.process.wait()
        if old is not None and old.drain_task is not None:
            old.drain_task.cancel()
            try:
                await old.drain_task
            except asyncio.CancelledError:
                pass
            old.drain_task = None
        proc = await self._spawn(slot)
        self.procs[slot] = proc
        return await self._connect(proc)

    # -- chaos taps -----------------------------------------------------
    def kill_worker(self, slot: int) -> None:
        """SIGKILL one worker (abrupt crash; links tear immediately)."""
        _signal(self.procs[slot].process, signal.SIGKILL)

    def stall_worker(self, slot: int) -> None:
        """SIGSTOP one worker (wedged: connected but unresponsive)."""
        _signal(self.procs[slot].process, signal.SIGSTOP)

    # -- reporting ------------------------------------------------------
    def store_dirs(self) -> List[str]:
        """Router + every worker-incarnation telemetry store directory."""
        if self.spec.store_root is None:
            return []
        root = Path(self.spec.store_root)
        dirs = [str(root / "router")]
        for slot in sorted(self._generation):
            for generation in range(1, self._generation[slot] + 1):
                store_dir = self._store_dir(slot, generation)
                if store_dir is not None and Path(store_dir).exists():
                    dirs.append(store_dir)
        return dirs

    def report(self) -> Dict[str, Any]:
        """Fleet snapshot: router report plus per-worker process state."""
        assert self.router is not None
        snapshot = self.router.report()
        snapshot["processes"] = {
            f"w{slot}": {
                "generation": proc.generation,
                "port": proc.port,
                "returncode": proc.process.returncode,
            }
            for slot, proc in sorted(self.procs.items())
        }
        return snapshot

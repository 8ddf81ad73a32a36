"""Generator-based simulated processes.

A process body is a Python generator function taking a
:class:`ProcContext` first argument.  It yields request objects from
:mod:`repro.netsim.events`; the runner executes them in virtual time and
resumes the generator with the result (e.g. the received
:class:`~repro.netsim.events.Message`).

Example
-------
>>> def pinger(ctx, peer_tid):
...     yield Send(peer_tid, nbytes=1024, tag=7)
...     msg = yield Recv(source=peer_tid)
...     ctx.log("got reply at", ctx.now)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from ..errors import SimulationError
from .engine import Engine
from .events import ANY, Barrier, Compute, Message, Recv, RecvTimeout, Send, Timeout


class Mailbox:
    """Per-process FIFO of delivered messages with (source, tag) matching."""

    __slots__ = ("_messages", "_pending")

    def __init__(self) -> None:
        self._messages: Deque[Message] = deque()
        self._pending: Optional[Tuple[Optional[int], Optional[int], Callable[[Message], None]]] = None

    @staticmethod
    def _matches(msg: Message, source: Optional[int], tag: Optional[int]) -> bool:
        return (source is ANY or msg.source == source) and (
            tag is ANY or msg.tag == tag
        )

    def deliver(self, msg: Message) -> None:
        """Hand a message to the waiting receiver or buffer it."""
        if self._pending is not None:
            source, tag, resume = self._pending
            # _matches(), inlined: one delivery per simulated message
            if (source is ANY or msg.source == source) and (
                tag is ANY or msg.tag == tag
            ):
                self._pending = None
                resume(msg)
                return
        self._messages.append(msg)

    def take(
        self,
        source: Optional[int],
        tag: Optional[int],
        resume: Callable[[Message], None],
    ) -> bool:
        """Consume the first matching message, or register a waiter.

        Returns ``True`` if a message was immediately available.
        """
        for i, msg in enumerate(self._messages):
            if (source is ANY or msg.source == source) and (
                tag is ANY or msg.tag == tag
            ):
                del self._messages[i]
                resume(msg)
                return True
        if self._pending is not None:
            raise SimulationError("process already has an outstanding Recv")
        self._pending = (source, tag, resume)
        return False

    def cancel_pending(self) -> None:
        """Drop the registered waiter (recv deadline expiry, process kill).

        Messages arriving afterwards buffer normally.
        """
        self._pending = None

    def __len__(self) -> int:
        return len(self._messages)


class BarrierManager:
    """Named rendezvous points shared across all processes of a cluster.

    Release semantics follow the paper's accounting model: each arriving
    process is *idle* from its own arrival until the last arrival, then
    all members are *synchronizing* for ``cost`` seconds, after which all
    resume simultaneously.  Each member's synchronizing interval is added
    to its :attr:`SimProcess.sync_seconds`, so the accounted barrier
    cost is known without a trace.

    Fault tolerance hooks: a *count provider* maps a barrier-name prefix
    to a live group size (so a crashed member stops being expected),
    :meth:`purge` removes a killed process's arrivals, and
    :meth:`recheck` re-evaluates waiting groups after either changed —
    the cluster calls both when a crash notification fires.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._waiting: Dict[str, List[Tuple[float, "SimProcess"]]] = {}
        self._generation: Dict[str, int] = {}
        self._counts: Dict[str, int] = {}
        self._costs: Dict[str, float] = {}
        self._providers: List[Tuple[str, Callable[[], int]]] = []
        self.arrivals = 0
        self.releases = 0

    def set_count_provider(self, prefix: str, provider: Callable[[], int]) -> None:
        """Barriers whose name starts with ``prefix`` expect
        ``provider()`` members instead of the count they were yielded
        with — the hook that lets a group shrink when members die."""
        self._providers.append((prefix, provider))

    def _expected(self, key: str) -> int:
        name = key.rsplit("#", 1)[0]
        for prefix, provider in self._providers:
            if name.startswith(prefix):
                return max(int(provider()), 1)
        return self._counts[key]

    def arrive(self, name: str, count: int, cost: float, proc: "SimProcess") -> None:
        """Register one arrival; release everyone on the last."""
        key = f"{name}#{self._generation.get(name, 0)}"
        group = self._waiting.setdefault(key, [])
        group.append((self.engine.now, proc))
        self.arrivals += 1
        self._counts[key] = count
        self._costs[key] = cost
        self._maybe_release(key)

    def _maybe_release(self, key: str) -> None:
        group = self._waiting.get(key)
        if not group:
            return
        expected = self._expected(key)
        if len(group) > expected:
            name = key.rsplit("#", 1)[0]
            raise SimulationError(
                f"barrier {name!r} overflow: {len(group)} arrivals "
                f"for count={expected}"
            )
        if len(group) == expected:
            name = key.rsplit("#", 1)[0]
            cost = self._costs[key]
            self._generation[name] = self._generation.get(name, 0) + 1
            del self._waiting[key]
            del self._counts[key]
            del self._costs[key]
            self.releases += 1
            last_arrival = self.engine.now
            release = last_arrival + cost
            for arrived_at, member in group:
                member.trace("idle", arrived_at, last_arrival, detail=name)
                member.trace("sync", last_arrival, release, detail=name)
                member.sync_seconds += release - last_arrival
                self.engine.schedule_at(release, member.make_resume(None))

    def purge(self, proc: "SimProcess") -> None:
        """Remove a (killed) process's arrivals from all waiting groups."""
        for key in list(self._waiting):
            group = self._waiting[key]
            filtered = [(t, member) for t, member in group if member is not proc]
            if len(filtered) != len(group):
                if filtered:
                    self._waiting[key] = filtered
                else:
                    del self._waiting[key]
                    del self._counts[key]
                    del self._costs[key]

    def recheck(self) -> None:
        """Release any waiting group its (possibly shrunk) count now
        satisfies; called after a crash notification."""
        for key in list(self._waiting):
            self._maybe_release(key)


class SimProcess:
    """Runner wrapping one application generator."""

    __slots__ = (
        "cluster",
        "name",
        "tid",
        "node",
        "_gen",
        "finished",
        "killed",
        "failed",
        "result",
        "_blocked",
        "engine",
        "_tracer",
        "_mailbox",
        "sync_seconds",
    )

    def __init__(
        self,
        cluster: "Cluster",  # noqa: F821 - forward ref, see cluster.py
        name: str,
        tid: int,
        node: "Node",  # noqa: F821
        gen: Generator,
    ) -> None:
        self.cluster = cluster
        self.name = name
        self.tid = tid
        self.node = node
        self._gen = gen
        self.finished = False
        self.killed = False
        self.failed: Optional[BaseException] = None
        self.result: Any = None
        self._blocked = False
        #: cached collaborators — these are on the per-event hot path,
        #: so the attribute chases are paid once at spawn time
        self.engine: Engine = cluster.engine
        self._tracer = cluster.tracer
        #: this process's mailbox; wired by Cluster.spawn right after
        #: construction (the mailbox registry owns the instance)
        self._mailbox: Optional[Mailbox] = None
        #: accounted barrier cost paid so far (the ``sync`` category),
        #: summed in release order whether or not the tracer records
        self.sync_seconds = 0.0

    # ------------------------------------------------------------------
    def trace(self, category: str, start: float, end: float, detail: str = "") -> None:
        """Emit a trace record attributed to this process."""
        self._tracer.record(self.name, category, start, end, detail)

    def make_resume(self, value: Any) -> Callable[[], None]:
        """A zero-arg callback resuming this process with ``value``."""

        def _resume() -> None:
            self._unblock()
            self._step(value)

        return _resume

    def _block(self) -> None:
        if not self._blocked:
            self._blocked = True
            self.engine.blocked_processes += 1

    def _unblock(self) -> None:
        if self._blocked:
            self._blocked = False
            self.engine.blocked_processes -= 1

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first step of the generator at t(now)."""
        self.engine.schedule(0.0, lambda: self._step(None))

    def kill(self, reason: str = "") -> None:
        """Terminate this process immediately (node crash).

        The generator is closed, the process unblocked (so the engine's
        deadlock check does not count it), and its mailbox waiter and
        barrier arrivals are withdrawn.  Idempotent; a finished process
        is left alone.
        """
        if self.finished:
            return
        self.finished = True
        self.killed = True
        try:
            self._gen.close()
        except RuntimeError:  # generator swallowed GeneratorExit
            pass
        self._unblock()
        self.cluster.mailbox_of(self.tid).cancel_pending()
        self.cluster.barriers.purge(self)
        now = self.engine.now
        self.trace("fault", now, now, detail=f"killed:{reason}" if reason else "killed")

    def _step(self, value: Any) -> None:
        if self.finished:  # killed while an old resume event was in flight
            return
        try:
            request = self._gen.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = getattr(stop, "value", None)
            self.cluster._process_finished(self)
            return
        except BaseException as exc:  # surface app bugs with process context
            self.finished = True
            self.failed = exc
            self.cluster._process_failed(self, exc)
            return
        # Dispatch, inlined (one per event).  Exact-type checks first:
        # the request vocabulary is closed and the event classes are
        # slotted finals in practice, so `is` beats the isinstance
        # chain on the per-event hot path.  The isinstance fallback
        # keeps subclasses working.
        cls = request.__class__
        if cls is Send or isinstance(request, Send):
            self._do_send(request)
        elif cls is Recv or isinstance(request, Recv):
            self._do_recv(request)
        elif cls is Compute or isinstance(request, Compute):
            self._do_compute(request)
        elif cls is Barrier or isinstance(request, Barrier):
            self._block()
            self.cluster.barriers.arrive(
                request.name, request.count, request.cost, self
            )
        elif cls is Timeout or isinstance(request, Timeout):
            if self._tracer.enabled:
                start = self.engine.now
                self.trace("sleep", start, start + request.delay)
            self.engine.schedule(request.delay, lambda: self._step(None))
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported request {request!r}"
            )

    def _do_compute(self, request: Compute) -> None:
        node = self.node
        engine = self.engine
        duration, flops = node.compute_duration(request)
        start_wait = engine.now
        self._block()

        def _granted() -> None:
            if self.finished:  # killed while waiting for the CPU
                node.cpus.release()
                return
            start = engine.now
            if start > start_wait:
                self.trace("cpu_wait", start_wait, start)

            def _finish() -> None:
                node.cpus.release()
                if self.finished:  # killed mid-compute
                    return
                node.hpm.add(flops=flops, busy=duration)
                if self._tracer.enabled:
                    self.trace("compute", start, engine.now)
                self._unblock()
                self._step(None)

            engine.schedule(duration, _finish)

        node.cpus.acquire(_granted)

    def _do_send(self, request: Send) -> None:
        cluster = self.cluster
        engine = self.engine
        start = engine._now
        if not self._blocked:
            self._blocked = True
            engine.blocked_processes += 1
        dest_proc = cluster._procs_by_tid.get(request.dest)
        if dest_proc is None:
            dest_proc = cluster.process_by_tid(request.dest)  # raises
        dest_mailbox = dest_proc._mailbox
        # next_msg_seq(), inlined (one per simulated message)
        cluster._msg_seq = seq = cluster._msg_seq + 1
        msg = Message(
            source=self.tid,
            dest=request.dest,
            tag=request.tag,
            nbytes=request.nbytes,
            payload=request.payload,
            sent_at=start,
            seq=seq,
        )

        def _injected() -> None:
            if self._tracer.enabled:
                self.trace("send", start, engine.now, detail=f"tag={request.tag}")
            if self._blocked:
                self._blocked = False
                engine.blocked_processes -= 1
            self._step(None)

        def _delivered() -> None:
            # Cluster.deliver, inlined (one per simulated message).
            msg.delivered_at = engine._now
            if dest_proc.finished:
                cluster.metrics.counter("faults.dead_letters").inc()
                return
            if dest_mailbox is not None:
                dest_mailbox.deliver(msg)
            else:  # spawned outside Cluster.spawn (tests)
                cluster.mailbox_of(dest_proc.tid).deliver(msg)

        cluster.fabric.transfer(
            self.node, dest_proc.node, request.nbytes, _injected, _delivered
        )

    def _do_recv(self, request: Recv) -> None:
        engine = self.engine
        start = engine._now
        mailbox = self._mailbox
        if mailbox is None:  # spawned outside Cluster.spawn (tests)
            mailbox = self.cluster.mailbox_of(self.tid)
        if not self._blocked:
            self._blocked = True
            engine.blocked_processes += 1
        # The shared completion flag is only needed to adjudicate the
        # message-vs-deadline race, so the common untimed receive skips
        # the allocation entirely.
        state = None if request.timeout is None else {"done": False}

        def _resume(msg: Message) -> None:
            if self.finished:  # killed while waiting
                return
            if state is not None:
                state["done"] = True
            now = engine._now
            if self._tracer.enabled:
                if now > start:
                    self.trace("recv_wait", start, now, detail=f"tag={msg.tag}")
                # Causal edge: the sender's injection instant to this
                # receive completion.  Every PVM send/recv — and therefore
                # every Sciddle RPC leg — lands here exactly once.
                try:
                    src_name = self.cluster.process_by_tid(msg.source).name
                except SimulationError:
                    src_name = f"tid{msg.source}"
                self._tracer.flow(
                    fid=msg.seq,
                    src_proc=src_name,
                    src_time=msg.sent_at,
                    dst_proc=self.name,
                    dst_time=now,
                    nbytes=msg.nbytes,
                    tag=msg.tag,
                )
            if self._blocked:
                self._blocked = False
                engine.blocked_processes -= 1
            # Resume in a fresh event so delivery callbacks unwind first.
            engine.schedule(0.0, lambda: self._step(msg))

        satisfied = mailbox.take(request.source, request.tag, _resume)
        if state is None or satisfied or state["done"]:
            return

        deadline = request.timeout

        def _expire() -> None:
            # No-op if the message arrived (or the process died) first;
            # the expired timer event is harmless.
            if state["done"] or self.finished:
                return
            state["done"] = True
            mailbox.cancel_pending()
            now = self.engine.now
            if now > start:
                self.trace("recv_wait", start, now, detail="timeout")
            self._unblock()
            result = RecvTimeout(
                source=request.source, tag=request.tag, timeout=deadline, at=now
            )
            self.engine.schedule(0.0, lambda: self._step(result))

        self.engine.schedule(deadline, _expire)

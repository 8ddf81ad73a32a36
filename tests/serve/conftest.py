"""Shared fixtures of the serve tests."""

import asyncio
import threading

import pytest

from repro.serve import service as service_mod


class ComputeGate:
    """Holds every batch's model evaluation until :attr:`released` is set
    (or for at most 10 s, so a failing test cannot hang the suite).

    A batch held here keeps the service's one compute thread busy, so a
    request submitted meanwhile waits in the batcher queue for as long
    as the test likes: the deterministic way to age a request before
    compute.  ``evaluated`` lists the server count of every job that
    reached the model.
    """

    def __init__(self) -> None:
        self.computing = threading.Event()
        self.released = threading.Event()
        self.evaluated = []

    async def entered(self) -> None:
        """Return once a batch is held in compute."""
        assert await asyncio.to_thread(self.computing.wait, 10.0)


@pytest.fixture
def compute_gate(monkeypatch):
    gate = ComputeGate()
    evaluate = service_mod._evaluate_jobs

    def gated(jobs):
        gate.computing.set()
        gate.released.wait(10.0)
        gate.evaluated.extend(query.servers for _kind, query, _params, _src in jobs)
        return evaluate(jobs)

    monkeypatch.setattr(service_mod, "_evaluate_jobs", gated)
    return gate

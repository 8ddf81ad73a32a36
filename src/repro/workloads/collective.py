"""The ``collective`` workload family: middleware collective patterns.

Barchet-Estefanel & Mounié (PAPERS.md) model collective communication
as structured rounds over a fan-out tree; this family reproduces that
shape on the client/server middleware: each compiled phase step is one
tree stage of one collective round, with per-pattern message sizes and
reduction work.

Patterns
========
barrier     control messages only (``CTRL_BYTES`` each way), no compute
broadcast   ``message_bytes`` out, control ack back
allreduce   ``message_bytes`` both ways; servers reduce their payload
            (one op per 8-byte element), the client combines the ``p``
            partial results on the final stage of each round
alltoall    every rank exchanges with every other: ``(p-1) *
            message_bytes`` each way per stage, no compute

Every term is an integer count: a cell runs ``rounds * depth(p)`` steps
of identical traffic, so the terms of a whole server vector follow from
the tree depth of each count (:meth:`CollectiveFamily.integer_totals`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.parameters import FamilyTermColumns
from .base import ClosedFormFamily, register_family
from .program import CTRL_BYTES, PhaseStep
from .spec import FieldSpec, WorkloadSpec

#: Reduction granularity: one combine op per 8-byte (double) element.
BYTES_PER_ELEMENT = 8

PATTERNS = ("barrier", "broadcast", "allreduce", "alltoall")


def tree_stages(participants: int, fanout: int) -> int:
    """Stages of a ``fanout``-ary dissemination tree over participants."""
    stages, reach = 0, 1
    while reach < participants:
        reach *= fanout
        stages += 1
    return max(stages, 1)


@register_family
class CollectiveFamily(ClosedFormFamily):
    """Tree-structured collective communication rounds (see module doc)."""

    name = "collective"
    summary = "tree-structured collective communication rounds"
    fields = (
        FieldSpec(
            name="pattern",
            kind="str",
            default="allreduce",
            choices=PATTERNS,
            doc="collective pattern to run",
        ),
        FieldSpec(
            name="message_bytes",
            kind="int",
            default=4096,
            unit="bytes",
            minimum=1,
            maximum=1 << 24,
            doc="payload per rank per stage",
        ),
        FieldSpec(
            name="fanout",
            kind="int",
            default=2,
            unit="ranks",
            minimum=2,
            maximum=64,
            doc="tree fan-out",
        ),
        FieldSpec(
            name="rounds",
            kind="int",
            default=4,
            unit="rounds",
            minimum=1,
            maximum=10_000,
            doc="back-to-back repetitions of the collective",
        ),
    )

    def compile(self, spec: WorkloadSpec, servers: int) -> Tuple[PhaseStep, ...]:
        """One phase step per (round, tree stage) of the pattern."""
        pattern = spec.get("pattern")
        m = int(spec.get("message_bytes"))
        rounds = int(spec.get("rounds"))
        depth = tree_stages(servers + 1, int(spec.get("fanout")))
        elements = float(m // BYTES_PER_ELEMENT)
        steps = []
        for r in range(rounds):
            for d in range(depth):
                last = d == depth - 1
                if pattern == "barrier":
                    step = PhaseStep(
                        f"barrier@{r}.{d}", CTRL_BYTES, CTRL_BYTES, 0.0, 0.0
                    )
                elif pattern == "broadcast":
                    step = PhaseStep(
                        f"broadcast@{r}.{d}", m, CTRL_BYTES, 0.0, 0.0
                    )
                elif pattern == "allreduce":
                    # servers reduce their slice each stage; the client
                    # combines the p partials once per round
                    combine = float(servers) * elements if last else 0.0
                    step = PhaseStep(
                        f"allreduce@{r}.{d}", m, m, elements, combine
                    )
                else:  # alltoall
                    volume = max(servers - 1, 1) * m
                    step = PhaseStep(
                        f"alltoall@{r}.{d}", volume, volume, 0.0, 0.0
                    )
                steps.append(step)
        return tuple(steps)

    def integer_totals(self, spec: WorkloadSpec, servers: Any) -> Tuple[Any, ...]:
        """(pair_ops, seq_ops, comm_bytes, comm_msgs, sync_ops) of the program."""
        pattern = spec.get("pattern")
        m = int(spec.get("message_bytes"))
        rounds = int(spec.get("rounds"))
        fanout = int(spec.get("fanout"))
        if isinstance(servers, np.ndarray):
            depth = np.array(
                [tree_stages(p + 1, fanout) for p in servers.tolist()],
                dtype=np.int64,
            )
        else:
            depth = tree_stages(servers + 1, fanout)
        steps = rounds * depth
        elements = m // BYTES_PER_ELEMENT if pattern == "allreduce" else 0
        if pattern == "barrier":
            exchanged = 2 * CTRL_BYTES
        elif pattern == "broadcast":
            exchanged = m + CTRL_BYTES
        elif pattern == "allreduce":
            exchanged = 2 * m
        else:  # alltoall: max(p - 1, 1) payloads each way, for p >= 1
            exchanged = 2 * m * (servers - 1 + (servers == 1))
        return (
            elements * steps,
            rounds * servers * elements,
            servers * exchanged * steps,
            2 * servers * steps,
            2 * steps,
        )

    def closed_form(
        self, spec: WorkloadSpec, servers: Tuple[int, ...]
    ) -> FamilyTermColumns:
        """Every term from the integer totals of each server count."""
        totals = self.integer_totals(spec, np.array(servers, dtype=np.int64))
        return FamilyTermColumns.stack(servers, (0, *totals))

    def campaign_specs(
        self, base: Optional[WorkloadSpec] = None
    ) -> Tuple[WorkloadSpec, ...]:
        """Factorial axis: every pattern x two message sizes."""
        params = dict(base.params) if base is not None else self.default_params()
        small = int(params["message_bytes"])
        large = min(small * 16, 1 << 24)
        specs = []
        for pattern in PATTERNS:
            for message_bytes in (small, large):
                specs.append(
                    self.spec_from_params(
                        {**params, "pattern": pattern,
                         "message_bytes": message_bytes}
                    )
                )
        return tuple(specs)

    def example_params(self) -> Tuple[Dict[str, Any], ...]:
        """Representative specs for load mixes and docs."""
        return (
            {"pattern": "allreduce", "message_bytes": 4096},
            {"pattern": "broadcast", "message_bytes": 65536},
            {"pattern": "barrier", "rounds": 8},
            {"pattern": "alltoall", "message_bytes": 1024},
        )

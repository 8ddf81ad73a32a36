"""The ``hpl`` workload family: a blocked dense-solver client/server run.

Xu et al.'s HPL case study (PAPERS.md) fits the same simulate ->
calibrate -> predict pipeline as Opal: an LU-style factorization
proceeds panel by panel, each panel mixing sequential client work
(panel factorization), a broadcast of the panel, and parallel trailing-
matrix updates across the servers.  One compiled phase step per panel:

* the client factorizes the ``trailing x block`` panel
  (``trailing * block^2`` flops, sequential);
* the panel broadcast sends ``trailing * block * 8`` bytes to each
  server, which answers with a control ack;
* each server updates its share of the trailing matrix
  (``2 * trailing^2 * block / p`` flops inside the phase barriers).

Every term but the update flops is an integer count
(:meth:`HplFamily.integer_totals`).  The update flops divide by ``p``
inside each panel, so their total stays what the program sums: builtin
``sum`` over the panels in order, which CPython 3.12 made compensated.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.parameters import FamilyTermColumns
from ..errors import WorkloadError
from .base import ClosedFormFamily, register_family
from .program import CTRL_BYTES, PhaseStep
from .spec import FieldSpec, WorkloadSpec

#: Matrix entries are doubles.
BYTES_PER_ENTRY = 8


@register_family
class HplFamily(ClosedFormFamily):
    """Blocked dense-solver rounds: panel factor + broadcast + update."""

    name = "hpl"
    summary = "blocked dense-solver rounds (panel factor + trailing update)"
    fields = (
        FieldSpec(
            name="matrix_n",
            kind="int",
            default=256,
            unit="rows",
            minimum=32,
            maximum=4096,
            doc="order of the dense system",
        ),
        FieldSpec(
            name="block",
            kind="int",
            default=64,
            unit="rows",
            minimum=8,
            maximum=1024,
            doc="panel blocking factor",
        ),
    )

    def check(self, params: Dict[str, Any]) -> None:
        """Cross-field: the blocking factor cannot exceed the order."""
        if params["block"] > params["matrix_n"]:
            raise WorkloadError(
                f"{self.name}: block ({params['block']}) must not exceed "
                f"matrix_n ({params['matrix_n']})"
            )

    def compile(self, spec: WorkloadSpec, servers: int) -> Tuple[PhaseStep, ...]:
        """One phase step per factorization panel (``ceil(n/block)``)."""
        n = int(spec.get("matrix_n"))
        nb = int(spec.get("block"))
        panels = math.ceil(n / nb)
        steps = []
        for k in range(panels):
            trailing = n - k * nb
            factor_flops = float(trailing) * nb * nb
            update_flops = 2.0 * trailing * trailing * nb / servers
            panel_bytes = trailing * nb * BYTES_PER_ENTRY
            steps.append(
                PhaseStep(
                    f"panel@{k}",
                    panel_bytes,
                    CTRL_BYTES,
                    update_flops,
                    factor_flops,
                )
            )
        return tuple(steps)

    def integer_totals(self, spec: WorkloadSpec, servers: Any) -> Tuple[Any, ...]:
        """(seq_ops, comm_bytes, comm_msgs, sync_ops) of the program."""
        n = int(spec.get("matrix_n"))
        nb = int(spec.get("block"))
        panels = math.ceil(n / nb)
        # the trailing order n - k * nb, summed over the panels k
        trailing = panels * n - nb * panels * (panels - 1) // 2
        return (
            trailing * nb * nb,
            servers * (trailing * nb * BYTES_PER_ENTRY + panels * CTRL_BYTES),
            2 * servers * panels,
            2 * panels,
        )

    def closed_form(
        self, spec: WorkloadSpec, servers: Tuple[int, ...]
    ) -> FamilyTermColumns:
        """The integer totals, and the update flops summed in panel order."""
        n = int(spec.get("matrix_n"))
        nb = int(spec.get("block"))
        trailing = n - nb * np.arange(math.ceil(n / nb), dtype=np.int64)
        p = np.array(servers, dtype=np.float64)[:, np.newaxis]
        # one row per server count of the program's per-panel update flops
        update_flops = 2.0 * trailing * trailing * nb / p
        pair_ops = [sum(panels) for panels in update_flops.tolist()]
        totals = self.integer_totals(spec, np.array(servers, dtype=np.int64))
        return FamilyTermColumns.stack(servers, (0, pair_ops, *totals))

    def campaign_specs(
        self, base: Optional[WorkloadSpec] = None
    ) -> Tuple[WorkloadSpec, ...]:
        """Factorial axis: two problem sizes x two blocking factors."""
        params = dict(base.params) if base is not None else self.default_params()
        n = int(params["matrix_n"])
        small_n = max(n * 3 // 4, 32)
        specs = []
        for matrix_n in (small_n, n):
            for block in (max(int(params["block"]) // 2, 8), params["block"]):
                if block > matrix_n:
                    continue
                specs.append(
                    self.spec_from_params(
                        {**params, "matrix_n": matrix_n, "block": block}
                    )
                )
        return tuple(specs)

    def example_params(self) -> Tuple[Dict[str, Any], ...]:
        """Representative specs for load mixes and docs."""
        return (
            {"matrix_n": 256, "block": 64},
            {"matrix_n": 384, "block": 32},
            {"matrix_n": 192, "block": 48},
        )

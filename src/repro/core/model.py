"""The analytical time-complexity model of Opal (Section 2.2).

Implements equations (2) through (10) of the paper:

.. math::

    t_{OPAL} = t_{tot\\_par\\_comp} + t_{tot\\_seq\\_comp}
             + t_{tot\\_comm} + t_{tot\\_sync}

with

* ``t_update``   — eq. (3), quadratic in problem size, proportional to the
  per-step update rate u, divided by the number of servers p;
* ``t_nbint``    — eq. (4), piecewise: quadratic ``n(n-1)/2`` until the
  cutoff becomes effective, then linear ``n~ * n``;
* ``t_seq``      — eq. (5), ``a4 * s * n``;
* ``t_comm``     — eq. (6)-(9) summed:
  ``s * (p * (alpha/a1) * (u+2) * n + 2 p b1 (u+1))``;
* ``t_sync``     — eq. (10), ``2 s (u+1) b5``.

All times are client-perspective wall-clock seconds for the whole run of
``s`` simulation steps.
"""

from __future__ import annotations

from typing import Any, Iterable, List

import numpy as np

from ..errors import ModelError
from .breakdown import TimeBreakdown
from .parameters import (
    EXACT_INT_LIMIT,
    ApplicationParams,
    FamilyTermColumns,
    FamilyWorkloadTerms,
    ModelPlatformParams,
    workload_terms,
)

#: The closed vocabulary of platform coefficients appearing in equations
#: (2)-(10): a1 (communication rate), b1 (per-message overhead), a2
#: (pair-generation time), a3 (pair-energy time), a4 (sequential
#: per-mass-center time), b5 (synchronization cost).  simlint rule M301
#: rejects any other coefficient-shaped identifier in core/platforms so
#: the code cannot silently drift from the validated model.
EQUATION_PLATFORM_PARAMETERS = ("a1", "a2", "a3", "a4", "b1", "b5")


def terms_breakdown(
    params: ModelPlatformParams, terms: FamilyWorkloadTerms
) -> TimeBreakdown:
    """Evaluate the model for one family cell's closed-form regressors.

    The family-generic analogue of
    :meth:`OpalPerformanceModel.breakdown`: each
    :class:`~repro.core.parameters.FamilyWorkloadTerms` count pairs with
    one coefficient of the closed vocabulary.  A pure function of its
    arguments, so batched serve evaluation is bit-identical at any batch
    size.
    """
    return TimeBreakdown(
        update=params.a2 * terms.update_ops,
        nbint=params.a3 * terms.pair_ops,
        seq_comp=params.a4 * terms.seq_ops,
        comm=terms.comm_bytes / params.a1 + terms.comm_msgs * params.b1,
        sync=terms.sync_ops * params.b5,
        idle=0.0,
    )


def terms_totals(
    params: ModelPlatformParams, columns: FamilyTermColumns
) -> np.ndarray:
    """``terms_breakdown(params, terms).total`` at every server count.

    Each component is the same float64 operation as in
    :func:`terms_breakdown`, applied elementwise, and the components are
    added in :attr:`TimeBreakdown.total`'s order (``update + nbint``,
    then ``seq_comp``, ``comm``, ``sync`` and the zero ``idle``), so
    every entry equals the scalar total bit for bit.
    """
    update_ops, pair_ops, seq_ops, comm_bytes, comm_msgs, sync_ops = columns.matrix
    update = params.a2 * update_ops
    nbint = params.a3 * pair_ops
    seq_comp = params.a4 * seq_ops
    comm = comm_bytes / params.a1 + comm_msgs * params.b1
    sync = sync_ops * params.b5
    return update + nbint + seq_comp + comm + sync + 0.0


class _ServerVector:
    """The attributes equations (3)-(10) read, with ``p`` a float64 vector.

    The equations touch the server count only through arithmetic, so
    the model's own ``t_*`` methods, handed this view of an
    :class:`ApplicationParams`, evaluate every server count at once
    with the scalar path's association.
    """

    __slots__ = ("p", "s", "n", "update_rate", "alpha", "molecule", "cutoff")

    def __init__(self, app: ApplicationParams, p: np.ndarray) -> None:
        self.p = p
        self.s = app.s
        self.n = app.n
        self.update_rate = app.update_rate
        self.alpha = app.alpha
        self.molecule = app.molecule
        self.cutoff = app.cutoff


class OpalPerformanceModel:
    """Evaluate the analytical model for one platform."""

    def __init__(self, platform: ModelPlatformParams) -> None:
        self.platform = platform

    # -- individual components (paper equation numbers in parentheses) ----
    def t_update(self, app: ApplicationParams) -> float:
        """Total pair-list update time over the run (eq. 3)."""
        pl = self.platform
        terms = workload_terms(app.molecule, app.cutoff)
        return pl.a2 * (app.s * app.update_rate / app.p) * terms.update_pairs

    def t_nbint(self, app: ApplicationParams) -> float:
        """Total non-bonded energy evaluation time (eq. 4)."""
        pl = self.platform
        terms = workload_terms(app.molecule, app.cutoff)
        return pl.a3 * (app.s / app.p) * terms.energy_pairs

    def t_par_comp(self, app: ApplicationParams) -> float:
        """Total parallel computation time (eq. 2)."""
        return self.t_update(app) + self.t_nbint(app)

    def t_seq_comp(self, app: ApplicationParams) -> float:
        """Total sequential (client) computation time (eq. 5)."""
        return self.platform.a4 * app.s * app.n

    def t_call(self, app: ApplicationParams) -> float:
        """One RPC call's coordinate-send time to ONE server (eq. 7)."""
        pl = self.platform
        return (app.alpha / pl.a1) * app.n + pl.b1

    def t_return_upd(self, app: ApplicationParams) -> float:
        """Update RPC return (ack only) from ONE server (eq. 8)."""
        return self.platform.b1

    def t_return_nbi(self, app: ApplicationParams) -> float:
        """Energy RPC return (energies + gradients) from ONE server (eq. 9)."""
        pl = self.platform
        return (app.alpha / pl.a1) * app.n + pl.b1

    def t_comm(self, app: ApplicationParams) -> float:
        """Total communication time over the run (eq. 6, closed form)."""
        pl = self.platform
        u = app.update_rate
        per_step = app.p * (app.alpha / pl.a1) * (u + 2.0) * app.n + (
            2.0 * app.p * pl.b1 * (u + 1.0)
        )
        return app.s * per_step

    def t_sync(self, app: ApplicationParams) -> float:
        """Total synchronization time over the run (eq. 10)."""
        u = app.update_rate
        return 2.0 * app.s * (u + 1.0) * self.platform.b5

    # ------------------------------------------------------------------
    def breakdown(self, app: ApplicationParams) -> TimeBreakdown:
        """Full predicted breakdown (idle is zero by model assumption)."""
        return TimeBreakdown(
            update=self.t_update(app),
            nbint=self.t_nbint(app),
            seq_comp=self.t_seq_comp(app),
            comm=self.t_comm(app),
            sync=self.t_sync(app),
            idle=0.0,
        )

    def predict_total(self, app: ApplicationParams) -> float:
        """t_OPAL for one configuration."""
        return self.breakdown(app).total

    # ------------------------------------------------------------------
    def execution_times(
        self, app: ApplicationParams, servers: Iterable[int]
    ) -> List[float]:
        """Predicted t_OPAL over a range of server counts.

        One pass over the server vector: every entry equals
        ``predict_total(app.with_(servers=p))`` bit for bit.  A server or
        step count past 2**53 takes the per-p path, where Python divides
        the integers ``s / p`` exactly and float64 cannot; so does a
        subclass, which may redefine any equation (the imbalance-aware
        model adds an idle term).
        """
        servers = list(servers)
        if servers and min(servers) < 1:
            raise ModelError("server counts must be >= 1")
        if (
            type(self) is not OpalPerformanceModel
            or app.s > EXACT_INT_LIMIT
            or (servers and max(servers) > EXACT_INT_LIMIT)
        ):
            return [self.predict_total(app.with_(servers=p)) for p in servers]
        view: Any = _ServerVector(app, np.array(servers, dtype=np.float64))
        totals: Any = (
            self.t_par_comp(view)
            + self.t_seq_comp(view)
            + self.t_comm(view)
            + self.t_sync(view)
            + 0.0
        )
        return totals.tolist()

    def communication_bound_at(
        self, app: ApplicationParams, max_servers: int = 64
    ) -> int:
        """Smallest p at which communication exceeds parallel computation.

        Returns ``max_servers + 1`` if the run stays compute bound
        throughout — the regime the paper calls "entirely compute bound
        ... parallelizes well regardless of the system".
        """
        for p in range(1, max_servers + 1):
            a = app.with_(servers=p)
            if self.t_comm(a) > self.t_par_comp(a):
                return p
        return max_servers + 1

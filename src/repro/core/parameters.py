"""Model parameters (Section 2.2 "Model parameters").

The paper splits the parameters of the analytical model into
*application parameters* (:class:`ApplicationParams`) — properties of an
Opal run, invariant across machines — and *platform parameters*
(:class:`ModelPlatformParams`) — the technical key data of the machine.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import ModelError
from ..opal import costs
from ..opal.complexes import ComplexSpec
from ..units import to_mflop_per_s

if TYPE_CHECKING:  # annotation-only; a runtime import would be circular
    from ..platforms.spec import PlatformSpec


@dataclass(frozen=True)
class ApplicationParams:
    """One Opal run configuration.

    ``update_interval`` is the user-facing Opal ``update`` parameter:
    the number of simulation steps between two pair-list updates (1 =
    full update, 10 = the paper's partial update).  The model equations
    use its reciprocal, the per-step update *rate* ``u`` — see
    DESIGN.md, "Model notation fix".
    """

    molecule: ComplexSpec
    steps: int = 10
    servers: int = 1
    update_interval: int = 1
    #: cutoff radius in Angstrom; None = fully accurate (no cutoff)
    cutoff: Optional[float] = None
    #: bytes per mass-center coordinate record (paper's alpha)
    alpha: int = costs.ALPHA_BYTES

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ModelError("steps must be >= 1")
        if self.servers < 1:
            raise ModelError("servers must be >= 1")
        if self.update_interval < 1:
            raise ModelError("update_interval must be >= 1 step")
        if self.cutoff is not None and self.cutoff <= 0:
            raise ModelError("cutoff must be positive or None")
        if self.alpha <= 0:
            raise ModelError("alpha must be positive")

    # -- paper symbols ---------------------------------------------------
    @property
    def s(self) -> int:
        """The paper's s: number of simulation steps."""
        return self.steps

    @property
    def p(self) -> int:
        """The paper's p: number of servers."""
        return self.servers

    @property
    def n(self) -> int:
        """The paper's n: mass centers of the complex."""
        return self.molecule.n

    @property
    def gamma(self) -> float:
        """The paper's gamma: water fraction of the mass centers."""
        return self.molecule.gamma

    @property
    def update_rate(self) -> float:
        """u of the model equations: pair-list updates per step (<= 1)."""
        return 1.0 / self.update_interval

    @property
    def n_tilde(self) -> float:
        """The paper's n~: neighbours within the cutoff sphere."""
        return self.workload_terms().n_tilde

    def workload_terms(self) -> "WorkloadTerms":
        """The memoized per-(molecule, cutoff) invariants of the model.

        Server count, step count and update interval do not enter, so a
        whole server sweep — or a whole micro-batch of what-if queries
        against the same complex — shares one computation of the pair
        workloads (see :func:`workload_terms`).
        """
        return workload_terms(self.molecule, self.cutoff)

    @property
    def cutoff_effective(self) -> bool:
        """Whether the cutoff actually reduces the pair count."""
        return self.molecule.cutoff_effective(self.cutoff)

    def with_(self, **changes: object) -> "ApplicationParams":
        """A modified copy, e.g. ``app.with_(servers=4)``."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ModelPlatformParams:
    """The analytical model's per-machine coefficients.

    =====  ==========================================================
    a1     communication rate including middleware overhead [byte/s]
    b1     per-message communication overhead [s]
    a2     time to generate one pair and test its distance [s]
    a3     time for one non-bonded pair energy contribution [s]
    a4     per-mass-center time of the client's sequential work [s]
    b5     time of one process synchronization [s]
    =====  ==========================================================
    """

    name: str
    a1: float
    b1: float
    a2: float
    a3: float
    a4: float
    b5: float

    def __post_init__(self) -> None:
        if self.a1 <= 0:
            raise ModelError(f"{self.name}: a1 (comm rate) must be positive")
        for field_name in ("b1", "a2", "a3", "a4", "b5"):
            if getattr(self, field_name) < 0:
                raise ModelError(f"{self.name}: {field_name} must be >= 0")

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: "PlatformSpec") -> "ModelPlatformParams":
        """Derive model coefficients from a :class:`PlatformSpec`.

        This is the paper's Section 4.1 route: communication figures come
        straight from Table 2 observations; compute coefficients divide
        the kernel flop costs by the platform's (adjusted, i.e.
        algorithmic) compute rate.  For exact measured coefficients use
        the microbenchmarks (:mod:`repro.platforms.microbench`) or a full
        calibration (:mod:`repro.core.calibration`).
        """
        rate = spec.cpu_rate
        return cls(
            name=spec.name,
            a1=spec.net_bw,
            b1=spec.net_latency,
            a2=costs.UPDATE_PAIR_FLOPS / rate,
            a3=costs.NB_PAIR_FLOPS / rate,
            a4=costs.SEQ_ATOM_FLOPS / rate,
            b5=spec.sync_cost,
        )

    def compute_rate_mflops(self) -> float:
        """Equivalent algorithmic compute rate implied by a3 [MFlop/s]."""
        return to_mflop_per_s(costs.NB_PAIR_FLOPS / self.a3)

    def with_(self, **changes: object) -> "ModelPlatformParams":
        """A modified copy, e.g. ``params.with_(a1=7e6)``."""
        return replace(self, **changes)

    def scaled_compute(self, factor: float) -> "ModelPlatformParams":
        """Copy with all compute coefficients scaled by ``factor``
        (>1 = slower CPU).  Used in what-if/ablation studies."""
        if factor <= 0:
            raise ModelError("scale factor must be positive")
        return replace(
            self,
            a2=self.a2 * factor,
            a3=self.a3 * factor,
            a4=self.a4 * factor,
        )


@dataclass(frozen=True)
class WorkloadTerms:
    """Per-(molecule, cutoff) invariants of the model equations.

    Everything here is independent of the server count, the step count
    and the update interval, so one instance serves a whole execution
    time sweep (eqs. 3 and 4 evaluate these workloads once per cell, not
    once per server count).
    """

    #: the paper's n: mass centers of the complex
    n: int
    #: the paper's gamma: water fraction of the mass centers
    gamma: float
    #: the paper's n~: neighbours within the cutoff sphere
    n_tilde: float
    #: pairs processed by one pair-list update (eq. 3)
    update_pairs: float
    #: pairs evaluated by one energy evaluation (eq. 4)
    energy_pairs: float


#: The six :class:`FamilyWorkloadTerms` counts, in field order.
TERM_NAMES = (
    "update_ops", "pair_ops", "seq_ops", "comm_bytes", "comm_msgs", "sync_ops",
)


@dataclass(frozen=True)
class FamilyWorkloadTerms:
    """Closed-form regressors of one lowered workload cell.

    The family-generic analogue of :class:`WorkloadTerms`: a workload
    family's compiler (:mod:`repro.workloads`) reduces one
    (spec, servers) cell to these six counts, and the model evaluates
    them against the same closed coefficient vocabulary as equations
    (2)-(10) of the paper.  Compute work is counted in *flops* (not
    pairs), so the key-data coefficients for a family are simply
    ``1 / cpu_rate``:

    ==========  ====================================================
    update_ops  flops of "update"-class parallel work   (x a2)
    pair_ops    flops of "pair"-class parallel work     (x a3)
    seq_ops     flops of sequential client work         (x a4)
    comm_bytes  payload bytes on the wire               (x 1/a1)
    comm_msgs   messages on the wire                    (x b1)
    sync_ops    process synchronizations                (x b5)
    ==========  ====================================================
    """

    update_ops: float = 0.0
    pair_ops: float = 0.0
    seq_ops: float = 0.0
    comm_bytes: float = 0.0
    comm_msgs: float = 0.0
    sync_ops: float = 0.0

    def __post_init__(self) -> None:
        for field_name in TERM_NAMES:
            if getattr(self, field_name) < 0:
                raise ModelError(f"{field_name} must be >= 0")

    def __add__(self, other: "FamilyWorkloadTerms") -> "FamilyWorkloadTerms":
        return FamilyWorkloadTerms(
            update_ops=self.update_ops + other.update_ops,
            pair_ops=self.pair_ops + other.pair_ops,
            seq_ops=self.seq_ops + other.seq_ops,
            comm_bytes=self.comm_bytes + other.comm_bytes,
            comm_msgs=self.comm_msgs + other.comm_msgs,
            sync_ops=self.sync_ops + other.sync_ops,
        )


#: Largest integer total a float64 holds with every smaller integer
#: exact: a sum of non-negative integer-valued floats equals its exact
#: integer total while that total stays at or below this bound.
EXACT_INT_LIMIT = 2**53


def server_counts(servers: Iterable[int]) -> Tuple[int, ...]:
    """A validated server vector: integer counts, each at least 1."""
    counts = tuple(operator.index(p) for p in servers)
    if counts and min(counts) < 1:
        raise ModelError("server counts must be >= 1")
    return counts


class FamilyTermColumns:
    """:class:`FamilyWorkloadTerms` over a vector of server counts.

    ``matrix`` holds one float64 row per count (in :data:`TERM_NAMES`
    order) and one column per entry of ``servers``; column ``i`` holds
    exactly the floats of the cell's terms at ``servers[i]``
    (:meth:`terms_at`).  A workload family's ``lower`` builds this once
    per spec, and :func:`repro.core.model.terms_totals` evaluates every
    column in one pass.
    """

    __slots__ = ("servers", "matrix")

    def __init__(self, servers: Tuple[int, ...], matrix: np.ndarray) -> None:
        if matrix.shape != (len(TERM_NAMES), len(servers)):
            raise ModelError(
                f"term matrix has shape {matrix.shape}, want "
                f"({len(TERM_NAMES)}, {len(servers)})"
            )
        if matrix.size and matrix.min() < 0:
            row = int(np.argmin(matrix.min(axis=1)))
            raise ModelError(f"{TERM_NAMES[row]} must be >= 0")
        self.servers = servers
        self.matrix = matrix

    @classmethod
    def stack(
        cls, servers: Tuple[int, ...], counts: Sequence[Any]
    ) -> "FamilyTermColumns":
        """Build from six counts, each a scalar or a per-server vector."""
        if len(counts) != len(TERM_NAMES):
            raise ModelError(f"need {len(TERM_NAMES)} counts, got {len(counts)}")
        matrix = np.empty((len(TERM_NAMES), len(servers)))
        for index, count in enumerate(counts):
            matrix[index] = count
        return cls(servers, matrix)

    @classmethod
    def from_rows(
        cls, servers: Tuple[int, ...], rows: Sequence[FamilyWorkloadTerms]
    ) -> "FamilyTermColumns":
        """Stack per-server-count terms (``rows[i]`` at ``servers[i]``)."""
        return cls(servers, np.array(
            [[getattr(row, name) for row in rows] for name in TERM_NAMES],
            dtype=np.float64,
        ))

    def terms_at(self, index: int) -> FamilyWorkloadTerms:
        """The terms at ``servers[index]``, as Python floats."""
        return FamilyWorkloadTerms(*self.matrix[:, index].tolist())


@lru_cache(maxsize=4096)
def workload_terms(molecule: "ComplexSpec", cutoff: Optional[float]) -> WorkloadTerms:
    """Memoized workload invariants for one (molecule, cutoff) cell.

    ``predict_series`` / ``predict_platforms`` evaluate the model over
    many server counts and platforms with identical application
    parameters; the cutoff-sphere neighbour count and the pair workloads
    are invariant across that sweep, so they are computed exactly once
    per distinct (molecule, cutoff) pair and shared (the serve layer's
    micro-batches rely on the same memoization).
    """
    n_tilde = molecule.n_tilde(cutoff)
    return WorkloadTerms(
        n=molecule.n,
        gamma=molecule.gamma,
        n_tilde=n_tilde,
        update_pairs=update_pair_work(molecule.n, molecule.gamma),
        energy_pairs=energy_pair_work(molecule.n, n_tilde),
    )


def update_pair_work(n: int, gamma: float) -> float:
    """Pairs processed by one pair-list update (the paper's eq. (3) form).

    ``((1-2 gamma)^2 n^2 - (1-2 gamma) n) / 2`` — the empirical
    complexity the paper fitted for the update routine, never below a
    linear scan of the mass centers.
    """
    g = 1.0 - 2.0 * gamma
    pairs = (g * g * n * n - g * n) / 2.0
    return max(pairs, float(n))


def energy_pair_work(n: int, n_tilde: float) -> float:
    """Pairs evaluated by one energy evaluation (the paper's eq. (4))."""
    all_pairs = n * (n - 1) / 2.0
    if math.isinf(n_tilde) or n_tilde >= (n - 1) / 2.0:
        return all_pairs
    return n_tilde * n

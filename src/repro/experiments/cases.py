"""The paper's parameter space (Figure 3 and Section 2.3/2.5).

Four isolated factors:

* number of servers: 1..7 (parallelism);
* problem size: small / medium / large molecular complex;
* cutoff: effective 10 Angstrom vs large ineffective 60 Angstrom
  ("no cutoff" in the charts — 60 A exceeds every complex's extent);
* update frequency: full update (every step) vs partial (every 10).

The full factorial is the paper's 84-experiment design
(7 x 3 x 2 x 2); the published charts use the reduced ``7 * 2^(3-1)``
half fraction over {size in (medium, large)} x {cutoff} x {update}.

Every design is a list of opal-spec
:class:`~repro.workloads.campaign.WorkloadCell` objects, measured by the
one campaign executor (:func:`repro.workloads.campaign.run_workload_design`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..opal.complexes import LARGE, MEDIUM, SMALL, ComplexSpec
from ..workloads import campaign as executor
from ..workloads import get_family
from .factorial import Factor, fractional_factorial, full_factorial

#: The paper's effective cutoff radius [Angstrom].
CUTOFF_EFFECTIVE = 10.0
#: The paper's "large, ineffective" cutoff radius [Angstrom]; for every
#: named complex this saturates to the no-cutoff quadratic regime.
CUTOFF_INEFFECTIVE = 60.0

#: Simulation steps per experiment ("ten simulation steps suffice to
#: assure an accurate and meaningful timing", Section 2.3).
STEPS = 10

SERVER_RANGE = tuple(range(1, 8))
UPDATE_FULL = 1
UPDATE_PARTIAL = 10


def opal_cell(
    molecule: ComplexSpec,
    servers: int,
    cutoff: Optional[float],
    update_interval: int,
    steps: int = STEPS,
) -> "executor.WorkloadCell":
    """One cell of the paper's design as an opal-spec workload cell."""
    spec = get_family("opal").spec(
        molecule=molecule.name,
        cutoff=cutoff,
        update_interval=update_interval,
        steps=steps,
    )
    return executor.WorkloadCell(spec, servers)


def paper_factors(
    sizes: Sequence[ComplexSpec] = (SMALL, MEDIUM, LARGE),
) -> List[Factor]:
    """The four factors of Figure 3 as design factors."""
    return [
        Factor("servers", SERVER_RANGE),
        Factor("molecule", tuple(sizes)),
        Factor("cutoff", (CUTOFF_EFFECTIVE, CUTOFF_INEFFECTIVE)),
        Factor("update_interval", (UPDATE_FULL, UPDATE_PARTIAL)),
    ]


def _effective(cutoff: float) -> Optional[float]:
    """The large ineffective cutoff is the no-cutoff regime (None)."""
    return None if cutoff >= CUTOFF_INEFFECTIVE else cutoff


def full_design(
    sizes: Sequence[ComplexSpec] = (SMALL, MEDIUM, LARGE),
) -> List["executor.WorkloadCell"]:
    """The 84-experiment full factorial (7 x |sizes| x 2 x 2)."""
    return [
        opal_cell(
            r["molecule"], r["servers"], _effective(r["cutoff"]),
            r["update_interval"],
        )
        for r in full_factorial(paper_factors(sizes))
    ]


def reduced_design() -> List["executor.WorkloadCell"]:
    """The published ``7 * 2^(3-1)`` fraction: for each server count, the
    half fraction of {size, cutoff, update} with generator
    update = size * cutoff."""
    two_level = [
        Factor("molecule", (MEDIUM, LARGE)),
        Factor("cutoff", (CUTOFF_EFFECTIVE, CUTOFF_INEFFECTIVE)),
        Factor("update_interval", (UPDATE_FULL, UPDATE_PARTIAL)),
    ]
    fraction = fractional_factorial(
        two_level, generators=["update_interval=molecule*cutoff"]
    )
    return [
        opal_cell(
            row["molecule"], p, _effective(row["cutoff"]), row["update_interval"]
        )
        for p in SERVER_RANGE
        for row in fraction
    ]


def breakdown_chart_cases(
    molecule: ComplexSpec, servers: Sequence[int] = SERVER_RANGE
) -> dict:
    """The four chart panels of Figure 1 (medium) / Figure 2 (large).

    a) no cutoff, full update;   b) no cutoff, partial update;
    c) 10 A cutoff, full update; d) 10 A cutoff, partial update.
    """
    panels = {
        "a": (None, UPDATE_FULL),
        "b": (None, UPDATE_PARTIAL),
        "c": (CUTOFF_EFFECTIVE, UPDATE_FULL),
        "d": (CUTOFF_EFFECTIVE, UPDATE_PARTIAL),
    }
    return {
        key: [opal_cell(molecule, p, cut, upd) for p in servers]
        for key, (cut, upd) in panels.items()
    }

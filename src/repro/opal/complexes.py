"""Molecular complex descriptors and the paper's named workloads.

A :class:`ComplexSpec` carries the statistics the performance model and
the workload generator consume: number of protein (solute) atoms, number
of water molecules, and the number density of mass centers.  The actual
3-D structures used by the physics engine are built from these specs in
:mod:`repro.opal.system` (the paper's real NMR structures are not
available; see DESIGN.md substitutions).

The paper's complexes:

* *medium*: Antennapedia homeodomain / DNA complex, 1575 atoms in 2714
  waters = 4289 mass centers, gamma = 0.6329;
* *large*: LFB homeodomain NMR structure, 1655 atoms in 4634 waters =
  6289 mass centers, gamma = 0.7368;
* *small*: used in the calibration design but not sized in the paper —
  we use a 1000-mass-center complex with a comparable water fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import WorkloadError

#: Default mass-center number density of a solvated protein complex, in
#: centers per cubic Angstrom (water contributes ~0.0334 molecules/A^3,
#: protein regions are denser in atoms).
DEFAULT_DENSITY = 0.045


@dataclass(frozen=True)
class ComplexSpec:
    """Statistics of one molecular complex (solute + solvent)."""

    name: str
    protein_atoms: int
    waters: int
    #: mass centers per cubic Angstrom
    density: float = DEFAULT_DENSITY
    description: str = ""

    def __post_init__(self) -> None:
        if self.protein_atoms < 2:
            raise WorkloadError("a complex needs at least two solute atoms")
        if self.waters < 0:
            raise WorkloadError("waters must be >= 0")
        if self.density <= 0:
            raise WorkloadError("density must be positive")

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Mass centers with the united-water model (paper's n)."""
        return self.protein_atoms + self.waters

    @property
    def n_explicit(self) -> int:
        """Atom count with three-site water (the pre-optimization model)."""
        return self.protein_atoms + 3 * self.waters

    def mass_centers(self, united_water: bool = True) -> int:
        """Mass-center count under either water model."""
        return self.n if united_water else self.n_explicit

    @property
    def gamma(self) -> float:
        """Water fraction of the mass centers (paper's gamma)."""
        return self.waters / self.n

    @property
    def volume(self) -> float:
        """Complex volume in cubic Angstroms implied by the density."""
        return self.n / self.density

    @property
    def box_edge(self) -> float:
        """Edge of the equivalent cubic simulation box, Angstroms."""
        return self.volume ** (1.0 / 3.0)

    # ------------------------------------------------------------------
    def n_tilde(self, cutoff: Optional[float]) -> float:
        """The model's n~: "the average number of neighboring atoms
        considered for their total energy calculation", a function of the
        cutoff radius and the volume density of the complex.

        Taken literally as the paper defines it — the full neighbour
        count ``density * 4/3 pi c^3`` within the cutoff sphere (not the
        per-pair half): for the medium complex at 10 Angstrom this is
        ~190, which reproduces the paper's compute/communication balance
        in Figures 5c/5d (fast and SMP CoPs still ahead of the T3E at
        seven servers, J90 and slow CoPs saturating at ~3).

        ``cutoff=None`` means no cutoff: n~ is infinite.  So is it for a
        cutoff whose cube overflows a float (above about 5.6e102): a
        sphere that large holds every pair.
        """
        if cutoff is None:
            return math.inf
        if cutoff <= 0:
            raise WorkloadError("cutoff must be positive (or None for no cutoff)")
        try:
            cube = cutoff**3
        except OverflowError:
            return math.inf
        return self.density * (4.0 / 3.0) * math.pi * cube

    def cutoff_effective(self, cutoff: Optional[float]) -> bool:
        """Whether ``cutoff`` actually reduces the pair count.

        The paper contrasts an *effective* 10 Angstrom cutoff with a
        "large, ineffective one at 60 Angstrom": when the cutoff sphere
        holds more than (n-1)/2 pairs per center, nothing is saved.
        """
        return self.n_tilde(cutoff) < (self.n - 1) / 2.0

    def active_pairs(self, cutoff: Optional[float]) -> float:
        """Pairs evaluated in one energy evaluation under ``cutoff``."""
        all_pairs = self.n * (self.n - 1) / 2.0
        if cutoff is None:
            return all_pairs
        return min(all_pairs, self.n_tilde(cutoff) * self.n)


# ----------------------------------------------------------------------
#: The paper's medium complex (Sec 2.4).
MEDIUM = ComplexSpec(
    "medium",
    protein_atoms=1575,
    waters=2714,
    description="Antennapedia homeodomain / DNA complex in water",
)

#: The paper's large complex (Sec 2.4).
LARGE = ComplexSpec(
    "large",
    protein_atoms=1655,
    waters=4634,
    description="NMR structure of the LFB homeodomain in water",
)

#: Small calibration complex (size not given in the paper; see module doc).
SMALL = ComplexSpec(
    "small",
    protein_atoms=360,
    waters=640,
    description="small solvated peptide (calibration-design filler size)",
)

NAMED_COMPLEXES: Dict[str, ComplexSpec] = {c.name: c for c in (SMALL, MEDIUM, LARGE)}


def get_complex(name: str) -> ComplexSpec:
    """Look up one of the named complexes ('small' | 'medium' | 'large')."""
    try:
        return NAMED_COMPLEXES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown complex {name!r}; available: {sorted(NAMED_COMPLEXES)}"
        ) from None

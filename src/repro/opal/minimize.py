"""Energy minimization (Opal's primary mode: "energy refinement").

Two minimizers over the full potential V:

* :func:`steepest_descent` — the classic fixed-form minimizer with a
  backtracking line search, dependency-free and fully observable;
* :func:`minimize_lbfgs` — scipy's L-BFGS-B driven by our analytic
  gradient, as a stronger reference optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import WorkloadError
from .forcefield import total_energy
from .pairlist import VerletPairList
from .system import MolecularSystem


@dataclass
class MinimizationResult:
    """Trajectory of one minimization run."""

    energies: List[float] = field(default_factory=list)
    final_coords: Optional[np.ndarray] = None
    converged: bool = False
    iterations: int = 0
    gradient_norm: float = float("nan")

    @property
    def initial_energy(self) -> float:
        """Energy before the first step."""
        return self.energies[0]

    @property
    def final_energy(self) -> float:
        """Energy after the last accepted step."""
        return self.energies[-1]


def steepest_descent(
    system: MolecularSystem,
    pairlist: VerletPairList,
    max_steps: int = 200,
    initial_step: float = 0.01,
    gtol: float = 1e-3,
    apply: bool = True,
) -> MinimizationResult:
    """Steepest descent with a doubling/halving step-size heuristic.

    Each iteration uses the pair list for that step (so list updates
    happen at the configured interval, like the real code).  When
    ``apply`` is true the system's coordinates are updated in place to
    the minimized configuration.
    """
    if max_steps < 1:
        raise WorkloadError("max_steps must be >= 1")
    x = system.coords.copy()
    step = initial_step
    result = MinimizationResult()
    pairs = pairlist.pairs_for_step(0, x)
    report, grad = total_energy(system, pairs, x)
    energy = report.total
    result.energies.append(energy)

    for it in range(1, max_steps + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < gtol:
            result.converged = True
            break
        direction = -grad / max(gnorm, 1e-30)
        x_new = x + step * direction
        pairs = pairlist.pairs_for_step(it, x_new)
        report_new, grad_new = total_energy(system, pairs, x_new)
        if report_new.total < energy:
            x, grad, energy = x_new, grad_new, report_new.total
            step *= 1.2  # accept and grow
        else:
            step *= 0.5  # reject and shrink
            if step < 1e-12:
                break
        result.energies.append(energy)
        result.iterations = it

    result.final_coords = x
    result.gradient_norm = float(np.linalg.norm(grad))
    if apply:
        system.coords[:] = x
    return result


def minimize_lbfgs(
    system: MolecularSystem,
    pairlist: VerletPairList,
    max_steps: int = 200,
    gtol: float = 1e-5,
    apply: bool = True,
) -> MinimizationResult:
    """L-BFGS-B minimization with a frozen pair list (rebuilt once)."""
    import scipy.optimize  # here, so importing repro never loads scipy
    x0 = system.coords.copy()
    pairs = pairlist.pairs_for_step(0, x0)
    shape = x0.shape
    energies: List[float] = []

    def fun(flat: np.ndarray):
        x = flat.reshape(shape)
        report, grad = total_energy(system, pairs, x)
        energies.append(report.total)
        return report.total, grad.ravel()

    res = scipy.optimize.minimize(
        fun,
        x0.ravel(),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_steps, "gtol": gtol},
    )
    out = MinimizationResult(
        energies=energies or [float(res.fun)],
        final_coords=res.x.reshape(shape),
        converged=bool(res.success),
        iterations=int(res.nit),
        gradient_norm=float(np.linalg.norm(res.jac)),
    )
    if apply:
        system.coords[:] = out.final_coords
    return out

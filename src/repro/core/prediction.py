"""Performance prediction for alternative platforms (Section 4).

"A performance assessment based on our model is much easier than
porting and parallelizing the application for a new target machine."
Given the application parameters calibrated on the reference platform
and each candidate machine's key data (Tables 1 and 2, or measured
microbenchmarks), predict execution times and speedups — the data behind
Figures 5 and 6 — plus the cost-effectiveness view behind the paper's
"most cost effective platform" question.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..errors import ModelError
from .model import OpalPerformanceModel
from .parameters import ApplicationParams, ModelPlatformParams
from .speedup import saturation_point, speedup_curve


@dataclass(frozen=True)
class PredictionSeries:
    """One platform's predicted curves over a range of server counts."""

    platform: str
    servers: tuple
    times: tuple
    speedups: tuple

    @property
    def best_time(self) -> float:
        """Minimum predicted execution time over the server range."""
        return min(self.times)

    @property
    def saturation(self) -> int:
        """Server count with the minimum predicted time."""
        return saturation_point(list(self.times), list(self.servers))

    def slowdown_beyond_saturation(self) -> bool:
        """True if adding servers past the optimum costs time."""
        return self.times[-1] > self.best_time * (1.0 + 1e-9)

    @classmethod
    def from_times(
        cls, platform: str, servers: Sequence[int], times: Sequence[float]
    ) -> "PredictionSeries":
        """The series of predicted ``times`` at ``servers`` (speedups vs the first)."""
        return cls(
            platform=platform,
            servers=tuple(servers),
            times=tuple(times),
            speedups=tuple(speedup_curve(times)),
        )


def predict_series(
    model_params: ModelPlatformParams,
    app: ApplicationParams,
    servers: Sequence[int] = tuple(range(1, 8)),
) -> PredictionSeries:
    """Predicted execution-time and speedup curves for one platform.

    One pass over the server vector
    (:meth:`~repro.core.model.OpalPerformanceModel.execution_times`).
    """
    servers = tuple(servers)
    if not servers:
        raise ModelError("need at least one server count")
    model = OpalPerformanceModel(model_params)
    return PredictionSeries.from_times(
        model_params.name, servers, model.execution_times(app, servers)
    )


def predict_platforms(
    platforms: Sequence,
    app: ApplicationParams,
    servers: Sequence[int] = tuple(range(1, 8)),
) -> Dict[str, PredictionSeries]:
    """Curves for many platforms.

    Each entry of ``platforms`` is either a :class:`ModelPlatformParams`
    or a :class:`~repro.platforms.spec.PlatformSpec` (converted via
    ``ModelPlatformParams.from_spec`` — the Tables 1/2 route).
    """
    out: Dict[str, PredictionSeries] = {}
    for plat in platforms:
        if isinstance(plat, ModelPlatformParams):
            mp = plat
        else:
            mp = ModelPlatformParams.from_spec(plat)
        out[mp.name] = predict_series(mp, app, servers)
    return out


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CostEffectivenessRow:
    """Absolute performance weighed against platform cost."""

    platform: str
    best_time: float
    cost_kusd: float
    #: seconds x k$ — lower is more cost effective
    time_cost_product: float


def cost_effectiveness(
    series: Dict[str, PredictionSeries],
    costs_kusd: Dict[str, float],
) -> List[CostEffectivenessRow]:
    """Rank platforms by (best predicted time) x (acquisition cost).

    Supports the paper's conclusion that "a well designed cluster of PCs
    achieves similar if not better performance than the J90" at a
    fraction of the cost.  Platforms with unknown cost are skipped.
    """
    rows = []
    for name, s in series.items():
        cost = costs_kusd.get(name)
        if cost is None:
            continue
        rows.append(
            CostEffectivenessRow(
                platform=name,
                best_time=s.best_time,
                cost_kusd=cost,
                time_cost_product=s.best_time * cost,
            )
        )
    rows.sort(key=lambda r: r.time_cost_product)
    return rows


# ----------------------------------------------------------------------
@dataclass
class WhatIfStudy:
    """Sensitivity of a platform's curve to one scaled parameter.

    E.g. "what if the J90's middleware achieved the 7 MByte/s the
    Sciddle developers measured for a synthetic RPC?" — the paper's
    Section 3.1 speculation, quantified.
    """

    base: ModelPlatformParams
    app: ApplicationParams
    servers: Sequence[int] = field(default_factory=lambda: tuple(range(1, 8)))

    def vary(self, field_name: str, factors: Sequence[float]) -> Dict[float, PredictionSeries]:
        """Series for each scale factor applied to one parameter."""
        if field_name not in ("a1", "b1", "a2", "a3", "a4", "b5"):
            raise ModelError(f"unknown platform parameter {field_name!r}")
        out = {}
        for f in factors:
            if f <= 0:
                raise ModelError("scale factors must be positive")
            params = self.base.with_(
                **{field_name: getattr(self.base, field_name) * f},
                name=f"{self.base.name}[{field_name}x{f:g}]",
            )
            out[f] = predict_series(params, self.app, self.servers)
        return out

"""Least-squares calibration of the analytical model (Section 2.5).

The paper "adjusted the parameters for a least square fit to the
corresponding measurements" over a full factorial design of 84
experiments.  The model is *linear* in its platform parameters once the
application parameters are fixed:

=========  ==========================================================
component  regressor (coefficient)
=========  ==========================================================
update     a2      x  s u / p * update_pair_work(n, gamma)
nbint      a3      x  s / p * energy_pair_work(n, n~)
seq_comp   a4      x  s n
comm       1/a1    x  s p alpha (u+2) n     and   b1  x  2 s p (u+1)
sync       b5      x  2 s (u+1)
=========  ==========================================================

so the calibration is a set of small non-negative linear least squares
problems, one per measured component — exactly the structure that makes
the paper's "response variables measured separately" methodology work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import CalibrationError
from .breakdown import TimeBreakdown
from .model import OpalPerformanceModel, terms_breakdown
from .parameters import (
    ApplicationParams,
    FamilyWorkloadTerms,
    ModelPlatformParams,
    energy_pair_work,
    update_pair_work,
)

#: One calibration observation: configuration + measured breakdown.
Observation = Tuple[ApplicationParams, TimeBreakdown]

#: One family calibration observation: lowered regressors + measurement.
TermsObservation = Tuple[FamilyWorkloadTerms, TimeBreakdown]


def _r2(y: np.ndarray, yhat: np.ndarray) -> float:
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot <= 0:
        return 1.0 if ss_res <= 1e-30 else 0.0
    return 1.0 - ss_res / ss_tot


def _fit_comm(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """The communication fit: a two-column NNLS for ``(1/a1, b1)``, then its r²."""
    import scipy.optimize  # here, so a process that never fits never loads scipy
    (inv_a1, b1), _ = scipy.optimize.nnls(x, y)
    r2 = _r2(y, x @ np.array([inv_a1, b1]))
    if inv_a1 <= 0:
        raise CalibrationError(
            "communication fit produced a non-positive 1/a1; the design "
            "probably does not vary message volume"
        )
    return inv_a1, b1, r2


@dataclass
class CalibrationResult:
    """Fitted platform parameters plus fit diagnostics."""

    params: ModelPlatformParams
    #: coefficient of determination per fitted component
    r2: Dict[str, float] = field(default_factory=dict)
    #: per-case (measured total, predicted total)
    totals: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def model(self) -> OpalPerformanceModel:
        """An OpalPerformanceModel over the fitted parameters."""
        return OpalPerformanceModel(self.params)

    def mean_absolute_error(self) -> float:
        """Mean |measured - predicted| in seconds over the design."""
        if not self.totals:
            return float("nan")
        return float(np.mean([abs(m - p) for m, p in self.totals]))

    def mean_relative_error(self) -> float:
        """Mean |measured - predicted| / measured over the design."""
        if not self.totals:
            return float("nan")
        return float(np.mean([abs(m - p) / m for m, p in self.totals if m > 0]))


def calibrate(
    observations: Sequence[Observation], name: str = "calibrated"
) -> CalibrationResult:
    """Fit all six platform parameters to measured breakdowns.

    Component fits are non-negative (a negative rate or overhead is
    unphysical); the communication fit is a two-parameter NNLS.
    """
    if len(observations) < 3:
        raise CalibrationError(
            f"need at least 3 observations to calibrate, got {len(observations)}"
        )
    apps = [a for a, _ in observations]
    meas = [b for _, b in observations]

    def fit_single(xs: np.ndarray, ys: np.ndarray, label: str) -> Tuple[float, float]:
        if np.all(xs <= 0):
            raise CalibrationError(f"degenerate design for {label}: all-zero regressor")
        coef = max(float(np.dot(xs, ys) / np.dot(xs, xs)), 0.0)
        return coef, _r2(ys, coef * xs)

    r2: Dict[str, float] = {}

    x_upd = np.array(
        [a.s * a.update_rate / a.p * update_pair_work(a.n, a.gamma) for a in apps]
    )
    y_upd = np.array([b.update for b in meas])
    a2, r2["update"] = fit_single(x_upd, y_upd, "update")

    x_nbi = np.array([a.s / a.p * energy_pair_work(a.n, a.n_tilde) for a in apps])
    y_nbi = np.array([b.nbint for b in meas])
    a3, r2["nbint"] = fit_single(x_nbi, y_nbi, "nbint")

    x_seq = np.array([float(a.s * a.n) for a in apps])
    y_seq = np.array([b.seq_comp for b in meas])
    a4, r2["seq_comp"] = fit_single(x_seq, y_seq, "seq_comp")

    x_comm = np.column_stack(
        [
            [a.s * a.p * a.alpha * (a.update_rate + 2.0) * a.n for a in apps],
            [2.0 * a.s * a.p * (a.update_rate + 1.0) for a in apps],
        ]
    )
    y_comm = np.array([b.comm for b in meas])
    inv_a1, b1, r2["comm"] = _fit_comm(x_comm, y_comm)

    x_sync = np.array([2.0 * a.s * (a.update_rate + 1.0) for a in apps])
    y_sync = np.array([b.sync for b in meas])
    b5, r2["sync"] = fit_single(x_sync, y_sync, "sync")

    params = ModelPlatformParams(
        name=name, a1=1.0 / inv_a1, b1=float(b1), a2=a2, a3=a3, a4=a4, b5=b5
    )
    model = OpalPerformanceModel(params)
    totals = [
        (b.total, model.predict_total(a)) for a, b in observations
    ]
    return CalibrationResult(params=params, r2=r2, totals=totals)


def calibrate_terms(
    observations: Sequence[TermsObservation], name: str = "calibrated"
) -> CalibrationResult:
    """Fit platform parameters to measured family-cell breakdowns.

    The family-generic sibling of :func:`calibrate`: regressors come
    pre-lowered as :class:`FamilyWorkloadTerms` instead of being derived
    from :class:`ApplicationParams`.  A family may legitimately never
    exercise a component (a barrier moves no payload, a collective has
    no sequential tail) — an all-zero regressor therefore yields a 0.0
    coefficient instead of an error, except for communication volume,
    which every measurable family must vary.
    """
    if len(observations) < 3:
        raise CalibrationError(
            f"need at least 3 observations to calibrate, got {len(observations)}"
        )
    terms = [t for t, _ in observations]
    meas = [b for _, b in observations]

    def fit_component(
        xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[float, float]:
        if np.all(xs <= 0):
            return 0.0, _r2(ys, np.zeros_like(ys))
        coef = max(float(np.dot(xs, ys) / np.dot(xs, xs)), 0.0)
        return coef, _r2(ys, coef * xs)

    r2: Dict[str, float] = {}
    a2, r2["update"] = fit_component(
        np.array([t.update_ops for t in terms]),
        np.array([b.update for b in meas]),
    )
    a3, r2["nbint"] = fit_component(
        np.array([t.pair_ops for t in terms]),
        np.array([b.nbint for b in meas]),
    )
    a4, r2["seq_comp"] = fit_component(
        np.array([t.seq_ops for t in terms]),
        np.array([b.seq_comp for b in meas]),
    )

    x_comm = np.column_stack(
        [
            [t.comm_bytes for t in terms],
            [t.comm_msgs for t in terms],
        ]
    )
    y_comm = np.array([b.comm for b in meas])
    if np.all(x_comm[:, 0] <= 0):
        raise CalibrationError(
            "degenerate design for comm: no cell moves any payload bytes"
        )
    inv_a1, b1, r2["comm"] = _fit_comm(x_comm, y_comm)

    b5, r2["sync"] = fit_component(
        np.array([t.sync_ops for t in terms]),
        np.array([b.sync for b in meas]),
    )

    params = ModelPlatformParams(
        name=name, a1=1.0 / inv_a1, b1=float(b1), a2=a2, a3=a3, a4=a4, b5=b5
    )
    totals = [
        (b.total, terms_breakdown(params, t).total) for t, b in observations
    ]
    return CalibrationResult(params=params, r2=r2, totals=totals)


def residual_table(
    result: CalibrationResult, observations: Sequence[Observation]
) -> List[Dict[str, float]]:
    """Per-case measured vs predicted rows (the data behind Figure 4)."""
    model = result.model
    rows = []
    for app, b in observations:
        pred = model.predict_total(app)
        rows.append(
            {
                "n": app.n,
                "p": app.p,
                "cutoff": 0.0 if app.cutoff is None else app.cutoff,
                "update_interval": app.update_interval,
                "measured": b.total,
                "predicted": pred,
                "difference": b.total - pred,
                "relative_error": (b.total - pred) / b.total if b.total > 0 else 0.0,
            }
        )
    return rows

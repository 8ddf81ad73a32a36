"""Sliding-window SLO evaluation and residual drift detection.

Two monitors over :class:`~repro.obs.store.TelemetryStore` history:

* **SLO** (:func:`evaluate_slo`) — sliding windows over the ``serve``
  dataset's per-request flight-recorder rows, each window judged
  against an :class:`SloBudget` (p50/p99 latency, shed fraction, queue
  depth).  The verdict is machine-readable and the CLI
  (``python -m repro.obs slo``) exits non-zero on any breach, so CI
  can gate a seeded burst against committed budgets.
* **Drift** (:func:`residual_drift`) — EWMA + CUSUM change detection
  on the per-variable measured-vs-model residual history in the
  ``residuals`` dataset.  Each ingest batch contributes one point per
  response variable (mean absolute relative residual); the detectors
  compare later points against the burn-in baseline, which is what
  catches a *silently recalibrated or perturbed* model — Cornebize &
  Legrand's failure mode — while deterministic clean history scores
  exactly zero deviation and stays quiet.

Both monitors are pure functions of store content plus explicit
parameters: no wall clock, no ambient state, deterministic verdicts.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import TelemetryError
from .query import percentile
from .store import TelemetryStore

PathLike = Union[str, pathlib.Path]

#: Schema tag required from budget files.
SLO_SCHEMA = "repro-slo/1"

#: Flight-recorder status codes (column ``status`` of datasets ``serve``
#: and ``fleet``); :func:`repro.serve.flight.status_code` assigns them.
STATUS_OK = 0
STATUS_SHED_RATE = 1
STATUS_SHED_QUEUE = 2
STATUS_EXPIRED = 3
STATUS_ERROR = 4
STATUS_SHED_DRAIN = 5

STATUS_NAMES = {
    STATUS_OK: "ok",
    STATUS_SHED_RATE: "shed_rate",
    STATUS_SHED_QUEUE: "shed_queue",
    STATUS_EXPIRED: "expired",
    STATUS_ERROR: "error",
    STATUS_SHED_DRAIN: "shed_drain",
}

#: Statuses counted as shed by the SLO monitor (they never replied).
SHED_STATUSES = (STATUS_SHED_RATE, STATUS_SHED_QUEUE, STATUS_SHED_DRAIN)


# ----------------------------------------------------------------------
# SLO
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SloBudget:
    """Declared service-level budgets; ``None`` disables a check."""

    p50_s: Optional[float] = None
    p99_s: Optional[float] = None
    shed_fraction: Optional[float] = None
    queue_depth: Optional[int] = None

    @classmethod
    def from_file(cls, path: PathLike) -> "SloBudget":
        """Load a schema-tagged budget JSON file."""
        p = pathlib.Path(path)
        try:
            payload = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise TelemetryError(f"unreadable budget file {p}: {exc}") from None
        if not isinstance(payload, dict) or payload.get("schema") != SLO_SCHEMA:
            raise TelemetryError(
                f"{p}: missing or foreign schema tag (expected {SLO_SCHEMA!r})"
            )
        return cls(
            p50_s=payload.get("p50_s"),
            p99_s=payload.get("p99_s"),
            shed_fraction=payload.get("shed_fraction"),
            queue_depth=payload.get("queue_depth"),
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able budget snapshot."""
        return {
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "shed_fraction": self.shed_fraction,
            "queue_depth": self.queue_depth,
        }


@dataclass
class WindowVerdict:
    """One sliding window judged against the budget."""

    index: int
    requests: int
    p50_s: float
    p99_s: float
    shed_fraction: float
    max_queue_depth: int
    breaches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether this window met every budgeted objective."""
        return not self.breaches

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able verdict row."""
        return {
            "index": self.index,
            "requests": self.requests,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "shed_fraction": self.shed_fraction,
            "max_queue_depth": self.max_queue_depth,
            "ok": self.ok,
            "breaches": list(self.breaches),
        }


@dataclass
class SloReport:
    """All window verdicts plus the overall outcome."""

    budget: SloBudget
    windows: List[WindowVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every window met the budget."""
        return all(w.ok for w in self.windows)

    @property
    def breached(self) -> List[WindowVerdict]:
        """The windows that missed at least one objective."""
        return [w for w in self.windows if not w.ok]

    def as_dict(self) -> Dict[str, Any]:
        """Machine-readable report (the CLI's --json payload)."""
        return {
            "schema": "repro-slo-report/1",
            "budget": self.budget.as_dict(),
            "windows": [w.as_dict() for w in self.windows],
            "ok": self.ok,
        }

    def render(self) -> str:
        """Human-readable verdict table."""
        lines = [
            f"SLO verdict over {len(self.windows)} window(s): "
            + ("OK" if self.ok else f"{len(self.breached)} window(s) breached")
        ]
        header = (
            f"  {'win':>4s} {'reqs':>6s} {'p50[ms]':>9s} {'p99[ms]':>9s} "
            f"{'shed':>7s} {'depth':>6s}  verdict"
        )
        lines.append(header)
        for w in self.windows:
            verdict = "ok" if w.ok else "BREACH: " + ", ".join(w.breaches)
            lines.append(
                f"  {w.index:>4d} {w.requests:>6d} {w.p50_s * 1e3:>9.3f} "
                f"{w.p99_s * 1e3:>9.3f} {w.shed_fraction:>6.1%} "
                f"{w.max_queue_depth:>6d}  {verdict}"
            )
        return "\n".join(lines)


def _window_verdict(
    index: int,
    status: np.ndarray,
    reply_s: np.ndarray,
    depth: np.ndarray,
    budget: SloBudget,
) -> WindowVerdict:
    shed_mask = np.isin(status, SHED_STATUSES)
    answered = reply_s[~shed_mask]
    shed = int(np.count_nonzero(shed_mask))
    verdict = WindowVerdict(
        index=index,
        requests=len(status),
        p50_s=percentile(answered, 0.50),
        p99_s=percentile(answered, 0.99),
        shed_fraction=shed / len(status) if len(status) else 0.0,
        max_queue_depth=int(np.max(depth)) if len(depth) else 0,
    )
    if budget.p50_s is not None and verdict.p50_s > budget.p50_s:
        verdict.breaches.append(f"p50 {verdict.p50_s:.6f}s > {budget.p50_s}s")
    if budget.p99_s is not None and verdict.p99_s > budget.p99_s:
        verdict.breaches.append(f"p99 {verdict.p99_s:.6f}s > {budget.p99_s}s")
    if budget.shed_fraction is not None and verdict.shed_fraction > budget.shed_fraction:
        verdict.breaches.append(
            f"shed {verdict.shed_fraction:.2%} > {budget.shed_fraction:.2%}"
        )
    if budget.queue_depth is not None and verdict.max_queue_depth > budget.queue_depth:
        verdict.breaches.append(
            f"queue depth {verdict.max_queue_depth} > {budget.queue_depth}"
        )
    return verdict


def evaluate_slo(
    store: TelemetryStore,
    budget: SloBudget,
    window: int = 256,
    step: Optional[int] = None,
    dataset: str = "serve",
) -> SloReport:
    """Judge every sliding window of the serve history against budgets.

    Rows are ordered by admission time (``t_admit``, stable sort so
    ties keep append order); windows of ``window`` requests advance by
    ``step`` (default: half a window, so every request is judged by at
    least one full window).  A short history still produces one
    (partial) window — an empty verdict would silently pass CI.
    """
    if window < 1:
        raise TelemetryError("window must be >= 1 request")
    table = store.scan(dataset, columns=["t_admit", "status", "reply_s", "depth"])
    order = np.argsort(table["t_admit"], kind="stable")
    status = table["status"][order]
    reply_s = table["reply_s"][order]
    depth = table["depth"][order]
    step = max(1, window // 2) if step is None else max(1, step)

    report = SloReport(budget=budget)
    n = len(status)
    starts = list(range(0, max(1, n - window + 1), step))
    if starts and starts[-1] + window < n:
        starts.append(n - window)
    for index, start in enumerate(starts):
        stop = min(n, start + window)
        report.windows.append(
            _window_verdict(
                index, status[start:stop], reply_s[start:stop], depth[start:stop], budget
            )
        )
    return report


# ----------------------------------------------------------------------
# drift
# ----------------------------------------------------------------------
@dataclass
class DriftVerdict:
    """EWMA/CUSUM outcome for one response variable's residual history."""

    variable: str
    points: int
    baseline: float
    latest: float
    ewma_z: float
    cusum: float
    flagged: bool
    reason: str = ""

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able verdict row."""
        return {
            "variable": self.variable,
            "points": self.points,
            "baseline": self.baseline,
            "latest": self.latest,
            "ewma_z": self.ewma_z,
            "cusum": self.cusum,
            "flagged": self.flagged,
            "reason": self.reason,
        }


@dataclass
class DriftReport:
    """Per-variable drift verdicts plus the overall outcome."""

    verdicts: List[DriftVerdict] = field(default_factory=list)

    @property
    def flagged(self) -> List[DriftVerdict]:
        """The variables whose residual history drifted."""
        return [v for v in self.verdicts if v.flagged]

    @property
    def ok(self) -> bool:
        """True when no variable drifted."""
        return not self.flagged

    def as_dict(self) -> Dict[str, Any]:
        """Machine-readable report (the CLI's --json payload)."""
        return {
            "schema": "repro-drift-report/1",
            "variables": [v.as_dict() for v in self.verdicts],
            "ok": self.ok,
        }

    def render(self) -> str:
        """Human-readable drift table."""
        lines = [
            "residual drift verdict: "
            + ("quiet" if self.ok else f"{len(self.flagged)} variable(s) drifted")
        ]
        lines.append(
            f"  {'variable':<10s} {'points':>6s} {'baseline':>12s} "
            f"{'latest':>12s} {'ewma_z':>8s} {'cusum':>8s}  verdict"
        )
        for v in self.verdicts:
            verdict = f"DRIFT ({v.reason})" if v.flagged else "quiet"
            lines.append(
                f"  {v.variable:<10s} {v.points:>6d} {v.baseline:>12.6g} "
                f"{v.latest:>12.6g} {v.ewma_z:>8.2f} {v.cusum:>8.2f}  {verdict}"
            )
        return "\n".join(lines)


def detect_drift(
    series: Sequence[float],
    burn: int = 2,
    alpha: float = 0.3,
    ewma_k: float = 4.0,
    cusum_slack: float = 0.5,
    cusum_h: float = 5.0,
    rel_floor: float = 0.05,
    abs_floor: float = 1e-9,
) -> Dict[str, float]:
    """EWMA + one-sided CUSUM over one scalar history.

    The first ``burn`` points establish the baseline mean and scale;
    the scale is floored at ``rel_floor * |mean|`` and ``abs_floor`` so
    a perfectly deterministic (zero-variance) baseline does not turn
    every later bit-identical point into infinite z — clean replayed
    history scores exactly zero.  Later points are standardized against
    the baseline; the EWMA of z flags sustained shifts, the CUSUM
    accumulates slack-discounted z so slow ramps flag too.
    """
    values = [float(v) for v in series]
    n = len(values)
    out = {"points": float(n), "baseline": 0.0, "latest": 0.0, "ewma_z": 0.0, "cusum": 0.0, "flagged": 0.0}
    if n == 0:
        return out
    out["latest"] = values[-1]
    burn = max(1, min(burn, n))
    base = values[:burn]
    mean = sum(base) / len(base)
    var = sum((v - mean) ** 2 for v in base) / len(base)
    scale = max(math.sqrt(var), rel_floor * abs(mean), abs_floor)
    out["baseline"] = mean
    if n <= burn:
        return out
    ewma = 0.0
    s_pos = 0.0
    for v in values[burn:]:
        z = (v - mean) / scale
        ewma = alpha * z + (1 - alpha) * ewma
        s_pos = max(0.0, s_pos + z - cusum_slack)
    out["ewma_z"] = ewma
    out["cusum"] = s_pos
    if abs(ewma) > ewma_k:
        out["flagged"] = 1.0
        out["reason"] = f"ewma_z {ewma:.2f} beyond +-{ewma_k:g}"  # type: ignore[assignment]
    if s_pos > cusum_h:
        out["flagged"] = 1.0
        reason = f"cusum {s_pos:.2f} beyond {cusum_h:g}"
        prior = out.get("reason")
        out["reason"] = f"{prior}; {reason}" if prior else reason  # type: ignore[assignment]
    return out


def residual_drift(
    store: TelemetryStore,
    burn: int = 2,
    alpha: float = 0.3,
    ewma_k: float = 4.0,
    cusum_slack: float = 0.5,
    cusum_h: float = 5.0,
) -> DriftReport:
    """Drift verdicts over the store's residual history, per variable.

    Each ingest batch (``batch`` column, stamped by the adapter)
    contributes one point per response variable: the mean absolute
    relative residual of that batch.  Batches are the time axis; a
    perturbed calibration shifts whole batches at once, which is
    exactly the step change CUSUM/EWMA detect.
    """
    table = store.scan("residuals", columns=["variable", "relative", "batch"])
    report = DriftReport()
    for variable in np.unique(table["variable"]):
        mask = table["variable"] == variable
        batches = table["batch"][mask]
        relative = np.abs(table["relative"][mask])
        series = [
            float(np.mean(relative[batches == b])) for b in np.unique(batches)
        ]
        outcome = detect_drift(
            series, burn=burn, alpha=alpha, ewma_k=ewma_k,
            cusum_slack=cusum_slack, cusum_h=cusum_h,
        )
        report.verdicts.append(
            DriftVerdict(
                variable=str(variable),
                points=int(outcome["points"]),
                baseline=float(outcome["baseline"]),
                latest=float(outcome["latest"]),
                ewma_z=float(outcome["ewma_z"]),
                cusum=float(outcome["cusum"]),
                flagged=bool(outcome["flagged"]),
                reason=str(outcome.get("reason", "")),
            )
        )
    return report

"""Export figure/table data to CSV for external plotting.

The paper's charts were (presumably) gnuplot; downstream users will want
the raw series.  Plain ``csv`` writers — no plotting dependencies — with
loaders for round-tripping in tests and notebooks.
"""

from __future__ import annotations

import csv
import io
import pathlib
from typing import Dict, List, Sequence, Union

from ..core.breakdown import TimeBreakdown
from ..core.prediction import PredictionSeries

PathLike = Union[str, pathlib.Path]


def _write(path: PathLike, rows: List[dict], fieldnames: Sequence[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        writer.writerows(rows)


def curves_to_csv(
    series: Dict[str, PredictionSeries], path: PathLike
) -> None:
    """One row per (platform, p): time and speedup columns."""
    rows = []
    for name, s in series.items():
        for p, t, sp in zip(s.servers, s.times, s.speedups):
            rows.append(
                {"platform": name, "servers": p, "time_s": t, "speedup": sp}
            )
    _write(path, rows, ["platform", "servers", "time_s", "speedup"])


def curves_from_csv(path: PathLike) -> Dict[str, Dict[int, dict]]:
    """Load back: {platform: {p: {'time_s':…, 'speedup':…}}}."""
    out: Dict[str, Dict[int, dict]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["platform"], {})[int(row["servers"])] = {
                "time_s": float(row["time_s"]),
                "speedup": float(row["speedup"]),
            }
    return out


def breakdowns_to_csv(
    panels: Dict[str, Dict[int, TimeBreakdown]], path: PathLike
) -> None:
    """One row per (panel, p) with all six breakdown categories."""
    cats = TimeBreakdown.category_names()
    rows = []
    for panel, by_p in panels.items():
        for p, b in sorted(by_p.items()):
            row = {"panel": panel, "servers": p, "total": b.total}
            row.update(b.as_dict())
            rows.append(row)
    _write(path, rows, ["panel", "servers", *cats, "total"])


def breakdowns_from_csv(path: PathLike) -> Dict[str, Dict[int, TimeBreakdown]]:
    """Load panels back: {panel: {p: TimeBreakdown}}."""
    cats = TimeBreakdown.category_names()
    out: Dict[str, Dict[int, TimeBreakdown]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            b = TimeBreakdown(**{c: float(row[c]) for c in cats})
            out.setdefault(row["panel"], {})[int(row["servers"])] = b
    return out


def residuals_to_csv(rows: List[dict], path: PathLike) -> None:
    """The Figure 4 measured-vs-predicted rows."""
    if not rows:
        raise ValueError("no residual rows to export")
    _write(path, rows, list(rows[0].keys()))


def records_to_jsonl(records, path: PathLike) -> int:
    """Write per-cell ``WorkloadRecord``s as JSON lines; returns the count.

    Thin alias for :func:`repro.workloads.campaign.export_jsonl` so the
    analysis layer offers one import site for both CSV and JSONL output.
    """
    from ..workloads.campaign import export_jsonl

    return export_jsonl(records, path)


def records_from_jsonl(path: PathLike):
    """Load ``WorkloadRecord``s back from a JSONL file (see above)."""
    from ..workloads.campaign import load_jsonl

    return load_jsonl(path)


def to_csv_string(rows: List[dict]) -> str:
    """Render arbitrary homogeneous row dicts as a CSV string."""
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()

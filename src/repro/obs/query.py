"""Predicate/projection/aggregation engine over the telemetry store.

A deliberately small columnar query layer shared by ``python -m
repro.obs query``, the SLO/drift monitors and the tests:

* **where** — a conjunction of comparisons, ``servers>=4 and
  platform==j90``.  ``and`` and ``,`` both separate clauses; operators
  are ``== != >= <= > <``; values parse as int, then float, then
  (optionally quoted) string; ``none``/``nan`` match missing float
  cells (NaN).  A ``dataset.`` prefix on a column (``cell.servers``)
  is stripped, so query text can stay readable next to the dataset
  name.
* **agg** — a list of calls, ``p99(total_s), mean(total_s), count()``.
  Functions: ``count sum mean min max std p50 p90 p95 p99``.
* **by** — optional group-by column: aggregates per distinct value.

Quantiles use :func:`percentile` — the *same* nearest-rank rule the
serve layer reports through :func:`latency_quantiles`, so an aggregate
over ingested per-request records reproduces the service's own p50/p99
bit for bit, not merely approximately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TelemetryError
from .store import TelemetryStore


def percentile(values: Sequence[float], frac: float) -> float:
    """Nearest-rank quantile: ``sorted[min(n-1, int(round(frac*(n-1))))]``.

    The single quantile definition of the repo — the serve layer's
    latency report and every store aggregate call this, which is what
    makes "query p99 == served p99" an exact (1e-9) contract instead of
    an interpolation-method lottery.  Returns 0.0 on empty input.
    """
    n = len(values)
    if n == 0:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    last = n - 1
    return float(ordered[min(last, int(round(frac * last)))])


def latency_quantiles(values: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 of ``values`` by :func:`percentile` (0 when empty).

    The latency report of the prediction service and the fleet router.
    """
    return {
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "p99": percentile(values, 0.99),
    }


# ----------------------------------------------------------------------
# where clauses
# ----------------------------------------------------------------------
_OPS = ("==", "!=", ">=", "<=", ">", "<")

_CLAUSE_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_.]*)\s*(==|!=|>=|<=|>|<)\s*(.+?)\s*$"
)


@dataclass(frozen=True)
class Clause:
    """One parsed comparison: column, operator, literal."""

    column: str
    op: str
    value: Any


def _parse_value(text: str) -> Any:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    if text.lower() in ("none", "null", "nan"):
        return float("nan")
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_where(text: Optional[str]) -> List[Clause]:
    """Parse a conjunction; empty/None text parses to no clauses."""
    if not text or not text.strip():
        return []
    clauses: List[Clause] = []
    for part in re.split(r"\s+and\s+|,", text):
        if not part.strip():
            continue
        m = _CLAUSE_RE.match(part)
        if m is None:
            raise TelemetryError(
                f"unparseable where clause {part.strip()!r} "
                f"(expected: column OP value with OP in {' '.join(_OPS)})"
            )
        column, op, raw = m.groups()
        clauses.append(Clause(column=column, op=op, value=_parse_value(raw)))
    return clauses


def _resolve_column(name: str, table: Dict[str, np.ndarray], dataset: str) -> str:
    """Strip an optional dataset prefix; validate against the table."""
    candidate = name
    if "." in name:
        prefix, _, rest = name.partition(".")
        if prefix in (dataset, dataset.rstrip("s")):
            candidate = rest
    if candidate not in table:
        raise TelemetryError(
            f"no column {name!r} in dataset {dataset!r} "
            f"(has {sorted(table)})"
        )
    return candidate


def apply_where(
    table: Dict[str, np.ndarray], clauses: Sequence[Clause], dataset: str = ""
) -> np.ndarray:
    """Boolean mask selecting the rows every clause admits."""
    rows = len(next(iter(table.values()))) if table else 0
    mask = np.ones(rows, dtype=bool)
    for clause in clauses:
        column = table[_resolve_column(clause.column, table, dataset)]
        value = clause.value
        if isinstance(value, float) and np.isnan(value):
            if column.dtype.kind not in "fc":
                raise TelemetryError(
                    f"clause {clause.column} {clause.op} none needs a float "
                    f"column, got {column.dtype}"
                )
            hit = np.isnan(column)
            mask &= hit if clause.op == "==" else ~hit
            continue
        if column.dtype.kind == "U":
            value = str(value)
        if clause.op == "==":
            mask &= column == value
        elif clause.op == "!=":
            mask &= column != value
        elif clause.op == ">=":
            mask &= column >= value
        elif clause.op == "<=":
            mask &= column <= value
        elif clause.op == ">":
            mask &= column > value
        else:
            mask &= column < value
    return mask


# ----------------------------------------------------------------------
# aggregates
# ----------------------------------------------------------------------
_AGG_RE = re.compile(r"^\s*([a-z][a-z0-9]*)\s*\(\s*([A-Za-z0-9_.]*)\s*\)\s*$")

_AGG_FUNCS = ("count", "sum", "mean", "min", "max", "std", "p50", "p90", "p95", "p99")


@dataclass(frozen=True)
class Agg:
    """One parsed aggregate call, e.g. ``p99(total_s)``."""

    func: str
    column: str  # empty for count()

    @property
    def label(self) -> str:
        """The call as written, the key in result aggregates."""
        return f"{self.func}({self.column})"


def parse_aggs(text: Optional[str]) -> List[Agg]:
    """Parse a comma-separated aggregate list."""
    if not text or not text.strip():
        return []
    out: List[Agg] = []
    for part in _split_calls(text):
        m = _AGG_RE.match(part)
        if m is None:
            raise TelemetryError(
                f"unparseable aggregate {part.strip()!r} "
                f"(expected func(column) with func in {' '.join(_AGG_FUNCS)})"
            )
        func, column = m.groups()
        if func not in _AGG_FUNCS:
            raise TelemetryError(
                f"unknown aggregate function {func!r} (known: {' '.join(_AGG_FUNCS)})"
            )
        if func != "count" and not column:
            raise TelemetryError(f"{func}() needs a column argument")
        out.append(Agg(func=func, column=column))
    return out


def _split_calls(text: str) -> List[str]:
    """Split on commas *between* calls (commas inside parens stay)."""
    parts: List[str] = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            if current.strip():
                parts.append(current)
            current = ""
        else:
            current += ch
    if current.strip():
        parts.append(current)
    return parts


def _evaluate_agg(agg: Agg, table: Dict[str, np.ndarray], dataset: str) -> float:
    if agg.func == "count":
        rows = len(next(iter(table.values()))) if table else 0
        return float(rows)
    column = table[_resolve_column(agg.column, table, dataset)]
    if column.dtype.kind == "U":
        raise TelemetryError(f"{agg.label}: column {agg.column!r} is not numeric")
    values = column.astype(float)
    if agg.func == "sum":
        return float(np.sum(values)) if len(values) else 0.0
    if len(values) == 0:
        return 0.0
    if agg.func == "mean":
        return float(np.mean(values))
    if agg.func == "min":
        return float(np.min(values))
    if agg.func == "max":
        return float(np.max(values))
    if agg.func == "std":
        return float(np.std(values))
    return percentile(values, {"p50": 0.50, "p90": 0.90, "p95": 0.95, "p99": 0.99}[agg.func])


# ----------------------------------------------------------------------
# the query
# ----------------------------------------------------------------------
@dataclass
class QueryResult:
    """Outcome of one :func:`run_query` call (JSON-able via as_dict)."""

    dataset: str
    matched: int
    #: flat aggregates (no group-by), label -> value
    aggregates: Dict[str, float] = field(default_factory=dict)
    #: group-by results: (group value, label -> value) in sorted order
    groups: List[Tuple[str, Dict[str, float]]] = field(default_factory=list)
    #: projected rows when no aggregate was requested
    table: Dict[str, List[Any]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Machine-readable result payload."""
        out: Dict[str, Any] = {"dataset": self.dataset, "matched": self.matched}
        if self.aggregates:
            out["aggregates"] = dict(self.aggregates)
        if self.groups:
            out["groups"] = [
                {"key": key, "aggregates": dict(aggs)} for key, aggs in self.groups
            ]
        if self.table:
            out["rows"] = self.table
        return out

    def render(self) -> str:
        """Human-readable text block for the CLI."""
        lines = [f"dataset: {self.dataset}  matched rows: {self.matched}"]
        for label, value in self.aggregates.items():
            lines.append(f"  {label:<24s} {value:.9g}")
        for key, aggs in self.groups:
            lines.append(f"  {key}:")
            for label, value in aggs.items():
                lines.append(f"    {label:<22s} {value:.9g}")
        if self.table:
            names = list(self.table)
            lines.append("  " + "  ".join(f"{n:>14s}" for n in names))
            rows = len(self.table[names[0]])
            for i in range(rows):
                cells = []
                for n in names:
                    v = self.table[n][i]
                    cells.append(
                        f"{v:>14.6g}" if isinstance(v, float) else f"{str(v):>14s}"
                    )
                lines.append("  " + "  ".join(cells))
        return "\n".join(lines)


def run_query(
    store: TelemetryStore,
    dataset: str,
    where: Optional[str] = None,
    agg: Optional[str] = None,
    by: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
    limit: Optional[int] = None,
) -> QueryResult:
    """Scan, filter, then aggregate or project one dataset."""
    table = store.scan(dataset)
    mask = apply_where(table, parse_where(where), dataset)
    filtered = {name: col[mask] for name, col in table.items()}
    matched = int(np.count_nonzero(mask))
    aggs = parse_aggs(agg)

    result = QueryResult(dataset=dataset, matched=matched)
    if aggs and by is not None:
        key_column = filtered[_resolve_column(by, filtered, dataset)]
        for key in np.unique(key_column):
            group = {n: c[key_column == key] for n, c in filtered.items()}
            result.groups.append(
                (str(key), {a.label: _evaluate_agg(a, group, dataset) for a in aggs})
            )
        return result
    if aggs:
        result.aggregates = {a.label: _evaluate_agg(a, filtered, dataset) for a in aggs}
        return result

    names = (
        [_resolve_column(n, filtered, dataset) for n in select]
        if select
        else sorted(filtered)
    )
    stop = matched if limit is None else min(matched, limit)
    result.table = {
        name: [
            float(v) if filtered[name].dtype.kind in "fc" else
            int(v) if filtered[name].dtype.kind in "iu" else str(v)
            for v in filtered[name][:stop]
        ]
        for name in names
    }
    return result

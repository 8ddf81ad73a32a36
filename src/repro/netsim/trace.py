"""Event tracing for simulated runs.

The tracer is the simulator-side half of the paper's instrumentation
story: middleware and application layers emit begin/end records for
phases (compute, send, recv, barrier wait, idle) and the analysis code
reduces a trace to the per-category time breakdown the paper measures
(Sections 2.4 and 3).

Since the :mod:`repro.obs` observability layer landed, the real
machinery lives in :class:`repro.obs.spans.SpanTracer`: hierarchical
begin/end spans, causal flow edges between sender and receiver, and
model response-variable rollups.  :class:`Tracer` is the thin
netsim-facing view of it, preserving the original flat-record API
(``records``, ``intervals``, ``span()``, ``makespan``, ``gantt``) that
the analysis and hpm code was written against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..obs.spans import FlowEdge, Span, SpanTracer

#: Spans are the trace records now; the old name stays importable.
TraceRecord = Span

__all__ = ["FlowEdge", "Span", "TraceRecord", "Tracer"]


class Tracer(SpanTracer):
    """Accumulates :class:`TraceRecord` entries for one simulated run.

    A :class:`~repro.obs.spans.SpanTracer` whose ``records`` attribute
    aliases the span list, so existing reductions keep working while
    span hierarchy and flow edges accumulate alongside.
    """

    @property
    def records(self) -> List[Span]:
        """The recorded spans (legacy name)."""
        return self.spans

    def intervals(
        self, proc: Optional[str] = None, category: Optional[str] = None
    ) -> List[Span]:
        """Filtered view of the raw records."""
        return [
            r
            for r in self.spans
            if (proc is None or r.proc == proc)
            and (category is None or r.category == category)
        ]

    def span(self) -> Tuple[float, float]:
        """(earliest start, latest end) over all records."""
        return self.span_bounds()

    def makespan(self) -> float:
        """Duration from the earliest start to the latest end."""
        lo, hi = self.span_bounds()
        return hi - lo

    # ------------------------------------------------------------------
    def gantt(self, width: int = 72, categories: Optional[Iterable[str]] = None) -> str:
        """Render a coarse ASCII Gantt chart of the trace.

        Each process gets one row; each column is a time bucket labelled
        with the first letter of the category that dominates the bucket.
        Useful for eyeballing load imbalance (the paper's even-p anomaly
        shows up as long runs of idle on half the servers).
        """
        lo, hi = self.span_bounds()
        if hi <= lo:
            return "(empty trace)"
        wanted = set(categories) if categories is not None else None
        # One pass to group by process: the old per-row rescan cost
        # O(processes x records) on big traces.
        per_proc: Dict[str, List[Span]] = {}
        for r in self.spans:
            if wanted is not None and r.category not in wanted:
                continue
            per_proc.setdefault(r.proc, []).append(r)
        procs = sorted({r.proc for r in self.spans})
        dt = (hi - lo) / width
        lines = []
        for p in procs:
            buckets: List[Dict[str, float]] = [{} for _ in range(width)]
            for r in per_proc.get(p, ()):
                b0 = int((r.start - lo) / dt)
                b1 = int((r.end - lo) / dt)
                for b in range(max(b0, 0), min(b1 + 1, width)):
                    cell_lo = lo + b * dt
                    cell_hi = cell_lo + dt
                    overlap = min(r.end, cell_hi) - max(r.start, cell_lo)
                    if overlap > 0:
                        buckets[b][r.category] = (
                            buckets[b].get(r.category, 0.0) + overlap
                        )
            row = "".join(
                max(cell, key=cell.__getitem__)[0] if cell else "."
                for cell in buckets
            )
            lines.append(f"{p:>12s} |{row}|")
        return "\n".join(lines)

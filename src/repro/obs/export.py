"""Trace exporters and loaders.

Two on-disk formats:

* **Chrome trace-event JSON** (``*.trace.json``) — the visualization
  format: open the file in `Perfetto <https://ui.perfetto.dev>`_ or
  ``chrome://tracing``.  One *process* per run label, one *thread* per
  simulated process; spans become ``"X"`` complete events, flow edges
  become ``"s"``/``"f"`` flow-event pairs.  Timestamps are **simulated
  time** in microseconds.
* **JSONL** (``*.trace.jsonl``) — the lossless interchange format: one
  JSON object per line (``span`` / ``flow`` / ``metrics`` records),
  round-trips through :func:`load_jsonl` exactly.

Both are plain-stdlib; the loaders never execute trace content.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple, Union

from .metrics import MetricsRegistry
from .spans import FlowEdge, Span, SpanTracer

PathLike = Union[str, pathlib.Path]

#: JSONL schema marker; bump when the line layout changes.
JSONL_VERSION = 1

#: Simulated seconds -> Chrome trace microseconds.
_US = 1e6


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def _track_ids(tracer: SpanTracer) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """(run, proc) -> (pid, tid): one pid per run, one tid per proc."""
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    out: Dict[Tuple[str, str], Tuple[int, int]] = {}
    keys = {(s.run, s.proc) for s in tracer.spans}
    keys |= {(f.run, f.src_proc) for f in tracer.flows}
    keys |= {(f.run, f.dst_proc) for f in tracer.flows}
    for run, proc in sorted(keys):
        pid = pids.setdefault(run, len(pids) + 1)
        tid = tids.setdefault((run, proc), sum(1 for k in tids if k[0] == run) + 1)
        out[(run, proc)] = (pid, tid)
    return out


def chrome_trace_events(tracer: SpanTracer) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for one (possibly merged) tracer."""
    tracks = _track_ids(tracer)
    events: List[Dict[str, Any]] = []
    seen_pids: Dict[int, str] = {}
    for (run, proc), (pid, tid) in tracks.items():
        if pid not in seen_pids:
            seen_pids[pid] = run
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": run or "run"},
                }
            )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": proc},
            }
        )
    for span in tracer.spans:
        pid, tid = tracks[(span.run, span.proc)]
        event: Dict[str, Any] = {
            "name": span.label,
            "cat": span.category,
            "ph": "X",
            "ts": span.start * _US,
            "dur": span.duration * _US,
            "pid": pid,
            "tid": tid,
        }
        args: Dict[str, Any] = {}
        if span.detail:
            args["detail"] = span.detail
        if span.parent is not None:
            args["parent"] = span.parent
        if args:
            event["args"] = args
        events.append(event)
    for i, flow in enumerate(tracer.flows):
        fid = f"{flow.run}#{flow.fid}#{i}" if flow.run else f"{flow.fid}#{i}"
        pid, tid = tracks[(flow.run, flow.src_proc)]
        common = {"cat": "flow", "name": flow.kind, "id": fid}
        events.append(
            {**common, "ph": "s", "ts": flow.src_time * _US, "pid": pid, "tid": tid}
        )
        pid, tid = tracks[(flow.run, flow.dst_proc)]
        events.append(
            {
                **common,
                "ph": "f",
                "bp": "e",
                "ts": flow.dst_time * _US,
                "pid": pid,
                "tid": tid,
                "args": {"nbytes": flow.nbytes, "tag": flow.tag},
            }
        )
    return events


def write_chrome_trace(
    tracer: SpanTracer,
    path: PathLike,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Write a Chrome trace-event JSON file; returns the document.

    The metrics registry (if given) rides along under
    ``otherData.metrics`` — ignored by viewers, preserved for tooling.
    """
    document: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "clock": "simulated",
        },
    }
    if metrics is not None:
        document["otherData"]["metrics"] = metrics.as_dict()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    return document


def read_chrome_trace(path: PathLike) -> Dict[str, Any]:
    """Load a Chrome trace-event JSON document (dict or bare list form)."""
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    if isinstance(loaded, list):  # the bare traceEvents array form is legal
        return {"traceEvents": loaded}
    return loaded


def read_chrome_totals(path: PathLike) -> Dict[str, float]:
    """Per-category duration totals [s] recomputed from an exported file.

    The independent reduction the round-trip tests compare against
    :meth:`SpanTracer.by_category` — only ``"X"`` complete events
    contribute; metadata and flow events are skipped.
    """
    totals: Dict[str, float] = {}
    for event in read_chrome_trace(path).get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        category = event.get("cat", event.get("name", ""))
        totals[category] = totals.get(category, 0.0) + float(event["dur"]) / _US
    return totals


def count_flow_events(path: PathLike) -> int:
    """Number of complete flow edges (s/f pairs) in an exported file."""
    starts = 0
    ends = 0
    for event in read_chrome_trace(path).get("traceEvents", []):
        if event.get("ph") == "s":
            starts += 1
        elif event.get("ph") == "f":
            ends += 1
    return min(starts, ends)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def _span_line(span: Span) -> Dict[str, Any]:
    return {
        "type": "span",
        "proc": span.proc,
        "category": span.category,
        "start": span.start,
        "end": span.end,
        "detail": span.detail,
        "name": span.name,
        "sid": span.sid,
        "parent": span.parent,
        "run": span.run,
    }


def _flow_line(flow: FlowEdge) -> Dict[str, Any]:
    return {
        "type": "flow",
        "fid": flow.fid,
        "src_proc": flow.src_proc,
        "src_time": flow.src_time,
        "dst_proc": flow.dst_proc,
        "dst_time": flow.dst_time,
        "kind": flow.kind,
        "nbytes": flow.nbytes,
        "tag": flow.tag,
        "run": flow.run,
    }


def span_from_line(line: Dict[str, Any]) -> Span:
    """Rebuild a span from its :func:`_span_line` dict."""
    return Span(
        proc=line["proc"],
        category=line["category"],
        start=line["start"],
        end=line["end"],
        detail=line.get("detail", ""),
        name=line.get("name", ""),
        sid=line.get("sid", 0),
        parent=line.get("parent"),
        run=line.get("run", ""),
    )


def flow_from_line(line: Dict[str, Any]) -> FlowEdge:
    """Rebuild a flow edge from its :func:`_flow_line` dict."""
    return FlowEdge(
        fid=line["fid"],
        src_proc=line["src_proc"],
        src_time=line["src_time"],
        dst_proc=line["dst_proc"],
        dst_time=line["dst_time"],
        kind=line.get("kind", "msg"),
        nbytes=line.get("nbytes", 0.0),
        tag=line.get("tag"),
        run=line.get("run", ""),
    )


def write_jsonl(
    tracer: SpanTracer,
    path: PathLike,
    metrics: Optional[MetricsRegistry] = None,
) -> int:
    """Write the lossless JSONL dump; returns the number of lines."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:

        def emit(obj: Dict[str, Any]) -> None:
            nonlocal n
            fh.write(json.dumps(obj, sort_keys=True))
            fh.write("\n")
            n += 1

        emit({"type": "meta", "version": JSONL_VERSION, "generator": "repro.obs"})
        for span in tracer.spans:
            emit(_span_line(span))
        for flow in tracer.flows:
            emit(_flow_line(flow))
        if metrics is not None:
            emit({"type": "metrics", "data": metrics.as_dict()})
    return n


def load_jsonl(path: PathLike) -> Tuple[SpanTracer, MetricsRegistry]:
    """Rebuild ``(tracer, metrics)`` from a :func:`write_jsonl` file."""
    tracer = SpanTracer()
    metrics = MetricsRegistry()
    max_sid = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.get("type")
            if kind == "span":
                tracer.spans.append(span_from_line(obj))
                max_sid = max(max_sid, obj.get("sid", 0))
            elif kind == "flow":
                tracer.flows.append(flow_from_line(obj))
            elif kind == "metrics":
                metrics.merge_payload(obj.get("data", {}))
    tracer._next_sid = max_sid + 1
    return tracer, metrics

"""The traced run of a serving workload: per-layer metrics and reconciliation.

A full-length untraced session (which also gives the reported-only
end-to-end figures, see ``common.REPORTED_E2E``)
is followed by a half-length traced session (the server started by
:mod:`perfbench.serve_launcher`) at the same rates.  Spans recorded in
the server join the client's send and receive stamps by request id;
both sides read ``time.monotonic``.

Two reconciliations are printed:

* the latency waterfall — per request, generator lateness + transport
  + parse + admission + enqueue + batcher wait + batch dispatch + the
  unexplained rest adds up exactly to the due-time latency (means);
* server CPU per answered request against the summed self times of the
  synchronous layer calls, with the unattributed rest (event loop,
  sockets, JSON decoding, the coroutine glue of submit, dispatch and
  resolve) reported, not hidden.  Coroutine spans are left out of this
  table: their wall time includes the time they spend suspended.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Dict, List, Tuple

from . import common, tracing
from .serve_wl import (
    Measured,
    ServeWorkload,
    Traffic,
    build_traffic,
    cpu_us_per_op,
    diagnostic_lines,
    e2e_metrics,
    property_lines,
    session,
)
from .tracing import SpanIndex, ratio

#: Requests per phase of the half-length traced session.
TRACE_PHASE_SAMPLES = 600

#: CPU-table groups: layer -> synchronous span names whose self time it owns.
CPU_LAYERS = (
    ("serve.api (parse)", ("api.parse_request",)),
    ("serve.api (canonical JSON)", ("api.canonical",)),
    ("serve.admission", ("admission.decide",)),
    ("serve.batcher (enqueue)", ("batcher.put",)),
    ("serve.calibstore (key, disk read)", ("calibstore.key", "cache.key_for", "cache.load")),
    ("core.model", ("service.evaluate", "model.breakdown", "model.predict_series",
                    "model.terms_breakdown")),
    ("workloads.terms", ("workloads.terms",)),
)


def run(wl: ServeWorkload, seed: int, seconds: float, workdir: pathlib.Path) -> common.RunResult:
    """Untraced then traced session; per-layer metrics from the traced one."""
    plain = session(wl, build_traffic(wl, seed, seconds), workdir, 1, False, "plain")
    traffic = build_traffic(wl, seed, seconds / 2, TRACE_PHASE_SAMPLES)
    traced = session(wl, traffic, workdir, 1, True, "traced")
    index = SpanIndex(json.loads(traced.spans_path.read_text()))
    values, lines = analyze(wl, traffic, plain, traced, index)
    tails, tail_lines = e2e_metrics(wl, plain)
    values.update({name: tails[name] for name in common.REPORTED_E2E})
    lines = property_lines(wl, traffic) + [
        f"property: in-batch duplicate share {1 - values['core.model.evals_per_op']:.3f}"
    ] + tail_lines[:2] + lines + diagnostic_lines(traced)
    correct = plain.outcome.correct and traced.outcome.correct
    return common.RunResult(
        correct,
        plain.outcome.attempted + traced.outcome.attempted,
        plain.outcome.failed + traced.outcome.failed,
        values,
        lines,
    )


def request_rows(traffic: Traffic, traced: Measured, index: SpanIndex) -> List[Dict[str, float]]:
    """Per answered request: its stages, in seconds, joined by request id."""
    submits = {s[5]: s for s in index.select(["service.submit"])}
    dispatch_of = {}
    for span in index.select(["batcher.dispatch"]):
        for rid in span[5]:
            dispatch_of[rid] = span
    rows = []
    for phase in traffic.timed:
        drive = traced.drives[phase.name]
        for env, due, sent, done in zip(phase.envelopes, phase.dues, drive.sent, drive.received):
            sub = submits.get(env["id"])
            disp = dispatch_of.get(env["id"])
            if done is None or sub is None or disp is None:
                continue
            kids = {s[0]: s for s in index.children.get(sub[4], [])}
            put = kids["batcher.put"]
            row = {
                "latency": done - (drive.t0 + due),
                "late": sent - (drive.t0 + due),
                "transport": (done - sent) - (sub[2] - sub[1]),
                "parse": _dur(kids.get("api.parse_request")),
                "admission": _dur(kids.get("admission.decide")),
                "put": _dur(put),
                "wait": disp[1] - put[2],
                "dispatch": disp[2] - disp[1],
                "submit": sub[2] - sub[1],
            }
            row["unexplained"] = row["submit"] - sum(
                row[k] for k in ("parse", "admission", "put", "wait", "dispatch"))
            rows.append(row)
    return rows


def p50_ms(m: Measured, phase: str) -> float:
    """Median due-time latency of one phase."""
    return 1e3 * common.percentile(m.outcome.latencies[phase], 0.5)


def _dur(span) -> float:
    return span[2] - span[1] if span is not None else 0.0


def analyze(
    wl: ServeWorkload, traffic: Traffic, plain: Measured, traced: Measured, index: SpanIndex
) -> Tuple[Dict[str, float], List[str]]:
    """Every per-layer metric plus the printed reconciliation tables."""
    windows = [w for kind_windows in traced.windows.values() for w in kind_windows]
    ops = sum(traced.answered.values())
    rows = request_rows(traffic, traced, index)
    col = lambda key: [r[key] for r in rows]  # noqa: E731
    p50_us = lambda key: 1e6 * common.percentile(col(key), 0.5)  # noqa: E731
    per_op_us = lambda names: 1e6 * ratio(index.total(names, windows)[1], ops)  # noqa: E731
    mean_us = lambda names: 1e6 * ratio(*reversed(index.total(names, windows, False)))  # noqa: E731

    resolves = index.select(["calibstore.resolve"], windows)
    loads = index.select(["calibstore.disk_load"], windows)
    refreshes = index.select(["calibstore.refresh"], windows)
    dispatches = index.select(["batcher.dispatch"], windows)
    evals = index.select(["service.evaluate"], windows)
    untraced_cpu, cpu = cpu_us_per_op(plain), cpu_us_per_op(traced)
    values: Dict[str, float] = {
        "serve.server.transport_us.p50": p50_us("transport"),
        "serve.api.parse_us": mean_us(["api.parse_request"]),
        "serve.api.canonical_us": 1e6 * ratio(
            index.total(["api.canonical"], windows, False)[1], ops),
        "serve.admission.decide_us": mean_us(["admission.decide"]),
        "serve.batcher.wait_us.p50": p50_us("wait"),
        "serve.batcher.batch_size": ratio(sum(len(s[5]) for s in dispatches), len(dispatches)),
        "serve.batcher.dispatch_us": mean_us(["batcher.dispatch"]),
        "serve.service.submit_us.p50": p50_us("submit"),
        "serve.calibstore.resolve_us": mean_us(["calibstore.resolve"]),
        "serve.calibstore.resolves_per_op": ratio(len(resolves), ops),
        "serve.calibstore.memory_hit_ratio": ratio(
            len(resolves) - len(loads) - len(refreshes), len(resolves)),
        "serve.calibstore.disk_loads_per_op": ratio(len(loads), ops),
        "serve.calibstore.fits": float(len(index.select(["calibstore.fit"]))),
        "core.model.eval_us_per_op": per_op_us(dict(CPU_LAYERS)["core.model"]),
        "core.model.evals_per_op": ratio(len(evals), ops),
        "workloads.terms_us_per_op": per_op_us(["workloads.terms"]),
        "serve.unexplained_us.p50": p50_us("unexplained"),
        "campaign.unexplained_ms_per_study.cold": 0.0,
        "campaign.unexplained_ms_per_study.warm": 0.0,
        "loadgen.late_ms.p99": 1e3 * common.tail(traced.outcome.late, 0.99)[0],
        "host.steal_pct": traced.steal_pct,
        "trace.overhead_pct": 100.0 * (cpu - untraced_cpu) / untraced_cpu,
    }
    # the simulation layers run only in the server's calibration fits (setup)
    values.update(tracing.des_metrics(index, []))
    values.update(tracing.cache_metrics(index, {
        "cold": traced.windows["lo"], "warm": traced.windows["hi"]}))
    values.update(tracing.study_metrics(index, windows, 0))

    lines = [f"traced run: {ops} answered requests in the timed phases, "
             f"{len(rows)} joined to their server spans"]
    lines.append("latency waterfall, mean us per request (sums to the due-time latency):")
    stages = ("late", "transport", "parse", "admission", "put", "wait", "dispatch",
              "unexplained")
    for key in stages:
        lines.append(f"  {key:<12} {1e6 * statistics.fmean(col(key)):10.1f}")
    lines.append(f"  {'= latency':<12} {1e6 * statistics.fmean(col('latency')):10.1f}"
                 f"   (stage sum {1e6 * sum(statistics.fmean(col(k)) for k in stages):.1f})")
    lines.append("server CPU per answered request, us (layer self times + residual):")
    attributed = 0.0
    for layer, names in CPU_LAYERS:
        us = per_op_us(names)
        attributed += us
        lines.append(f"  {layer:<32} {us:10.1f}")
    lines.append(f"  {'unattributed (loop, sockets)':<32} {cpu - attributed:10.1f}")
    lines.append(f"  {'= traced cpu_us_per_op':<32} {cpu:10.1f}")
    lines.append(
        f"trace overhead: cpu_us_per_op untraced {untraced_cpu:.1f} -> traced {cpu:.1f} "
        f"({values['trace.overhead_pct']:+.1f}%); p50_ms.hi untraced "
        f"{p50_ms(plain, 'hi'):.3f} -> traced {p50_ms(traced, 'hi'):.3f}"
    )
    return values, lines

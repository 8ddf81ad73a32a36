"""The traced run of the campaign workload: per-layer metrics per phase.

Untraced cold and warm passes run first for the full run length (they
also give the reported-only end-to-end figures, see
``common.REPORTED_E2E``); then the wrappers are installed in this
process and the same passes run traced for half the length.  Per phase,
the layer self times per study plus the unexplained rest add up to the
traced study wall time.
"""

from __future__ import annotations

import pathlib
import statistics
from typing import Dict, List, Tuple

from . import common, hostspeed, tracing
from .campaign_wl import (
    cpu_us_per_cell,
    e2e_metrics,
    phase_lines,
    run_passes,
    scale_passes,
    setup_lines,
)
from .tracing import SpanIndex, ratio

#: cold passes of the traced half (no tail quantile is taken from it)
TRACE_MIN_PASSES = 3

#: per-layer metrics of layers the campaign never calls
IDLE = (
    "serve.server.transport_us.p50", "serve.api.parse_us", "serve.api.canonical_us",
    "serve.admission.decide_us", "serve.batcher.wait_us.p50", "serve.batcher.batch_size",
    "serve.batcher.dispatch_us", "serve.service.submit_us.p50",
    "serve.calibstore.resolve_us", "serve.calibstore.resolves_per_op",
    "serve.calibstore.memory_hit_ratio", "serve.calibstore.disk_loads_per_op",
    "serve.calibstore.fits", "core.model.eval_us_per_op", "core.model.evals_per_op",
    "workloads.terms_us_per_op", "serve.unexplained_us.p50", "loadgen.late_ms.p99",
)


def run(workdir: pathlib.Path, seed: int, seconds: float, reference: str,
        lines: List[str], setups: List[Tuple[float, float]],
        speed: hostspeed.SpeedLog) -> common.RunResult:
    """Untraced passes, then traced passes; metrics from the traced ones."""
    plain = run_passes(workdir, seed, seconds, reference, speed)
    tracer = tracing.Tracer()
    tracing.install_campaign(tracer)
    tracing.install_model(tracer)
    steal0 = common.host_cpu()
    try:
        traced = run_passes(workdir, seed, seconds / 2, reference, speed, TRACE_MIN_PASSES)
    finally:
        tracer.uninstall()
    steal = common.steal_pct(steal0, common.host_cpu())
    scale_passes(plain, speed)
    scale_passes(traced, speed)
    index = SpanIndex(tracer.spans)
    untraced_cpu, traced_cpu = cpu_us_per_cell(plain), cpu_us_per_cell(traced)
    tails = e2e_metrics(plain)

    values: Dict[str, float] = {name: 0.0 for name in IDLE}
    values.update(tracing.des_metrics(index, traced.windows["cold"]))
    values.update(tracing.cache_metrics(index, traced.windows))
    values.update(tracing.study_metrics(index, traced.windows["warm"], len(traced.warm)))
    values.update({name: tails[name] for name in common.REPORTED_E2E})
    values["host.steal_pct"] = steal
    values["trace.overhead_pct"] = 100.0 * (traced_cpu - untraced_cpu) / untraced_cpu

    lines = lines + setup_lines(setups, speed)[1] + phase_lines(traced)
    for phase, passes in (("cold", traced.cold), ("warm", traced.warm)):
        windows = traced.windows[phase]
        n = len(passes)
        wall = 1e3 * statistics.fmean(s.wall_s for s in passes)
        lines.append(f"{phase}: layer self time per study, ms (mean of {n} traced passes):")
        attributed = 0.0
        for layer, names in tracing.STUDY_LAYERS:
            ms = 1e3 * ratio(index.total(names, windows)[1], n)
            attributed += ms
            lines.append(f"  {layer:<34} {ms:10.2f}")
        values[f"campaign.unexplained_ms_per_study.{phase}"] = wall - attributed
        lines.append(f"  {'unexplained':<34} {wall - attributed:10.2f}")
        lines.append(f"  {'= traced study wall':<34} {wall:10.2f}")
    lines.append(
        f"trace overhead: cpu_us_per_op untraced {untraced_cpu:.1f} -> traced "
        f"{traced_cpu:.1f} ({values['trace.overhead_pct']:+.1f}%)")
    failures = plain.failures + traced.failures
    lines += [f"validity: host.steal_pct {steal:.2f}",
              f"accounting: attempted {plain.attempted + traced.attempted} passes, "
              f"failed {len(failures)}",
              *(f"check: {f}" for f in failures)]
    return common.RunResult(not failures, plain.attempted + traced.attempted,
                            len(failures), values, lines)

"""Helpers shared by every workload: tail quantiles, /proc readers, output.

Quantiles are the repository's own nearest-rank rule,
``repro.obs.query.percentile``; ``run.py`` puts the checkout's ``src``
on the path before it imports this module.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.query import percentile

#: The grammar every metric name in BENCHMARK.json and in a result obeys.
METRIC_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: Samples that must lie beyond a tail quantile before it is reported.
TAIL_SUPPORT = 10

#: End-to-end figures every run prints but the gate does not bound: their
#: run-to-run spread on a shared 2-vCPU VM (host steal and CPU-speed
#: drift, amplified by queueing) exceeds the widest allowed bound, or
#: they repeat a gated figure, so BENCHMARK.json lists them with the
#: per-layer metrics of traced runs.
REPORTED_E2E = ("p50_ms.lo", "p50_ms.hi", "p99_ms.lo", "p99_ms.hi",
                "cells_per_s.cold", "cells_per_s.warm")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def beyond(n: int, frac: float) -> int:
    """How many of ``n`` samples lie strictly past the ``frac`` rank of
    ``percentile`` (``round(frac * (n - 1))``)."""
    if n == 0:
        return 0
    last = n - 1
    return last - min(last, int(round(frac * last)))


def tail(values: Sequence[float], frac: float) -> Tuple[float, int]:
    """``(quantile, samples beyond it)``; raises when the tail is unsupported."""
    support = beyond(len(values), frac)
    if support < TAIL_SUPPORT:
        raise ValueError(
            f"p{100 * frac:g} needs {TAIL_SUPPORT} samples beyond it; "
            f"{len(values)} samples leave {support}"
        )
    return percentile(values, frac), support


def due_latencies(
    t0: float, dues: Sequence[float], received: Sequence[Optional[float]]
) -> List[float]:
    """Per-request latency from the *due* time ``t0 + due`` to the answer.

    Timing from the due time, not from the send, charges a stall in
    the generator or the server to every request it delayed.  Requests
    never answered (``None``) are left out; the caller counts them as
    failed.
    """
    return [
        done - (t0 + due)
        for due, done in zip(dues, received)
        if done is not None
    ]


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def parse_proc_stat_cpu(text: str, ticks_per_s: float) -> float:
    """utime + stime in seconds from the text of ``/proc/<pid>/stat``.

    The command name (field 2) is parenthesised and may itself hold
    spaces and parentheses, so fields are counted from the *last* ``)``:
    utime and stime are fields 14 and 15 of the whole line.
    """
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state): field k sits at rest[k - 3]
    return (int(rest[11]) + int(rest[12])) / ticks_per_s


def process_cpu_s(pid: int) -> float:
    """CPU seconds (user + system) a live process has used so far."""
    text = pathlib.Path(f"/proc/{pid}/stat").read_text()
    return parse_proc_stat_cpu(text, os.sysconf("SC_CLK_TCK"))


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def parse_host_cpu(text: str) -> Tuple[int, int]:
    """``(steal ticks, total ticks)`` from the aggregate ``cpu`` line of /proc/stat."""
    for line in text.splitlines():
        if line.startswith("cpu "):
            fields = [int(v) for v in line.split()[1:]]
            # user nice system idle iowait irq softirq steal [guest guest_nice]
            # guest time is already inside user, so it is left out of the total
            return fields[7], sum(fields[:8])
    raise RuntimeError("no aggregate cpu line in /proc/stat")


def host_cpu() -> Tuple[int, int]:
    """Current ``(steal, total)`` tick counters of the whole host."""
    return parse_host_cpu(pathlib.Path("/proc/stat").read_text())


def cpu_split() -> Tuple[set, set]:
    """(load-generator CPUs, measured-process CPUs).

    One CPU for the load generator, the rest for the measured process,
    so the two never queue for the same core.  The server's Python
    threads share one interpreter lock and the study is serial, so the
    measured process gains little from a second core; on a single-CPU
    host both share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


def steal_pct(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of host CPU time stolen by the hypervisor between two readings."""
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


# ----------------------------------------------------------------------
# the result line
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """What one workload run hands back to ``run.py``."""

    correct: bool
    attempted: int
    failed: int
    values: Dict[str, float]
    lines: List[str] = field(default_factory=list)


def load_benchmark(root: pathlib.Path = ROOT) -> dict:
    """BENCHMARK.json of this checkout."""
    return json.loads((root / "BENCHMARK.json").read_text())


def metric_units(spec: dict, trace: bool) -> Dict[str, str]:
    """name -> unit of the metrics a run with this trace flag must print."""
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` obeys the metric-name grammar."""
    return METRIC_NAME_RE.fullmatch(name) is not None and len(name) <= 64


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: Dict[str, float],
    units: Dict[str, str],
) -> str:
    """The final JSON line; every declared metric must be present."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"run produced no value for {missing}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
        sort_keys=True,
    )


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(list(values))

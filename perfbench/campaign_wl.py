"""The campaign workload: the full serial study, cold and then warm.

One *study* is ``repro.experiments.run_campaign`` on the j90 (probe,
28-cell reduced design, fit, predictions for every platform) plus
``repro.workloads.campaign.run_workload_campaign`` for ``collective``
and ``hpl`` over servers 1..7: 112 design cells and 118 simulated runs
(the probe repeats one cell 6 times).  Every study runs serially
(``workers=None``) with its seeds derived from the benchmark seed.

Phase ``cold``: each pass writes into a fresh, empty cache directory.
Phase ``warm``: passes re-run against the cache the last cold pass
filled and simulate nothing.  The two alternate, so a slow spell of the
host does not land on one phase only.  Every pass must reproduce the warm-up
study's fitted coefficients and predictions bit for bit.

Study CPU and set-up times are scaled to the nominal host speed
measured by bursts of :mod:`perfbench.hostspeed`'s reference kernel
before and after every set-up and every cycle (a cold pass and its warm
passes).

``python -m perfbench.campaign_wl --warmup DIR --seed N`` is one set-up
on its own: a fresh interpreter imports the study and runs the warm-up
study into DIR.  The run times ``SETUPS`` of them for ``setup_s``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import common, hostspeed

FAMILIES = ("collective", "hpl")
SERVERS = tuple(range(1, 8))
DESIGN_CELLS = 112
SIMULATIONS = 118
#: Share of the study time given to cold passes (the rest to warm passes).
COLD_SHARE = 0.75
#: Passes per phase at least: 10 x 109 per-cell samples support a p99
#: (951 samples leave the 10 beyond it that a reported p99 needs).
MIN_PASSES = 10
SETUPS = 5


# ----------------------------------------------------------------------
# one study
# ----------------------------------------------------------------------
@dataclass
class Study:
    """What one pass produced and how long it took."""

    digest: str
    simulations: int
    loaded: int
    wall_s: float
    cpu_s: float
    #: gaps between consecutive finished cells of one design, in seconds
    cell_gaps: List[float] = field(default_factory=list)
    #: the cycle (cold pass and its warm passes) this pass ran in
    cycle: int = 0
    #: host speed scale of that cycle (see :func:`scale_passes`)
    scale: float = 1.0


def study(cache_dir: pathlib.Path, seed: int) -> Study:
    """Run one full study against ``cache_dir``; time it, digest its answers."""
    from repro.experiments import run_campaign
    from repro.platforms import ALL_PLATFORMS, get_platform
    from repro.workloads.campaign import run_workload_campaign

    stamps: List[Tuple[int, float]] = []
    progress = lambda done, total, record: stamps.append((done, time.monotonic()))  # noqa: E731
    reference = get_platform("j90")
    others = [p for p in ALL_PLATFORMS if p.name != reference.name]
    cpu0, t0 = time.process_time(), time.monotonic()
    opal = run_campaign(reference=reference, candidates=list(ALL_PLATFORMS), seed=seed,
                        cache_dir=cache_dir, progress=progress)
    families = [
        run_workload_campaign(name, reference, servers=SERVERS, candidates=others,
                              seed=seed, cache_dir=cache_dir, progress=progress)
        for name in FAMILIES
    ]
    wall, cpu = time.monotonic() - t0, time.process_time() - cpu0
    answers = {
        "opal": {
            "params": dataclasses.asdict(opal.calibration.params),
            "predictions": {label: {name: list(s.times) for name, s in series.items()}
                            for label, series in opal.predictions.items()},
        },
    }
    for report in families:
        answers[report.family] = {
            "params": dataclasses.asdict(report.calibration.params),
            "rows": report.rows,
            "predictions": {name: {label: list(s.times) for label, s in per.items()}
                            for name, per in report.predictions.items()},
        }
    gaps = [b - a for (_, a), (done, b) in zip(stamps, stamps[1:]) if done > 1]
    caches = [opal.cache_stats] + [r.cache_stats for r in families]
    return Study(
        digest=json.dumps(answers, sort_keys=True),
        simulations=opal.simulations_run + sum(r.simulations_run for r in families),
        loaded=sum(c.hits for c in caches),
        wall_s=wall,
        cpu_s=cpu,
        cell_gaps=gaps,
    )


def fresh(path: pathlib.Path) -> pathlib.Path:
    """An empty directory at ``path``."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_setups(workdir: pathlib.Path, seed: int,
                 speed: hostspeed.SpeedLog) -> List[Tuple[float, float]]:
    """(spawn, warm-up study done) of ``SETUPS`` fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(common.ROOT / "src"), str(common.ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = []
    for k in range(SETUPS):
        cache = fresh(workdir / f"setup-{k}")
        speed.burst()
        t0 = time.monotonic()
        subprocess.run(
            [sys.executable, "-m", "perfbench.campaign_wl", "--warmup", str(cache),
             "--seed", str(seed)],
            check=True, env=env, cwd=str(common.ROOT), timeout=170,
            stdout=subprocess.DEVNULL,
        )
        out.append((t0, time.monotonic()))
        shutil.rmtree(cache, ignore_errors=True)
    speed.burst()
    return out


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
@dataclass
class Passes:
    """Cold and warm passes of one session, with their time windows."""

    cold: List[Study] = field(default_factory=list)
    warm: List[Study] = field(default_factory=list)
    windows: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=lambda: {"cold": [], "warm": []})
    #: (start, end) of every cycle: a cold pass and the warm passes after it
    cycles: List[Tuple[float, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0


def run_passes(workdir: pathlib.Path, seed: int, seconds: float, reference: str,
               speed: hostspeed.SpeedLog, min_passes: int = MIN_PASSES) -> Passes:
    """Alternate a cold pass with warm passes worth a third of its time.

    Runs until ``seconds`` of study time and ``min_passes`` cold passes,
    with a host-speed burst before and after every cycle.
    A pass that raises or whose answers differ from ``reference`` (the
    warm-up study's digest) counts as a failure; after three raised
    passes the session stops.
    """
    out = Passes()
    cache = workdir / "cache"
    warm_per_cold = (1 - COLD_SHARE) / COLD_SHARE
    raised = 0

    def attempt(phase: str) -> Optional[Study]:
        nonlocal raised
        out.attempted += 1
        gc.collect()  # no garbage of the previous pass is collected inside this one
        t0 = time.monotonic()
        try:
            result = study(cache, seed)
        except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
            out.failures.append(f"{phase} pass raised {type(exc).__name__}: {exc}")
            raised += 1
            return None
        out.windows[phase].append((t0, time.monotonic()))
        result.cycle = len(out.cycles)
        (out.cold if phase == "cold" else out.warm).append(result)
        want = SIMULATIONS if phase == "cold" else 0
        if result.simulations != want:
            out.failures.append(
                f"{phase} pass simulated {result.simulations} runs, expected {want}")
        elif result.digest != reference:
            out.failures.append(f"{phase} pass answers differ from the warm-up study")
        return result

    spent = 0.0
    speed.burst()
    while (spent < seconds or len(out.cold) < min_passes) and raised < 3:
        fresh(cache)
        start = time.monotonic()
        cold = attempt("cold")
        if cold is None:
            continue
        spent += cold.wall_s
        warm_spent = 0.0
        while warm_spent < warm_per_cold * cold.wall_s and raised < 3:
            warm = attempt("warm")
            if warm is not None:
                warm_spent += warm.wall_s
        spent += warm_spent
        out.cycles.append((start, time.monotonic()))
        speed.burst()
    return out


def scale_passes(p: Passes, speed: hostspeed.SpeedLog) -> None:
    """Give every pass the host speed scale of its cycle."""
    scales = [speed.scale([window])[0] for window in p.cycles]
    for s in p.cold + p.warm:
        s.scale = scales[s.cycle]


def cpu_us_per_cell(p: Passes, scaled: bool = True) -> float:
    """Study-process CPU per design cell over one median cold and warm pass,
    at nominal host speed (or as measured)."""
    cpu = lambda s: s.cpu_s * (s.scale if scaled else 1.0)  # noqa: E731
    return 1e6 * (
        common.median(cpu(s) for s in p.cold) + common.median(cpu(s) for s in p.warm)
    ) / (2 * DESIGN_CELLS)


def e2e_metrics(p: Passes) -> Dict[str, float]:
    """Cells per second, per-cell latency and CPU per cell, per phase."""
    values: Dict[str, float] = {}
    for phase, alias, passes in (("cold", "lo", p.cold), ("warm", "hi", p.warm)):
        values[f"cells_per_s.{phase}"] = DESIGN_CELLS / common.median(s.wall_s for s in passes)
        gaps = [g for s in passes for g in s.cell_gaps]
        values[f"p50_ms.{alias}"] = 1e3 * common.percentile(gaps, 0.5)
        values[f"p99_ms.{alias}"] = 1e3 * common.tail(gaps, 0.99)[0]
    values["cpu_us_per_op"] = cpu_us_per_cell(p)
    return values


def phase_lines(p: Passes) -> List[str]:
    """Per-phase sample counts and workload properties."""
    lines = []
    for phase, passes in (("cold", p.cold), ("warm", p.warm)):
        gaps = sum(len(s.cell_gaps) for s in passes)
        walls = ", ".join(f"{s.wall_s:.3f} x{s.scale:.2f}" for s in passes[:12])
        lines.append(
            f"{phase}: {len(passes)} passes, {gaps} per-cell samples "
            f"({common.beyond(gaps, 0.99)} beyond p99); study wall s and speed scale: "
            f"{walls}"
            + (" ..." if len(passes) > 12 else ""))
        if passes:
            lines.append(
                f"property: a {phase} pass simulates {passes[0].simulations} runs and "
                f"loads {passes[0].loaded} cache entries for its {DESIGN_CELLS} design cells")
    return lines


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def setup_lines(setups: List[Tuple[float, float]],
                speed: hostspeed.SpeedLog) -> Tuple[float, List[str]]:
    """``setup_s`` (median set-up at nominal speed) and its report line."""
    measured = [b - a for a, b in setups]
    scaled = [s * speed.scale([w])[0] for w, s in zip(setups, measured)]
    return common.median(scaled), [
        "setup_s samples at nominal speed: " + ", ".join(f"{s:.3f}" for s in scaled)
        + "; as measured: " + ", ".join(f"{s:.3f}" for s in measured)]


def run(name: str, seed: int, seconds: float, trace: bool,
        workdir: pathlib.Path) -> common.RunResult:
    """One benchmark run of the campaign workload."""
    study_cpus = common.cpu_split()[1]  # the CPUs a server gets
    os.sched_setaffinity(0, study_cpus)
    speed = hostspeed.SpeedLog(study_cpus)
    setups = timed_setups(workdir, seed, speed)
    reference = study(fresh(workdir / "warmup"), seed)  # in-process warm-up
    lines = [f"workload {name}: {DESIGN_CELLS} design cells, {SIMULATIONS} simulated "
             f"runs per cold study; serial"]
    if trace:
        from . import campaign_trace

        return campaign_trace.run(workdir, seed, seconds, reference.digest, lines,
                                  setups, speed)
    steal0 = common.host_cpu()
    passes = run_passes(workdir, seed, seconds, reference.digest, speed)
    steal = common.steal_pct(steal0, common.host_cpu())
    scale_passes(passes, speed)
    values = e2e_metrics(passes)
    values["setup_s"], setup_report = setup_lines(setups, speed)
    values["rss_mb"] = common.peak_rss_mb(os.getpid())
    lines += setup_report + phase_lines(passes) + [
        f"cpu_us_per_op {values['cpu_us_per_op']:.1f} at nominal speed, "
        f"{cpu_us_per_cell(passes, scaled=False):.1f} as measured",
        f"validity: host.steal_pct {steal:.2f}",
        f"accounting: attempted {passes.attempted} passes, failed {len(passes.failures)}",
        *(f"check: {f}" for f in passes.failures),
    ]
    return common.RunResult(not passes.failures, passes.attempted, len(passes.failures),
                            values, lines)


def main() -> int:
    """One stand-alone set-up: import the study and run the warm-up pass."""
    parser = argparse.ArgumentParser(prog="python -m perfbench.campaign_wl")
    parser.add_argument("--warmup", required=True, type=pathlib.Path)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    result = study(args.warmup, args.seed)
    return 0 if result.simulations == SIMULATIONS else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own helpers.

Run from the repository root: ``python -m pytest -q perfbench/tests``.
The two ``test_a_run_prints_every_name_in_benchmark_json`` cases run
the benchmark once each, untraced and traced (about a minute together).
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, serve_wl  # noqa: E402


def test_due_time_latency_against_a_fake_clock():
    # due at t0 + 0.0 / 0.5 / 1.0; the second request was sent late,
    # the third never answered
    t0 = 100.0
    dues = [0.0, 0.5, 1.0]
    received = [100.004, 100.530, None]
    lat = common.due_latencies(t0, dues, received)
    assert lat == pytest.approx([0.004, 0.030])


def test_tail_quantile_is_the_repository_percentile():
    from repro.obs.query import percentile

    rng = random.Random(7)
    values = [rng.expovariate(1.0) for _ in range(1011)]
    for frac in (0.5, 0.9, 0.99):
        value, support = common.tail(values, frac)
        assert value == percentile(values, frac)
        assert support == sum(1 for v in values if v > value)


def test_tail_requires_ten_samples_beyond():
    # nearest rank: 951 samples leave 10 beyond the p99 rank, 950 only 9
    values = list(range(951))
    value, support = common.tail(values, 0.99)
    assert support == 10 and value == 940
    with pytest.raises(ValueError):
        common.tail(values[:950], 0.99)


def test_proc_stat_cpu_parsing_handles_parenthesised_names():
    fields = ["S"] + [str(i) for i in range(4, 53)]
    fields[11], fields[12] = "250", "50"  # utime, stime (fields 14, 15)
    text = "4242 (my (odd) name) " + " ".join(fields) + "\n"
    assert common.parse_proc_stat_cpu(text, 100.0) == pytest.approx(3.0)


def test_proc_stat_cpu_of_a_live_process():
    assert common.process_cpu_s(subprocess.os.getpid()) > 0.0


def test_host_steal_parsing():
    before = common.parse_host_cpu("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3\n")
    after = common.parse_host_cpu("cpu  200 0 100 1600 20 0 10 70 9 0\n")
    assert before == (35, 1000)
    assert common.steal_pct(before, after) == pytest.approx(3.5)


def test_response_id_of_success_and_error_lines():
    ok = b'{"id":"lo-c3-17","result":{"kind":"predict"},"status":200,"v":1}'
    err = b'{"error":{"reason":"shed:rate"},"id":"hi-c0-2","status":429,"v":1}'
    assert serve_wl.response_id(ok) == "lo-c3-17"
    assert serve_wl.response_id(err) == "hi-c0-2"


def _judged(raw_answers, oracle):
    """judge() over one timed round whose answers are ``raw_answers``."""
    wl = serve_wl.WORKLOADS["serve-sweep"]
    envs = [{"id": f"lo0-c0-{i}", "kind": "sweep", "query": {"calibrated": False}}
            for i in range(len(raw_answers))]
    phase = serve_wl.Phase.__new__(serve_wl.Phase)
    phase.name, phase.kind, phase.envelopes = "lo0", "lo", envs
    phase.dues, phase.lines = [0.0] * len(envs), []
    got = serve_wl.Drive(10.0, [10.0] * len(envs), [10.001] * len(envs), raw_answers)
    traffic = serve_wl.Traffic(warm=None, timed=[phase])
    return serve_wl.judge(wl, traffic, {"lo0": got}, oracle, 1.0, 0)


def test_a_shed_answer_is_a_failure_not_a_wrong_answer():
    ok = b'{"id":"lo0-c0-0","result":{"kind":"sweep"},"status":200,"v":1}'
    shed = b'{"error":{"reason":"shed:rate"},"id":"lo0-c0-1","status":429,"v":1}'
    oracle = {"lo0-c0-0": ok.decode(), "lo0-c0-1": "the oracle would have answered"}
    outcome = _judged([ok, shed], oracle)
    assert (outcome.attempted, outcome.failed, outcome.correct) == (2, 1, True)
    wrong = b'{"id":"lo0-c0-0","result":{"kind":"other"},"status":200,"v":1}'
    outcome = _judged([wrong, shed], oracle)
    assert (outcome.failed, outcome.correct) == (1, False)


def test_host_speed_scale_uses_the_units_in_and_beside_a_window():
    from perfbench import hostspeed

    log = hostspeed.SpeedLog([0])
    unit = hostspeed.NOMINAL_UNIT_S
    # (end time, CPU s): at nominal speed until t=10, half speed after
    log.samples = [(t / 10, unit) for t in range(100)] + [
        (10 + t / 10, 2 * unit) for t in range(1, 100)]
    assert log.scale([(2.0, 4.0)]) == (pytest.approx(1.0), 21 + 6)
    assert log.scale([(15.0, 16.0)])[0] == pytest.approx(0.5)
    assert log.scale([(3.0, 3.0), (15.0, 15.0)])[0] == pytest.approx(2 / 3)
    with pytest.raises(RuntimeError):
        log.scale([(50.0, 60.0)])


def test_a_burst_logs_units_on_the_measured_cpus():
    from perfbench import hostspeed

    home = os.sched_getaffinity(0)
    log = hostspeed.SpeedLog(home)
    log.burst(0.02)
    assert log.samples and all(dt > 0 for _, dt in log.samples)
    assert os.sched_getaffinity(0) == home


def test_metric_names_follow_the_grammar():
    spec = common.load_benchmark(ROOT)
    names = [row["name"] for key in ("end_to_end", "per_layer") for row in spec[key]]
    assert names and len(names) == len(set(names))
    for name in names + [w["name"] for w in spec["workloads"]]:
        assert common.valid_metric_name(name), name
    assert not common.valid_metric_name("p99 ms")
    assert not common.valid_metric_name("latency/ms")


def test_result_line_refuses_a_missing_metric():
    with pytest.raises(KeyError):
        common.result_line(True, 1, 0, {"a": 1.0}, {"a": "ms", "b": "s"})


def test_phase_lengths_support_a_p99():
    for wl in serve_wl.WORKLOADS.values():
        for seconds in (1, 24):
            durations = wl.durations(seconds)
            assert sum(durations.values()) >= min(seconds, 1) - 1e-9
            for phase, rate in wl.rates:
                assert durations[phase] * rate >= serve_wl.PHASE_SAMPLES - 1e-6


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_prints_every_name_in_benchmark_json(trace):
    spec = common.load_benchmark(ROOT)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-sweep", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(common.metric_units(spec, bool(trace)))


def test_self_time_subtracts_children_and_windows_select_by_start():
    from perfbench.tracing import SpanIndex

    index = SpanIndex([
        ("outer", 0.0, 10.0, 0, 1, None),
        ("inner", 1.0, 4.0, 1, 2, None),
        ("inner", 5.0, 6.0, 1, 3, None),
        ("outer", 20.0, 21.0, 0, 4, None),
    ])
    assert index.total(["outer"], [(0.0, 5.0)]) == (1, pytest.approx(6.0))
    assert index.total(["outer"], [(0.0, 5.0)], self_only=False) == (1, pytest.approx(10.0))
    assert index.total(["inner", "outer"])[0] == 4
    assert [s[4] for s in index.select(["outer"], [(15.0, 30.0), (-1.0, 0.5)])] == [1, 4]


def test_tracer_parents_nested_calls_and_coroutines():
    import asyncio
    from perfbench.tracing import Tracer

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)

    async def work(x):
        return outer(x)

    assert asyncio.run(tracer.wrap("task", work)(1)) == 4
    spans = {s[0]: s for s in tracer.spans}
    assert spans["inner"][3] == spans["outer"][4]
    assert spans["outer"][3] == spans["task"][4]
    assert spans["task"][3] == 0

"""CHAOS — overhead of the resilient middleware and the cost of faults.

Measures the reduced design on the simulated J90 three ways: with the
plain Sciddle client, with the resilient client on a perfectly healthy
cluster (zero-fault: sequence numbers, health bookkeeping and deadline
arming, but no retries), and under an actual fault spec.  Contracts:
the zero-fault resilient runs reproduce the plain records bit for bit,
and their real-time overhead stays within budget.  On a quiet machine
the measured overhead is ~4%; the hard assert allows 10% so a noisy CI
neighbour cannot flake the job (each configuration is timed as the
minimum over ROUNDS interleaved passes, which discounts one-off
scheduler hiccups but not sustained load).
"""

import time

from _emit import emit, record
from repro.experiments import reduced_design
from repro.netsim.faults import FaultSpec
from repro.platforms import CRAY_J90
from repro.workloads.campaign import run_workload_design

#: switches to the resilient stub but injects nothing
ZERO_FAULT = FaultSpec(rpc_timeout=30.0)
CHAOS = FaultSpec.parse("drop=0.01,delay=0.02,delay_scale=0.05,timeout=10")

#: zero-fault resilience budget (fraction of plain runtime); ~4% quiet
OVERHEAD_BUDGET = 0.10
#: timing passes per configuration; min-of-N suppresses timer noise
ROUNDS = 3


def run_three_ways():
    design = reduced_design()
    configs = [
        ("plain client", None),
        ("resilient, zero faults", ZERO_FAULT),
        ("resilient, drop=1% delay=2%", CHAOS),
    ]
    timings = {label: float("inf") for label, _ in configs}
    records = {}
    # interleave the configurations so slow drift (thermal, background
    # load) hits all three equally instead of biasing the ratio
    for _ in range(ROUNDS):
        for label, faults in configs:
            t0 = time.perf_counter()
            records[label], _ = run_workload_design(design, CRAY_J90, faults=faults)
            timings[label] = min(timings[label], time.perf_counter() - t0)

    return (
        design,
        timings,
        records["plain client"],
        records["resilient, zero faults"],
        records["resilient, drop=1% delay=2%"],
    )


def render(design, timings, plain_records, chaos_records) -> str:
    overhead = timings["resilient, zero faults"] / timings["plain client"] - 1
    virtual_plain = sum(r.wall_stats.mean for r in plain_records)
    virtual_chaos = sum(r.wall_stats.mean for r in chaos_records)
    lines = [
        f"reduced design: {len(design)} cells on the simulated J90, "
        f"min of {ROUNDS} interleaved passes",
        "",
    ]
    for label, seconds in timings.items():
        lines.append(f"  {label:<30s} {seconds * 1e3:9.1f} ms")
    lines.extend(
        [
            "",
            f"zero-fault resilience overhead: {100 * overhead:+.1f}% real time "
            f"(budget {100 * OVERHEAD_BUDGET:.0f}%), simulated results bit-identical",
            f"virtual cost of the fault spec: {virtual_plain:.3f} s -> "
            f"{virtual_chaos:.3f} s summed over the design "
            f"({100 * (virtual_chaos / virtual_plain - 1):+.1f}%)",
        ]
    )
    return "\n".join(lines)


def test_bench_chaos_overhead(benchmark, artifact):
    design, timings, plain_records, resilient_records, chaos_records = (
        benchmark.pedantic(run_three_ways, rounds=1, iterations=1)
    )
    artifact(
        "CHAOS_overhead", render(design, timings, plain_records, chaos_records)
    )
    emit(
        "CHAOS_overhead",
        [record(label, "wall_time", seconds, "s")
         for label, seconds in timings.items()]
        + [record(
            "zero-fault", "resilience_overhead",
            timings["resilient, zero faults"] / timings["plain client"] - 1,
            "fraction",
        )],
    )

    # the resilient stub with faults disabled is a bit-exact drop-in
    for a, b in zip(plain_records, resilient_records):
        assert a.breakdown == b.breakdown
        assert a.wall_stats == b.wall_stats
    # faults cost virtual time, never correctness (a low-traffic cell
    # may dodge every 1% coin flip, but the design as a whole cannot)
    for a, b in zip(plain_records, chaos_records):
        assert b.wall_stats.mean >= a.wall_stats.mean
    assert sum(r.wall_stats.mean for r in chaos_records) > sum(
        r.wall_stats.mean for r in plain_records
    )
    overhead = timings["resilient, zero faults"] / timings["plain client"] - 1
    assert overhead < OVERHEAD_BUDGET, (
        f"zero-fault resilience overhead {100 * overhead:.1f}% exceeds "
        f"{100 * OVERHEAD_BUDGET:.0f}%"
    )

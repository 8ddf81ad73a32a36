"""PERF — declarative workload spec compilation throughput.

Every family-generic code path — campaign cell keying, serve query
parsing, loadgen schedule construction — goes through the same spec
pipeline: parse raw params against the family schema, canonicalize,
content-address (``spec_digest``) and lower to phase steps + closed-form
terms.  A slowdown here taxes every query of a family-mix serve
campaign, so the pipeline gets its own perf gate.

``PERF_workload_compile`` measures full pipeline passes per second
(min-of-``ROUNDS``, higher is better) over a mixed pool of collective
and hpl specs.  Correctness is asserted alongside the timing: digests
are stable across rounds, and each compile yields a non-empty program
whose terms carry positive communication volume.

``PERF_sweep_evaluation`` gates the layer a served sweep spends its
compute in: the 57 distinct uncalibrated 32-point sweeps of perfbench's
serve-sweep mix (36 opal, 12 collective, 9 hpl) evaluated through
``service._evaluate_jobs``, in sweeps per second (min of ``ROUNDS``
round times).  Every round must answer the same bytes.
"""

import itertools
import time

from _emit import emit, record
from repro.core.parameters import ModelPlatformParams
from repro.platforms import get_platform
from repro.serve import api, service
from repro.serve.calibstore import SOURCE_KEY_DATA
from repro.units import MICROSECOND
from repro.workloads import get_family, spec_digest

#: (family, raw params) pool, mixed shapes of both shipped families
SPEC_POOL = [
    ("collective", {"pattern": "barrier"}),
    ("collective", {"pattern": "broadcast", "message_bytes": 65536}),
    ("collective", {"pattern": "allreduce", "message_bytes": 4096, "rounds": 8}),
    ("collective", {"pattern": "alltoall", "message_bytes": 16384, "fanout": 4}),
    ("hpl", {"matrix_n": 256, "block": 64}),
    ("hpl", {"matrix_n": 512, "block": 32}),
]
#: pipeline passes per timed round
PASSES = 300
ROUNDS = 3
SERVERS = 4


def compile_pass():
    """One full pipeline pass over the pool; returns digests and sizes."""
    digests = []
    steps_total = 0
    for family_name, raw in SPEC_POOL:
        family = get_family(family_name)
        spec = family.spec_from_params(dict(raw))
        digests.append(spec_digest(spec))
        steps = family.compile(spec, SERVERS)
        terms = family.terms(spec, SERVERS)
        assert steps and terms.comm_bytes > 0
        steps_total += len(steps)
    return digests, steps_total


def render(rate, steps_total) -> str:
    return "\n".join(
        [
            f"PERF_workload_compile) {len(SPEC_POOL)} specs x {PASSES} passes, "
            f"min of {ROUNDS}",
            "",
            f"  parse+digest+compile+terms: {rate:10.1f} passes/s "
            f"({steps_total} phase steps per pass)",
        ]
    )


def test_perf_workload_compile(artifact):
    reference, steps_total = compile_pass()
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(PASSES):
            digests, _ = compile_pass()
        times.append(time.perf_counter() - start)
        # content addressing is deterministic across rounds
        assert digests == reference

    rate = PASSES / min(times)
    artifact("PERF_workload_compile", render(rate, steps_total))
    emit(
        "PERF_workload_compile",
        [record("collective+hpl", "compile_throughput", rate, "passes/s")],
    )


#: perfbench's serve-sweep mix: loadgen's platforms, molecules, opal
#: axes and family example specs, every sweep over servers 1..32
SWEEP_PLATFORMS = ("j90", "t3e", "fast-cops")
SWEEP_SERVERS = list(range(1, 33))
#: timed passes over the 57 sweeps per round
SWEEP_PASSES = 20


def sweep_jobs():
    """The mix's distinct sweeps as ``_evaluate_jobs`` jobs."""
    queries = []
    for platform, molecule, update, cutoff in itertools.product(
        SWEEP_PLATFORMS, ("small", "medium", "large"), (1, 10), (None, 10.0)
    ):
        queries.append({"platform": platform, "molecule": molecule,
                        "update_interval": update, "cutoff": cutoff})
    for name in ("collective", "hpl"):
        for platform, spec in itertools.product(
            SWEEP_PLATFORMS, get_family(name).example_params()
        ):
            queries.append({"platform": platform, "family": name,
                            "spec": dict(spec)})
    jobs = []
    for raw in queries:
        query = api.parse_query({**raw, "servers": SWEEP_SERVERS}, "sweep")
        platform = get_platform(query.platform)
        params = (
            ModelPlatformParams.from_spec(platform)
            if query.family == "opal"
            else get_family(query.family).key_data_params(platform)
        )
        jobs.append(("sweep", query, params, SOURCE_KEY_DATA))
    return jobs


def test_perf_sweep_evaluation(artifact):
    jobs = sweep_jobs()
    families = [query.family for _, query, _, _ in jobs]
    assert len(jobs) == 57
    assert (families.count("opal"), families.count("collective"),
            families.count("hpl")) == (36, 12, 9)
    reference = api.canonical(service._evaluate_jobs(jobs))
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(SWEEP_PASSES):
            answers = service._evaluate_jobs(jobs)
        times.append(time.perf_counter() - start)
        assert api.canonical(answers) == reference

    rate = SWEEP_PASSES * len(jobs) / min(times)
    artifact(
        "PERF_sweep_evaluation",
        "\n".join([
            f"PERF_sweep_evaluation) {len(jobs)} distinct 32-point sweeps "
            f"x {SWEEP_PASSES} passes, min of {ROUNDS}",
            "",
            f"  _evaluate_jobs: {rate:10.1f} sweeps/s "
            f"({1.0 / rate / MICROSECOND:.1f} us per sweep)",
        ]),
    )
    emit(
        "PERF_sweep_evaluation",
        [record("opal+collective+hpl", "sweep_throughput", rate, "sweeps/s")],
    )

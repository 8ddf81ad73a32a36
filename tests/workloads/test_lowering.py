"""The lowering oracle: closed forms over a server vector are bit-exact.

A family's ``lower(spec, servers)`` must give, at every server count,
the floats of the per-cell reference: the compiled program's sum
(``WorkloadFamily.terms``) for families that compile to phase steps,
and the family's own ``terms`` for Opal.  The vector evaluators must
give the scalar totals.  Floats are compared through ``float.hex``, so
``-0.0``/``0.0`` and every last bit count.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.model import OpalPerformanceModel, terms_breakdown, terms_totals
from repro.core.parameters import (
    EXACT_INT_LIMIT,
    TERM_NAMES,
    ApplicationParams,
    FamilyTermColumns,
    ModelPlatformParams,
)
from repro.errors import ModelError
from repro.opal.complexes import NAMED_COMPLEXES, get_complex
from repro.platforms import PLATFORMS
from repro.workloads import family_names, get_family
from repro.workloads.base import ClosedFormFamily, WorkloadFamily
from repro.workloads.collective import PATTERNS

SERVERS = tuple(range(1, 65))
#: wire server counts: the parser admits any integer >= 1
WIRE = (10**3, 10**5, 10**7)


def hexes(terms):
    return tuple(float(getattr(terms, name)).hex() for name in TERM_NAMES)


def reference_terms(family, spec, servers):
    """The per-cell reference the lowering must reproduce."""
    if isinstance(family, ClosedFormFamily):
        return WorkloadFamily.terms(family, spec, servers)  # the program sum
    return family.terms(spec, servers)


def oracle_specs(name):
    family = get_family(name)
    specs = [family.spec_from_params(raw) for raw in family.example_params()]
    return specs + list(family.campaign_specs())


def assert_lowering_exact(family, spec, servers):
    columns = family.lower(spec, servers)
    assert columns.servers == tuple(servers)
    for index, p in enumerate(servers):
        got = columns.terms_at(index)
        assert all(type(getattr(got, n)) is float for n in TERM_NAMES)
        assert hexes(got) == hexes(reference_terms(family, spec, p)), (spec, p)
        assert hexes(family.terms(spec, p)) == hexes(got), (spec, p)
    return columns


#: per-coefficient scale factors of two fitted-looking coefficient sets
FIT_SCALES = (
    (0.37, 2.9, 1.13, 0.61, 4.3, 0.29),
    (3.7, 0.23, 0.83, 2.21, 0.47, 1.9),
)


def coefficient_sets(family):
    """Key-data coefficients of every platform, plus two fitted-looking sets."""
    sets = [family.key_data_params(spec) for spec in PLATFORMS.values()]
    base = sets[0]
    for f in FIT_SCALES:
        sets.append(base.with_(
            a1=base.a1 * f[0], b1=base.b1 * f[1], a2=base.a2 * f[2],
            a3=base.a3 * f[3], a4=base.a4 * f[4], b5=base.b5 * f[5],
        ))
    return sets


# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", family_names())
def test_columns_equal_the_reference_at_every_count(name):
    family = get_family(name)
    for spec in oracle_specs(name):
        assert_lowering_exact(family, spec, SERVERS)


@pytest.mark.parametrize("name", family_names())
def test_vector_totals_equal_scalar_totals(name):
    family = get_family(name)
    for spec in oracle_specs(name):
        columns = family.lower(spec, SERVERS)
        for params in coefficient_sets(family):
            totals = terms_totals(params, columns).tolist()
            expected = [
                terms_breakdown(params, columns.terms_at(i)).total
                for i in range(len(SERVERS))
            ]
            assert [t.hex() for t in totals] == [t.hex() for t in expected]


# ---- the property, over in-bounds specs -------------------------------
servers_vectors = st.lists(
    st.one_of(st.integers(1, 64), st.sampled_from(WIRE)), min_size=1, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(
    pattern=st.sampled_from(PATTERNS),
    message_bytes=st.integers(1, 1 << 24),
    fanout=st.integers(2, 64),
    rounds=st.integers(1, 12),
    servers=servers_vectors,
)
# schema extremes; 10_000 rounds only at small counts, where the
# reference program stays at 10-20k steps
@example(pattern="alltoall", message_bytes=1 << 24, fanout=2, rounds=1,
         servers=[1, *WIRE])
@example(pattern="broadcast", message_bytes=(1 << 24) - 1, fanout=3, rounds=1,
         servers=list(WIRE))
@example(pattern="allreduce", message_bytes=1, fanout=64, rounds=1,
         servers=list(WIRE))
@example(pattern="allreduce", message_bytes=1 << 24, fanout=2, rounds=10_000,
         servers=[1, 2])
@example(pattern="barrier", message_bytes=1, fanout=64, rounds=10_000,
         servers=[1, 63])
def test_collective_lowering_property(pattern, message_bytes, fanout, rounds, servers):
    family = get_family("collective")
    spec = family.spec_from_params({
        "pattern": pattern, "message_bytes": message_bytes,
        "fanout": fanout, "rounds": rounds,
    })
    assert_lowering_exact(family, spec, servers)


@st.composite
def hpl_shapes(draw):
    matrix_n = draw(st.integers(32, 4096))
    return matrix_n, draw(st.integers(8, min(1024, matrix_n)))


@settings(max_examples=60, deadline=None)
@given(shape=hpl_shapes(), servers=servers_vectors)
@example(shape=(32, 8), servers=[1, 64])
@example(shape=(4096, 8), servers=[1, 3, 10**7])
@example(shape=(4096, 1024), servers=list(WIRE))
@example(shape=(33, 32), servers=[7, 10**5])
def test_hpl_lowering_property(shape, servers):
    family = get_family("hpl")
    spec = family.spec_from_params({"matrix_n": shape[0], "block": shape[1]})
    assert_lowering_exact(family, spec, servers)


# ---- the 2**53 guard ---------------------------------------------------
@pytest.mark.parametrize("servers", [1000, 10**5])
def test_totals_past_2_53_fall_back_to_the_program_sum(servers):
    # Python 3.10/3.11's naive sum misses the exact comm_bytes total here
    family = get_family("collective")
    spec = family.spec_from_params({
        "pattern": "alltoall", "message_bytes": (1 << 24) - 1, "rounds": 10_000,
    })
    assert family.exact(spec, 1) and not family.exact(spec, servers)
    assert max(family.integer_totals(spec, servers)) > EXACT_INT_LIMIT
    # a vector mixing exact and fallback counts keeps each on its own path
    columns = family.lower(spec, (1, servers))
    for index, p in enumerate((1, servers)):
        assert hexes(columns.terms_at(index)) == hexes(
            WorkloadFamily.terms(family, spec, p)
        )


def test_server_counts_below_one_raise_model_error():
    for name in family_names():
        family = get_family(name)
        spec = family.spec_from_params(dict(family.example_params()[0]))
        with pytest.raises(ModelError):
            family.lower(spec, (1, 0))
        if isinstance(family, ClosedFormFamily):
            with pytest.raises(ModelError):
                family.terms(spec, 0)


def test_negative_counts_raise_model_error():
    matrix = np.zeros((len(TERM_NAMES), 2))
    matrix[3, 1] = -1.0
    with pytest.raises(ModelError, match="comm_bytes"):
        FamilyTermColumns((1, 2), matrix)
    with pytest.raises(ModelError):
        FamilyTermColumns((1, 2), np.zeros((len(TERM_NAMES), 3)))


# ---- v1: equations (3)-(10) over the server vector --------------------
V1_SERVERS = list(SERVERS) + list(WIRE) + [EXACT_INT_LIMIT]


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_v1_execution_times_equal_per_p_breakdowns(platform):
    model = OpalPerformanceModel(ModelPlatformParams.from_spec(PLATFORMS[platform]))
    for molecule, cutoff, update, steps in itertools.product(
        sorted(NAMED_COMPLEXES), (None, 10.0), (1, 10), (1, 10, 97)
    ):
        app = ApplicationParams(
            molecule=get_complex(molecule), cutoff=cutoff,
            update_interval=update, steps=steps,
        )
        got = model.execution_times(app, V1_SERVERS)
        expected = [model.breakdown(app.with_(servers=p)).total for p in V1_SERVERS]
        assert [t.hex() for t in got] == [t.hex() for t in expected], app


def test_v1_counts_past_2_53_take_the_per_p_path():
    # Python divides the integers s / p exactly; float64 cannot past 2**53
    model = OpalPerformanceModel(ModelPlatformParams.from_spec(PLATFORMS["j90"]))
    big = EXACT_INT_LIMIT + 1
    for steps, servers in ((10, [1, 2, big]), (big + 2, [1, 3, 7])):
        app = ApplicationParams(molecule=get_complex("medium"), steps=steps)
        got = model.execution_times(app, servers)
        expected = [model.breakdown(app.with_(servers=p)).total for p in servers]
        assert [t.hex() for t in got] == [t.hex() for t in expected]
    with pytest.raises(ModelError):
        model.execution_times(app, [3, 0])

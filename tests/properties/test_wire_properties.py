"""Property-based test of the serve wire: a query ends in a 4xx or in JSON.

Every generated envelope goes through ``api.parse_request`` and, when
it parses as a predict or a sweep, through the batch evaluator with the
platform's key-data parameters (the uncalibrated path of
``PredictionService._resolve_jobs``).  It must end in a ``ServeError``
with a 4xx status or in a result whose canonical JSON holds no ``NaN``
or ``Infinity``.  Anything else is a 500 for every request in the batch.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import EXACT_INT_LIMIT, ModelPlatformParams
from repro.errors import ServeError
from repro.opal.complexes import NAMED_COMPLEXES
from repro.platforms import PLATFORMS, get_platform
from repro.serve import api
from repro.serve.calibstore import SOURCE_KEY_DATA
from repro.serve.service import _evaluate_jobs
from repro.workloads import get_family

#: Integers on both sides of 2**53, floats from subnormal to near the
#: top of the float range, and the values JSON cannot carry.
NUMBERS = st.one_of(
    st.integers(-3, 64),
    st.integers(EXACT_INT_LIMIT - 2, EXACT_INT_LIMIT + 2),
    st.integers(-(2**70), 2**70),
    st.floats(1e-320, 1.8e308),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.text(max_size=6), NUMBERS)
#: Nested junk for any field.
JUNK = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

SERVER_COUNTS = st.integers(1, 64) | st.integers(EXACT_INT_LIMIT - 2, EXACT_INT_LIMIT + 2)
CUTOFFS = st.none() | st.floats(1e-320, 1.8e308) | st.just(math.inf)


def _maybe_junk(strategy, junk):
    return strategy | JUNK if junk else strategy


def _field(spec):
    """Values within one family schema field's bounds."""
    if spec.kind == "str":
        return st.sampled_from(spec.choices) if spec.choices else st.text(max_size=6)
    if spec.kind == "int":
        return st.integers(int(spec.minimum), int(spec.maximum))
    return st.floats(spec.minimum, spec.maximum)


def _family_specs(name, junk=False):
    fields = get_family(name).fields
    return st.fixed_dictionaries(
        {}, optional={f.name: _maybe_junk(_field(f), junk) for f in fields}
    )


def _queries(kind, junk=False):
    """Opal and family queries; with ``junk``, any field may be malformed."""

    def field(strategy):
        return _maybe_junk(strategy, junk)

    servers = field(
        SERVER_COUNTS if kind == "predict" else st.lists(SERVER_COUNTS, min_size=1, max_size=6)
    )
    opal = st.fixed_dictionaries(
        {},
        optional={
            "platform": field(st.sampled_from(sorted(PLATFORMS))),
            "molecule": field(st.sampled_from(sorted(NAMED_COMPLEXES))),
            "servers": servers,
            "cutoff": field(CUTOFFS),
            "update_interval": field(st.integers(1, 50)),
            "steps": field(st.integers(1, 50)),
            "calibrated": field(st.booleans()),
        },
    )
    families = [
        st.fixed_dictionaries(
            {"family": st.just(name)},
            optional={
                "platform": field(st.sampled_from(sorted(PLATFORMS))),
                "servers": servers,
                "spec": field(_family_specs(name, junk)),
            },
        )
        for name in ("collective", "hpl")
    ]
    return st.one_of(opal, *families)


@st.composite
def well_formed(draw):
    kind = draw(st.sampled_from(["predict", "sweep"]))
    return {"v": 1, "id": "p", "client": "c", "kind": kind, "query": draw(_queries(kind))}


@st.composite
def malformed(draw):
    kind = draw(st.sampled_from(api.KINDS) | JUNK)
    envelope = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "v": st.just(1) | JUNK,
                "id": st.text(max_size=6) | JUNK,
                "client": st.text(min_size=1, max_size=6) | JUNK,
                "arrival": NUMBERS | JUNK,
                "deadline": NUMBERS | JUNK,
                "query": _queries(kind if kind in ("predict", "sweep") else "predict", junk=True)
                | JUNK,
            },
        )
    )
    envelope["kind"] = kind
    if draw(st.booleans()):
        # an unknown field, at the top level or inside the query
        target = envelope.get("query") if isinstance(envelope.get("query"), dict) else envelope
        target[draw(st.text(min_size=1, max_size=6))] = draw(JUNK)
    return envelope


def _reject_constant(token):
    raise AssertionError(f"a served answer holds the non-JSON number {token}")


def _key_data_params(query):
    platform = get_platform(query.platform)
    if query.family != "opal":
        return get_family(query.family).key_data_params(platform)
    return ModelPlatformParams.from_spec(platform)


def assert_wire_outcome(envelope):
    """A 4xx ``ServeError``, or a result that is plain JSON."""
    try:
        request = api.parse_request(envelope)
    except ServeError as exc:
        assert 400 <= exc.status < 500, (exc.status, exc.reason, envelope)
        return
    if request.query is None:
        return
    job = (request.kind, request.query, _key_data_params(request.query), SOURCE_KEY_DATA)
    (result,) = _evaluate_jobs([job])
    json.loads(api.canonical(result), parse_constant=_reject_constant)


@given(well_formed())
@settings(max_examples=150, deadline=None)
def test_well_formed_queries_answer_plain_json(envelope):
    assert_wire_outcome(envelope)


@given(malformed())
@settings(max_examples=150, deadline=None)
def test_malformed_envelopes_end_in_a_4xx_or_plain_json(envelope):
    assert_wire_outcome(envelope)

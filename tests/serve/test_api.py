"""Wire schema validation and the canonical JSON encoding."""

import asyncio
import json

import pytest

from repro.errors import ServeError
from repro.serve import api


def predict_envelope(**query):
    q = {"platform": "j90", "molecule": "medium", "servers": 4}
    q.update(query)
    return {"kind": "predict", "id": "r1", "client": "c0", "query": q}


class TestParseRequest:
    def test_minimal_predict(self):
        req = api.parse_request(predict_envelope())
        assert req.kind == "predict"
        assert req.client == "c0"
        assert req.query.platform == "j90"
        assert req.query.servers == 4
        assert req.arrival is None and req.deadline is None

    def test_ping_needs_no_query(self):
        req = api.parse_request({"kind": "ping", "id": "p"})
        assert req.kind == "ping" and req.query is None

    def test_sweep_defaults_to_paper_range(self):
        req = api.parse_request(
            {"kind": "sweep", "id": "s", "client": "c",
             "query": {"platform": "t3e", "molecule": "large"}}
        )
        assert req.query.servers == tuple(range(1, 8))

    def test_sweep_accepts_explicit_server_list(self):
        req = api.parse_request(
            {"kind": "sweep", "id": "s", "client": "c",
             "query": {"platform": "t3e", "molecule": "large",
                       "servers": [2, 4, 6]}}
        )
        assert req.query.servers == (2, 4, 6)

    def test_arrival_and_deadline_are_parsed(self):
        env = predict_envelope()
        env["arrival"] = 1.5
        env["deadline"] = 0.25
        req = api.parse_request(env)
        assert req.arrival == 1.5 and req.deadline == 0.25

    @pytest.mark.parametrize(
        "mutate, status, reason",
        [
            (lambda e: e.update(kind="frobnicate"), 400, "unknown-kind"),
            (lambda e: e.update(v=99), 400, "unsupported-version"),
            (lambda e: e.update(client=""), 400, "invalid-field"),
            (lambda e: e.update(deadline=-1), 400, "invalid-field"),
            (lambda e: e["query"].update(platform="vax"), 404, "unknown-platform"),
            (lambda e: e["query"].update(molecule="benzene"), 404, "unknown-molecule"),
            (lambda e: e["query"].update(servers=0), 400, "invalid-field"),
            (lambda e: e["query"].update(servers=True), 400, "invalid-field"),
            (lambda e: e["query"].update(cutoff=-3.0), 400, "invalid-field"),
            (lambda e: e["query"].update(wat=1), 400, "invalid-query"),
        ],
    )
    def test_invalid_requests_carry_status_and_reason(self, mutate, status, reason):
        env = predict_envelope()
        mutate(env)
        with pytest.raises(ServeError) as err:
            api.parse_request(env)
        assert err.value.status == status
        assert err.value.reason == reason

    def test_non_object_envelope_is_rejected(self):
        with pytest.raises(ServeError) as err:
            api.parse_request([1, 2, 3])
        assert err.value.status == 400


class TestComputeKey:
    def test_same_cell_different_servers_share_a_key(self):
        a = api.parse_request(predict_envelope(servers=1)).query
        b = api.parse_request(predict_envelope(servers=7)).query
        assert a.compute_key == b.compute_key

    def test_different_molecules_split_keys(self):
        a = api.parse_request(predict_envelope(molecule="small")).query
        b = api.parse_request(predict_envelope(molecule="large")).query
        assert a.compute_key != b.compute_key


class TestCanonical:
    def test_key_order_is_irrelevant(self):
        assert api.canonical({"b": 1, "a": 2}) == api.canonical({"a": 2, "b": 1})

    def test_round_trips_through_json(self):
        payload = api.ok_response("x", {"kind": "pong"})
        assert json.loads(api.canonical(payload)) == payload

    def test_no_whitespace(self):
        assert " " not in api.canonical({"a": [1, 2], "b": {"c": 3}})


class TestEnvelopes:
    def test_ok_response_shape(self):
        r = api.ok_response("id1", {"kind": "pong"})
        assert api.is_ok(r)
        assert r["v"] == api.WIRE_VERSION and r["id"] == "id1"

    def test_error_response_omits_duplicate_detail(self):
        r = api.error_response("id", 429, "shed:rate", "shed:rate")
        assert r["error"] == {"reason": "shed:rate"}
        assert not api.is_ok(r)

    def test_error_response_keeps_distinct_detail(self):
        r = api.error_response("id", 400, "invalid-field", "servers must be >= 1")
        assert r["error"]["detail"] == "servers must be >= 1"


def serve_one(envelope):
    """One envelope through a live service; its response, canonical and decoded."""
    from repro.serve import PredictionService, ServeConfig

    async def go():
        async with PredictionService(ServeConfig(rate=1e9, burst=10**6)) as service:
            return await service.submit(envelope)

    # an infinity would be encoded, but is not JSON: refuse it on decode
    return json.loads(api.canonical(asyncio.run(go())), parse_constant=_not_json)


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def family_envelope(kind, family, servers):
    query = {"platform": "j90", "family": family, "servers": servers}
    return {"kind": kind, "id": "r1", "client": "c0", "query": query}


def sweep_envelope(servers):
    return dict(predict_envelope(servers=servers), kind="sweep")


class TestIntegerBound:
    """Wire integers stop at 2**53, the largest count float64 holds exactly."""

    @pytest.mark.parametrize(
        "envelope",
        [
            # past float range: the model raised OverflowError (a 500)
            predict_envelope(servers=10**400),
            sweep_envelope([1, 10**400]),
            family_envelope("predict", "collective", 10**400),
            family_envelope("sweep", "hpl", [1, 10**400]),
            predict_envelope(steps=10**400),
            predict_envelope(update_interval=10**400),
            # inside float range: the model answered an infinity (not JSON)
            family_envelope("predict", "collective", 10**305),
            family_envelope("predict", "hpl", 10**305),
            predict_envelope(servers=10**308),
            # the first integer past the bound
            predict_envelope(servers=2**53 + 1),
        ],
        ids=[
            "v1-servers", "v1-sweep-servers", "collective-servers", "hpl-sweep-servers",
            "v1-steps", "v1-update-interval", "collective-servers-1e305",
            "hpl-servers-1e305", "v1-servers-1e308", "v1-servers-2**53+1",
        ],
    )
    def test_an_integer_past_the_bound_is_a_400(self, envelope):
        response = serve_one(envelope)
        assert response["status"] == 400
        assert response["error"]["reason"] == "invalid-field"
        assert "2**53" in response["error"]["detail"]

    @pytest.mark.parametrize(
        "envelope",
        [
            predict_envelope(servers=2**53),
            sweep_envelope([1, 2**53]),
            predict_envelope(servers=7, steps=2**53),
            predict_envelope(servers=7, update_interval=2**53),
            family_envelope("predict", "collective", 2**53),
            family_envelope("sweep", "hpl", [1, 2**53]),
        ],
        ids=["v1-servers", "v1-sweep", "v1-steps", "v1-update-interval",
             "collective-servers", "hpl-sweep"],
    )
    def test_the_bound_itself_answers_finite_numbers(self, envelope):
        assert serve_one(envelope)["status"] == 200

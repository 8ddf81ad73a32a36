"""Typed request/response schema and the stable JSON wire format.

One prediction query answers the paper's Section 4 question — "how fast
would Opal run on platform X with p servers?" — as a service call.  The
wire format is versioned, canonical JSON: objects are encoded with
sorted keys and no whitespace, so two semantically identical responses
are byte-identical, which is what lets the benchmarks and the CI smoke
job diff batched against unbatched serving bit for bit.

Request envelope (one JSON object per request)::

    {"v": 1, "id": "c0-17", "client": "c0", "kind": "predict",
     "arrival": 1.25, "deadline": 0.5,
     "query": {"platform": "j90", "molecule": "medium", "servers": 4,
               "cutoff": 10.0, "update_interval": 1, "steps": 10,
               "calibrated": true}}

``kind`` is one of ``predict`` (single point), ``sweep`` (a server
range), ``platforms`` (catalog listing) or ``ping``.  ``arrival`` is an
optional *virtual* arrival stamp on the client's open-loop clock: when
present, admission control rates the client by it instead of by the
wall clock, which makes load shedding exactly reproducible under the
seeded load generator.  ``deadline`` is a relative latency budget in
seconds; requests that outlive it are dropped before compute with a
504-style error.

Response envelope::

    {"v": 1, "id": "c0-17", "status": 200, "result": {...}}
    {"v": 1, "id": "c0-17", "status": 429, "error": {"reason": "shed:rate"}}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from ..core.parameters import EXACT_INT_LIMIT
from ..errors import ServeError

if TYPE_CHECKING:  # the workloads package loads lazily, on a family query
    from ..workloads.spec import WorkloadSpec

#: Wire format version; bump on any incompatible schema change.
WIRE_VERSION = 1

#: HTTP-style status codes used on the wire.
OK = 200
BAD_REQUEST = 400
NOT_FOUND = 404
SHED = 429
INTERNAL = 500
DEADLINE_EXPIRED = 504

#: Request kinds answered by the service.
KINDS = ("predict", "sweep", "platforms", "ping")

#: Default server range for sweep queries (the paper's 1..7).
DEFAULT_SWEEP_SERVERS: Tuple[int, ...] = tuple(range(1, 8))


def canonical(obj: Any) -> str:
    """Canonical JSON encoding: sorted keys, no whitespace.

    The single rendering used everywhere — cache keys, wire responses,
    benchmark diffs — so equal payloads are equal strings.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Query:
    """One validated what-if query against a calibrated model.

    ``servers`` is a single count for point queries and a tuple of
    counts for sweeps.  ``calibrated=True`` resolves the platform's
    coefficients through the calibration store (running or reusing a
    reduced campaign); ``False`` derives them from the platform's
    Tables 1/2 key data.
    """

    platform: str
    molecule: str
    servers: Union[int, Tuple[int, ...]]
    update_interval: int = 1
    cutoff: Optional[float] = None
    steps: int = 10
    calibrated: bool = False
    #: workload family answering this query; "opal" is the v1 wire
    #: format (family-less queries parse to it unchanged)
    family: str = "opal"
    #: the validated family spec (non-opal families only); evaluation
    #: lowers it as it is, without validating the params again
    spec: Optional["WorkloadSpec"] = None

    @property
    def compute_key(self) -> Tuple[Any, ...]:
        """Grouping key: queries sharing it batch into one model eval.

        Everything except the server count — the whole point of the
        micro-batcher is that a batch over one (platform, molecule,
        cutoff, update, steps) cell, or one family spec, shares the
        calibration resolve.  The spec enters as its canonical params,
        so the key stays JSON-able (the fleet router hashes it).
        """
        return (
            self.platform,
            self.calibrated,
            self.molecule,
            self.cutoff,
            self.update_interval,
            self.steps,
            self.family,
            self.spec.params if self.spec is not None else None,
        )

    def as_dict(self) -> Dict[str, Any]:
        """The query as JSON-able wire data."""
        servers: Any = (
            list(self.servers) if isinstance(self.servers, tuple) else self.servers
        )
        if self.family != "opal":
            return {
                "platform": self.platform,
                "servers": servers,
                "family": self.family,
                "spec": self.spec.params_dict() if self.spec is not None else {},
                "calibrated": self.calibrated,
            }
        return {
            "platform": self.platform,
            "molecule": self.molecule,
            "servers": servers,
            "update_interval": self.update_interval,
            "cutoff": self.cutoff,
            "steps": self.steps,
            "calibrated": self.calibrated,
        }


@dataclass(frozen=True)
class Request:
    """One validated request envelope."""

    id: str
    client: str
    kind: str
    query: Optional[Query] = None
    #: virtual arrival stamp on the load generator's clock (seconds)
    arrival: Optional[float] = None
    #: relative latency budget (seconds); None = no deadline
    deadline: Optional[float] = None


def _require(condition: bool, status: int, reason: str, detail: str) -> None:
    if not condition:
        raise ServeError(status, reason, detail)


def _parse_int(value: Any, name: str, minimum: int = 1) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        BAD_REQUEST,
        "invalid-field",
        f"{name} must be an integer, got {value!r}",
    )
    _require(
        value >= minimum,
        BAD_REQUEST,
        "invalid-field",
        f"{name} must be >= {minimum}, got {value!r}",
    )
    # past 2**53 a count is no longer exact in float64, and far past it
    # the model overflows (500) or answers an infinity (not JSON)
    _require(
        value <= EXACT_INT_LIMIT,
        BAD_REQUEST,
        "invalid-field",
        f"{name} must be <= 2**53, got {value!r}",
    )
    return int(value)


def _require_known_platform(platform: str) -> None:
    from ..platforms import PLATFORMS

    _require(
        platform in PLATFORMS,
        NOT_FOUND,
        "unknown-platform",
        f"unknown platform {platform!r}; known: {sorted(PLATFORMS)}",
    )


def _parse_servers(data: Dict[str, Any], kind: str) -> Union[int, Tuple[int, ...]]:
    """A predict query's server count, or a sweep's server range."""
    raw_servers = data.get("servers", 1 if kind == "predict" else None)
    if kind == "predict":
        return _parse_int(raw_servers, "servers")
    if raw_servers is None:
        return DEFAULT_SWEEP_SERVERS
    _require(
        isinstance(raw_servers, (list, tuple)) and len(raw_servers) > 0,
        BAD_REQUEST,
        "invalid-field",
        "sweep servers must be a non-empty list of integers",
    )
    return tuple(_parse_int(p, "servers[]") for p in raw_servers)


def _parse_calibrated(data: Dict[str, Any]) -> bool:
    calibrated = data.get("calibrated", False)
    _require(
        isinstance(calibrated, bool),
        BAD_REQUEST,
        "invalid-field",
        "calibrated must be a boolean",
    )
    return calibrated


#: memoized (kind, canonical(data)) -> Query; bounded, successes only
_QUERY_CACHE: Dict[Tuple[str, str], Query] = {}
_QUERY_CACHE_LIMIT = 1024


def parse_query(data: Any, kind: str) -> Query:
    """Validate raw query data into a :class:`Query` (or raise 400/404).

    Validated queries are memoized on their canonical JSON rendering.
    A serving campaign sends the same few dozen distinct queries tens of
    thousands of times, and element-wise validation of a sweep's
    ``servers`` list is the single most expensive step on the request
    path — far more than the lookup.  :class:`Query` is frozen, so one
    instance is safe to share across requests.  Only successful parses
    are cached; malformed queries re-validate (they are off the hot path
    and their error detail depends on the raw value).
    """
    try:
        cache_key = (kind, canonical(data))
    except (TypeError, ValueError):
        # non-JSON-able input (direct API use); validate uncached
        return _parse_query_uncached(data, kind)
    hit = _QUERY_CACHE.get(cache_key)
    if hit is None:
        hit = _parse_query_uncached(data, kind)
        if len(_QUERY_CACHE) >= _QUERY_CACHE_LIMIT:
            _QUERY_CACHE.clear()
        _QUERY_CACHE[cache_key] = hit
    return hit


def _parse_query_uncached(data: Any, kind: str) -> Query:
    _require(
        isinstance(data, dict),
        BAD_REQUEST,
        "invalid-query",
        f"query must be an object, got {type(data).__name__}",
    )
    family = data.get("family", "opal")
    _require(
        isinstance(family, str) and family != "",
        BAD_REQUEST,
        "invalid-field",
        f"family must be a non-empty string, got {family!r}",
    )
    if family != "opal":
        return _parse_family_query(data, kind, family)
    _require(
        "spec" not in data,
        BAD_REQUEST,
        "invalid-query",
        "field 'spec' applies only to non-opal workload families; set "
        "'family' to a registered family, or use the opal fields "
        "(molecule/cutoff/update_interval/steps) directly",
    )
    unknown = set(data) - {
        "platform",
        "molecule",
        "servers",
        "update_interval",
        "cutoff",
        "steps",
        "calibrated",
        "family",
    }
    _require(
        not unknown,
        BAD_REQUEST,
        "invalid-query",
        f"unknown query field(s): {sorted(unknown)}",
    )
    platform = data.get("platform", "j90")
    molecule = data.get("molecule", "medium")
    _require(
        isinstance(platform, str),
        BAD_REQUEST,
        "invalid-field",
        "platform must be a string",
    )
    _require(
        isinstance(molecule, str),
        BAD_REQUEST,
        "invalid-field",
        "molecule must be a string",
    )
    # resolve names now so a typo costs nothing downstream of admission
    from ..opal.complexes import NAMED_COMPLEXES

    _require_known_platform(platform)
    _require(
        molecule in NAMED_COMPLEXES,
        NOT_FOUND,
        "unknown-molecule",
        f"unknown molecule {molecule!r}; known: {sorted(NAMED_COMPLEXES)}",
    )
    servers = _parse_servers(data, kind)
    cutoff = data.get("cutoff")
    if cutoff is not None:
        _require(
            isinstance(cutoff, (int, float)) and not isinstance(cutoff, bool),
            BAD_REQUEST,
            "invalid-field",
            f"cutoff must be a number or null, got {cutoff!r}",
        )
        _require(
            float(cutoff) > 0,
            BAD_REQUEST,
            "invalid-field",
            "cutoff must be positive (or null for no cutoff)",
        )
        cutoff = float(cutoff)
    calibrated = _parse_calibrated(data)
    return Query(
        platform=platform,
        molecule=molecule,
        servers=servers,
        update_interval=_parse_int(data.get("update_interval", 1), "update_interval"),
        cutoff=cutoff,
        steps=_parse_int(data.get("steps", 10), "steps"),
        calibrated=calibrated,
    )


def _parse_family_query(data: Any, kind: str, family: str) -> Query:
    """Validate a non-opal family query (the ``family``/``spec`` form).

    Spec-level failures surface as
    :class:`~repro.errors.WorkloadError` from the workload subsystem's
    validator and are mapped here to 400 envelopes with the validator's
    actionable field/value detail.
    """
    from ..errors import WorkloadError

    opal_only = sorted(
        set(data) & {"molecule", "cutoff", "update_interval", "steps"}
    )
    _require(
        not opal_only,
        BAD_REQUEST,
        "invalid-query",
        f"field(s) {opal_only} apply only to the opal family; a "
        f"{family!r} query takes its parameters in the 'spec' object",
    )
    unknown = set(data) - {"platform", "servers", "family", "spec", "calibrated"}
    _require(
        not unknown,
        BAD_REQUEST,
        "invalid-query",
        f"unknown query field(s): {sorted(unknown)}",
    )
    platform = data.get("platform", "j90")
    _require(
        isinstance(platform, str),
        BAD_REQUEST,
        "invalid-field",
        "platform must be a string",
    )
    _require_known_platform(platform)
    raw_spec = data.get("spec", {})
    _require(
        isinstance(raw_spec, dict),
        BAD_REQUEST,
        "invalid-field",
        f"spec must be an object of {family} parameters, "
        f"got {type(raw_spec).__name__}",
    )
    from ..workloads import get_family

    try:
        spec = get_family(family).spec_from_params(raw_spec)
    except WorkloadError as exc:
        raise ServeError(BAD_REQUEST, "invalid-workload", str(exc)) from exc
    return Query(
        platform=platform,
        molecule="",
        servers=_parse_servers(data, kind),
        calibrated=_parse_calibrated(data),
        family=family,
        spec=spec,
    )


def parse_request(envelope: Any) -> Request:
    """Validate one decoded request envelope (or raise a ServeError)."""
    _require(
        isinstance(envelope, dict),
        BAD_REQUEST,
        "invalid-request",
        f"request must be a JSON object, got {type(envelope).__name__}",
    )
    version = envelope.get("v", WIRE_VERSION)
    _require(
        version == WIRE_VERSION,
        BAD_REQUEST,
        "unsupported-version",
        f"wire version {version!r} is not supported (want {WIRE_VERSION})",
    )
    kind = envelope.get("kind")
    _require(
        kind in KINDS,
        BAD_REQUEST,
        "unknown-kind",
        f"kind must be one of {KINDS}, got {kind!r}",
    )
    req_id = envelope.get("id", "")
    client = envelope.get("client", "anonymous")
    _require(
        isinstance(req_id, str), BAD_REQUEST, "invalid-field", "id must be a string"
    )
    _require(
        isinstance(client, str) and client != "",
        BAD_REQUEST,
        "invalid-field",
        "client must be a non-empty string",
    )
    arrival = envelope.get("arrival")
    if arrival is not None:
        _require(
            isinstance(arrival, (int, float)) and not isinstance(arrival, bool),
            BAD_REQUEST,
            "invalid-field",
            "arrival must be a number",
        )
        arrival = float(arrival)
    deadline = envelope.get("deadline")
    if deadline is not None:
        _require(
            isinstance(deadline, (int, float))
            and not isinstance(deadline, bool)
            and float(deadline) > 0,
            BAD_REQUEST,
            "invalid-field",
            "deadline must be a positive number of seconds",
        )
        deadline = float(deadline)
    query = None
    if kind in ("predict", "sweep"):
        query = parse_query(envelope.get("query", {}), kind)
    return Request(
        id=req_id,
        client=client,
        kind=kind,
        query=query,
        arrival=arrival,
        deadline=deadline,
    )


def ok_response(req_id: str, result: Dict[str, Any]) -> Dict[str, Any]:
    """A success envelope."""
    return {"v": WIRE_VERSION, "id": req_id, "status": OK, "result": result}


def error_response(
    req_id: str, status: int, reason: str, detail: str = ""
) -> Dict[str, Any]:
    """An error envelope with a machine-readable reason."""
    error: Dict[str, Any] = {"reason": reason}
    if detail and detail != reason:
        error["detail"] = detail
    return {"v": WIRE_VERSION, "id": req_id, "status": status, "error": error}


def is_ok(response: Dict[str, Any]) -> bool:
    """Whether a response envelope reports success."""
    return response.get("status") == OK

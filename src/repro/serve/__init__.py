"""Prediction-as-a-service: async serving of what-if model queries.

The paper's punchline is that the calibrated model answers platform
what-if questions *without* porting the application; this subpackage
turns that into a long-running service.  Concurrent point queries are
coalesced by a micro-batcher into vectorized model evaluations,
admission control sheds overload deterministically (token buckets run
on the load generator's virtual arrival stamps), and fitted calibration
parameters are cached content-addressed — in memory, and optionally on
disk via the same keying as campaign cells.

Layers: :mod:`~repro.serve.api` (wire schema) →
:mod:`~repro.serve.admission` → :mod:`~repro.serve.batcher` →
:mod:`~repro.serve.service` (the pipeline core) →
:mod:`~repro.serve.server` (asyncio TCP/HTTP transports), with
:mod:`~repro.serve.calibstore` feeding calibrated coefficients,
:mod:`~repro.serve.flight` keeping one row per request (the serve
path's one record) and :mod:`~repro.serve.loadgen` driving
reproducible campaigns.
See docs/SERVING.md for the architecture and ops runbook.

Above the single-process service sits the fault-tolerant fleet tier:
:mod:`~repro.serve.hashring` (consistent hashing of compute cells) →
:mod:`~repro.serve.router` (front-door admission, health-checked
failover, retries) → :mod:`~repro.serve.fleet` (worker subprocess
supervision, respawn, graceful drain).  See docs/FLEET.md.
"""

from .admission import AdmissionController, AdmissionStats, TokenBucket
from .api import (
    Query,
    Request,
    WIRE_VERSION,
    canonical,
    error_response,
    is_ok,
    ok_response,
    parse_request,
)
from .batcher import MicroBatcher
from .calibstore import CalibrationStore
from .fleet import FleetSpec, ServeFleet, WorkerProc
from .hashring import HashRing, ring_hash
from .loadgen import LoadSpec, LoadgenReport, build_schedule, run_open_loop
from .router import FleetConfig, FleetRouter, InProcessWorker, WorkerStats
from .server import ServeClient, ServeServer, TcpServeClient, http_get, http_post
from .service import PredictionService, ServeConfig

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "CalibrationStore",
    "FleetConfig",
    "FleetRouter",
    "FleetSpec",
    "HashRing",
    "InProcessWorker",
    "LoadSpec",
    "LoadgenReport",
    "MicroBatcher",
    "PredictionService",
    "Query",
    "Request",
    "ServeClient",
    "ServeConfig",
    "ServeFleet",
    "ServeServer",
    "TcpServeClient",
    "TokenBucket",
    "WIRE_VERSION",
    "WorkerProc",
    "WorkerStats",
    "build_schedule",
    "canonical",
    "error_response",
    "http_get",
    "http_post",
    "is_ok",
    "ok_response",
    "parse_request",
    "ring_hash",
    "run_open_loop",
]

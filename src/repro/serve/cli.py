"""``python -m repro.serve`` — serve, fleet, query and bench commands.

Commands
--------
``serve``  run the TCP/HTTP prediction server in the foreground
``fleet``  run a multi-worker fleet behind one front-door router port
``query``  answer one query (in-process by default, or against a server)
``bench``  drive a seeded load-generator campaign and report/assert

``bench`` is also the CI smoke runner: ``--fail-on-shed`` and
``--p99-budget`` turn the report into assertions, and ``--json`` emits
the machine-readable result the workflow archives.  ``bench --fleet N``
drives the same seeded campaign through a worker fleet, and the chaos
knobs (``--kill-worker``/``--abort-after``/``--oracle``) make it the
CI fleet-chaos runner: kill a worker mid-burst, then check every
completed response bit-identical against a serial single-process run.

``serve`` and ``fleet`` drain gracefully on SIGTERM/SIGINT: queued
requests are answered or shed with 429 ``shed:drain``, and telemetry
stores flush before exit.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import json
import signal
import sys
from typing import Any, Dict, Optional

from . import api
from .calibstore import CalibrationStore
from .loadgen import LoadgenReport, LoadSpec, build_schedule, run_open_loop
from .server import ServeClient, ServeServer, TcpServeClient
from .service import PredictionService, ServeConfig


def _add_service_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-batch", type=int, default=64,
                   help="micro-batch size cap (1 = sequential serving)")
    p.add_argument("--queue-depth", type=int, default=1024,
                   help="max queued requests before shedding (429 shed:queue)")
    p.add_argument("--admit-rate", type=float, default=200.0,
                   help="per-client token-bucket refill rate (req/s)")
    p.add_argument("--burst", type=int, default=50,
                   help="per-client token-bucket burst capacity")
    p.add_argument("--cache-dir", default=None,
                   help="on-disk calibration cache directory")
    p.add_argument("--refresh", choices=("none", "background", "blocking"),
                   default="background",
                   help="calibration refresh policy on a cache miss")


def _build_service(args: argparse.Namespace) -> PredictionService:
    config = ServeConfig(
        max_batch=args.max_batch,
        max_queue_depth=args.queue_depth,
        rate=args.admit_rate,
        burst=args.burst,
        refresh=args.refresh,
    )
    store = CalibrationStore(cache_dir=args.cache_dir)
    flight = None
    if getattr(args, "store_out", None) is not None:
        from ..obs.store import TelemetryStore
        from .flight import FlightRecorder

        flight = FlightRecorder(store=TelemetryStore(args.store_out))
    return PredictionService(config=config, calibrations=store, flight=flight)


# ----------------------------------------------------------------------
async def _wait_for_shutdown() -> None:
    """Block until SIGTERM/SIGINT; unhooks the handlers on the way out."""
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    hooked = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, stop.set)
            hooked.append(signum)
    try:
        await stop.wait()
    finally:
        for signum in hooked:
            loop.remove_signal_handler(signum)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the prediction server until SIGTERM/SIGINT, then drain."""

    async def run() -> None:
        service = _build_service(args)
        async with ServeServer(service, host=args.host, port=args.port) as server:
            print(
                f"serving on {args.host}:{server.bound_port} "
                f"(NDJSON + HTTP; POST /v1/query, GET /healthz)",
                flush=True,
            )
            # exiting the context drains: queued requests answer or
            # shed with 429 shed:drain, and the flight store flushes
            await _wait_for_shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    except BrokenPipeError:
        # stdout reader vanished (supervisor torn down mid-spawn)
        return 0
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run a worker fleet behind one front-door port until SIGTERM."""
    from .fleet import FleetSpec, ServeFleet
    from .router import FleetConfig

    spec = FleetSpec(
        workers=args.workers,
        cache_dir=args.cache_dir,
        store_root=args.store_out,
        max_batch=args.max_batch,
        config=FleetConfig(
            rate=args.admit_rate,
            burst=args.burst,
            max_queue_depth=args.queue_depth,
            heartbeat=args.heartbeat,
            seed=args.seed,
        ),
    )

    async def run() -> None:
        async with ServeFleet(spec) as fleet:
            assert fleet.router is not None
            server = ServeServer(fleet.router, host=args.host, port=args.port)
            # the fleet owns router lifecycle; hand the server a started
            # router so its stop() path is the idempotent second call
            async with server:
                print(
                    f"fleet of {spec.workers} serving on "
                    f"{args.host}:{server.bound_port} "
                    f"(NDJSON + HTTP; POST /v1/query, GET /healthz)",
                    flush=True,
                )
                await _wait_for_shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
def _query_envelope(args: argparse.Namespace) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {
        "v": api.WIRE_VERSION,
        "id": "cli",
        "client": "cli",
        "kind": args.kind,
    }
    if args.kind in ("predict", "sweep"):
        if args.family != "opal":
            query: Dict[str, Any] = {
                "platform": args.platform,
                "family": args.family,
                "spec": _load_spec_arg(args.spec),
                "calibrated": args.calibrated,
            }
        else:
            query = {
                "platform": args.platform,
                "molecule": args.molecule,
                "update_interval": args.update_interval,
                "cutoff": args.cutoff,
                "steps": args.steps,
                "calibrated": args.calibrated,
            }
        if args.kind == "predict":
            query["servers"] = args.servers
        else:
            query["servers"] = list(range(1, args.servers + 1))
        envelope["query"] = query
    return envelope


def _load_spec_arg(raw: Optional[str]) -> Dict[str, Any]:
    """``--spec`` accepts inline JSON or a .json/.toml spec file path."""
    if raw is None:
        return {}
    text = raw.strip()
    if text.startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise SystemExit(f"--spec must be a JSON object, got {text!r}")
        return data
    from ..workloads import load_spec_data

    data = load_spec_data(raw)
    data.pop("family", None)  # --family is authoritative on the CLI
    return data


def _parse_family_mix(raw: Optional[str]) -> Optional[Dict[str, float]]:
    """``--family-mix "collective=0.3,hpl=0.2,opal=0.5"`` -> weight dict."""
    if raw is None:
        return None
    mix: Dict[str, float] = {}
    for part in raw.split(","):
        name, sep, weight = part.partition("=")
        if not sep or not name.strip():
            raise SystemExit(
                f"--family-mix entries are FAMILY=WEIGHT, got {part!r}"
            )
        try:
            mix[name.strip()] = float(weight)
        except ValueError:
            raise SystemExit(
                f"--family-mix weight for {name.strip()!r} is not a number: "
                f"{weight!r}"
            ) from None
    return mix


def cmd_query(args: argparse.Namespace) -> int:
    """Answer one query and print the response envelope as JSON."""

    async def run() -> Dict[str, Any]:
        envelope = _query_envelope(args)
        if args.connect is not None:
            host, _, port = args.connect.partition(":")
            async with TcpServeClient(host, int(port)) as client:
                return await client.request(envelope)
        service = _build_service(args)
        async with service:
            return await ServeClient(service).request(envelope)

    response = asyncio.run(run())
    print(api.canonical(response) if args.compact else json.dumps(response, indent=2))
    return 0 if api.is_ok(response) else 1


# ----------------------------------------------------------------------
async def _oracle_responses(
    args: argparse.Namespace, schedule: list
) -> Dict[str, Dict[str, Any]]:
    """Serve the schedule serially in-process, admission wide open.

    The bit-identity oracle for the fleet bench: deadlines are
    stripped and nothing sheds, so every id gets its pure-function
    answer.  Fleet-completed responses must match these bit for bit.
    """
    config = ServeConfig(
        max_batch=args.max_batch,
        max_queue_depth=10**6,
        rate=1e9,
        burst=10**6,
    )
    service = PredictionService(
        config=config, calibrations=CalibrationStore(cache_dir=args.cache_dir)
    )
    relaxed = []
    for envelope in schedule:
        clean = dict(envelope)
        clean.pop("deadline", None)
        relaxed.append(clean)
    async with service:
        report = await run_open_loop(ServeClient(service).request, relaxed)
    return report.responses


def _bit_identity_check(
    fleet_report: LoadgenReport, oracle: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """Compare every fleet-completed (200) response against the oracle."""
    compared = 0
    mismatched = []
    for rid, response in sorted(fleet_report.responses.items()):
        if response.get("status") != api.OK:
            continue
        compared += 1
        if api.canonical(response) != api.canonical(oracle.get(rid)):
            mismatched.append(rid)
    return {
        "compared": compared,
        "corrupted": len(mismatched),
        "mismatched_ids": mismatched[:10],
    }


def _report_result(report: LoadgenReport) -> Dict[str, Any]:
    """A bench report's JSON summary plus the digest of every answer.

    ``responses_sha256`` is the SHA-256 of
    :meth:`~repro.serve.loadgen.LoadgenReport.canonical_responses`: two
    runs of one schedule served the same bytes iff their digests match.
    """
    result = report.summary()
    result["responses_sha256"] = hashlib.sha256(
        report.canonical_responses().encode()
    ).hexdigest()
    return result


def _bench_fleet(args: argparse.Namespace, spec: LoadSpec) -> Dict[str, Any]:
    """The ``bench --fleet N`` campaign: chaos taps + bit-identity oracle."""
    from .fleet import FleetSpec, ServeFleet
    from .router import FleetConfig

    fleet_spec = FleetSpec(
        workers=args.fleet,
        cache_dir=args.cache_dir,
        store_root=args.store_out,
        max_batch=args.max_batch,
        config=FleetConfig(
            rate=args.admit_rate,
            burst=args.burst,
            max_queue_depth=args.queue_depth,
            seed=args.seed,
        ),
    )
    schedule = build_schedule(spec)
    abort_after = args.abort_after
    if args.kill_worker is not None and abort_after is None:
        abort_after = len(schedule) // 2

    async def run() -> Dict[str, Any]:
        async with ServeFleet(fleet_spec) as fleet:
            router = fleet.router
            assert router is not None

            async def chaos() -> None:
                fleet.kill_worker(args.kill_worker)

            report = await run_open_loop(
                router.submit,
                schedule,
                pace=args.pace,
                abort_after=abort_after,
                abort=chaos if args.kill_worker is not None else None,
            )
            report.per_worker = router.worker_report()
            result: Dict[str, Any] = _report_result(report)
            result["latency"] = router.latency_quantiles()
            result["fleet"] = fleet.report()
            result["shed_ids"] = report.shed_ids()
            if args.store_out is not None:
                result["flight"] = {
                    "recorded": router.records.recorded,
                    "stores": fleet.store_dirs(),
                }
        if args.oracle:
            result["oracle"] = _bit_identity_check(
                report, await _oracle_responses(args, schedule)
            )
        return result

    return asyncio.run(run())


def cmd_bench(args: argparse.Namespace) -> int:
    """Run a seeded load campaign in-process; report and assert."""
    try:
        spec = LoadSpec(
            clients=args.clients,
            requests_per_client=args.requests,
            rate=args.load_rate,
            seed=args.seed,
            sweep_fraction=args.sweep_fraction,
            calibrated=args.calibrated,
            deadline=args.deadline,
            family_mix=_parse_family_mix(args.family_mix),
        )
    except ValueError as exc:
        print(f"invalid load spec: {exc}", file=sys.stderr)
        return 2

    async def run() -> Dict[str, Any]:
        service = _build_service(args)
        async with service:
            schedule = build_schedule(spec)
            report = await run_open_loop(
                ServeClient(service).request, schedule, pace=args.pace
            )
        result = _report_result(report)
        result["latency"] = service.latency_quantiles()
        result["service"] = service.report()
        result["shed_ids"] = report.shed_ids()
        result["flight"] = {
            "recorded": service.flight.recorded,
            "dropped": service.flight.dropped,
            "store": args.store_out,
        }
        return result

    if args.fleet:
        result = _bench_fleet(args, spec)
    else:
        result = asyncio.run(run())
    failures = []
    if args.fail_on_shed and (result["shed_rate"] or result["shed_queue"]):
        failures.append(
            f"shed {result['shed_rate']} by rate + "
            f"{result['shed_queue']} by queue at nominal load"
        )
    if args.p99_budget is not None and result["latency"]["p99"] > args.p99_budget:
        failures.append(
            f"p99 {result['latency']['p99']:.6f}s over budget {args.p99_budget}s"
        )
    if result.get("oracle", {}).get("corrupted"):
        failures.append(
            f"{result['oracle']['corrupted']} completed response(s) differ "
            f"from the serial oracle (first: "
            f"{result['oracle']['mismatched_ids'][:3]})"
        )
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        lat = result["latency"]
        print(
            f"sent {result['sent']}  ok {result['ok']}  "
            f"shed {result['shed_rate']}+{result['shed_queue']}"
            f"+{result.get('shed_drain', 0)}  "
            f"expired {result['expired']}  errors {result['errors']}"
        )
        print(
            f"wall {result['wall_s']:.3f}s  throughput {result['throughput_rps']:.1f} "
            f"req/s  p50 {lat['p50'] * 1e3:.2f}ms  p95 {lat['p95'] * 1e3:.2f}ms  "
            f"p99 {lat['p99'] * 1e3:.2f}ms"
        )
        if "service" in result:
            occupancy = result["service"]["mean_occupancy"]
            print(
                f"batches {result['service']['batches']}  "
                f"mean occupancy {occupancy:.1f}"
            )
        for worker, tallies in result.get("per_worker", {}).items():
            print(
                f"{worker}: forwarded {tallies['forwarded']}  "
                f"completed {tallies['completed']}  retried {tallies['retried']}  "
                f"failed {tallies['failed']}  shed {tallies['shed']}"
            )
        if "oracle" in result:
            print(
                f"oracle: compared {result['oracle']['compared']}  "
                f"corrupted {result['oracle']['corrupted']}"
            )
    for failure in failures:
        print(f"BENCH FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------------
def main(argv: Optional[list] = None) -> int:
    """Entry point for ``python -m repro.serve``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="prediction-as-a-service: what-if queries over the model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the TCP/HTTP server in the foreground")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8123)
    p.add_argument("--store-out", default=None, metavar="DIR",
                   help="flush the flight ring of every request into the "
                   "telemetry store at DIR (on graceful shutdown)")
    _add_service_opts(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="run a multi-worker fleet behind one front-door router port",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8123)
    p.add_argument("--workers", type=int, default=3,
                   help="number of serve worker processes")
    p.add_argument("--heartbeat", type=float, default=0.25,
                   help="seconds between worker health pings (0 disables)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the router's retry-backoff jitter stream")
    p.add_argument("--store-out", default=None, metavar="DIR",
                   help="telemetry store root (router + per-worker stores)")
    _add_service_opts(p)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("query", help="answer one query and print JSON")
    p.add_argument("--kind", choices=api.KINDS, default="predict")
    p.add_argument("--platform", default="j90")
    p.add_argument("--family", default="opal",
                   help="workload family (default opal; others take --spec)")
    p.add_argument("--spec", default=None, metavar="JSON|FILE",
                   help="family spec as inline JSON or a .json/.toml file "
                   "(non-opal families; omitted fields take defaults)")
    p.add_argument("--molecule", choices=("small", "medium", "large"),
                   default="medium")
    p.add_argument("--servers", type=int, default=4,
                   help="server count (predict) or max of the 1..N sweep")
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--update-interval", type=int, default=1)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--calibrated", action="store_true",
                   help="resolve coefficients through the calibration store")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="query a running server over NDJSON instead of in-process")
    p.add_argument("--compact", action="store_true",
                   help="print canonical single-line JSON")
    _add_service_opts(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="seeded load campaign with assertions")
    p.add_argument("--clients", type=int, default=16)
    p.add_argument("--requests", type=int, default=25,
                   help="requests per client")
    p.add_argument("--load-rate", type=float, default=100.0,
                   help="per-client mean request rate (req/s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweep-fraction", type=float, default=0.1)
    p.add_argument("--family-mix", default=None, metavar="MIX",
                   help='weighted family draw, e.g. '
                   '"collective=0.3,hpl=0.2,opal=0.5" '
                   "(default: all requests are opal)")
    p.add_argument("--calibrated", action="store_true")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request latency budget in seconds")
    p.add_argument("--pace", action="store_true",
                   help="pace submissions on the virtual arrival schedule")
    p.add_argument("--fail-on-shed", action="store_true",
                   help="exit non-zero if any request was shed")
    p.add_argument("--p99-budget", type=float, default=None,
                   help="exit non-zero if p99 latency exceeds this (seconds)")
    p.add_argument("--store-out", default=None, metavar="DIR",
                   help="flush the flight ring of every request into the "
                   "telemetry store at DIR (at service stop; feed it to "
                   "'python -m repro.obs slo')")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report")
    p.add_argument("--fleet", type=int, default=0, metavar="N",
                   help="drive the campaign through an N-worker fleet "
                   "instead of one in-process service")
    p.add_argument("--kill-worker", type=int, default=None, metavar="SLOT",
                   help="chaos tap: SIGKILL this worker slot mid-burst "
                   "(fleet mode only)")
    p.add_argument("--abort-after", type=int, default=None, metavar="N",
                   help="fire the chaos tap after exactly N submissions "
                   "(default: half the schedule)")
    p.add_argument("--oracle", action="store_true",
                   help="fleet mode: replay the schedule through a serial "
                   "in-process service and require every completed "
                   "response to be bit-identical")
    _add_service_opts(p)
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)

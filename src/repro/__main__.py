"""Command line entry point: ``python -m repro <command>``.

Commands
--------
``predict``   predicted time/speedup curves for one complex on all platforms
``measure``   simulated measured breakdown on the reference J90
``calibrate`` run the reduced design and fit the model
``tables``    regenerate Tables 1 and 2
``platforms`` list the platform catalog
"""

from __future__ import annotations

import argparse
import sys

from . import __version__


def _add_execution(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run design cells over N worker processes (default: serial)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="reuse simulated cells from this on-disk result cache",
    )


def _add_chaos(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="inject faults and run with the resilient middleware; SPEC is "
        "comma-separated key=value pairs, e.g. "
        "'drop=0.01,delay=0.05,crash=2@1.5,timeout=5' "
        "(see docs/ROBUSTNESS.md for the full grammar)",
    )


def _parse_chaos(args):
    spec = getattr(args, "chaos", None)
    if spec is None:
        return None
    from .netsim import FaultSpec

    return FaultSpec.parse(spec)


def _add_trace_out(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        default=None,
        help="export a merged observability trace of every simulated run "
        "(.json = Chrome/Perfetto trace events, .jsonl = lossless dump)",
    )


def _make_obs(args):
    if getattr(args, "trace_out", None) is None:
        return None
    from .obs import ObsSession

    return ObsSession(label=args.command)


def _finish_obs(args, obs) -> None:
    if obs is None:
        return
    path = args.trace_out
    if str(path).endswith(".jsonl"):
        obs.export_jsonl(path)
    else:
        obs.export_chrome(path)
    print()
    print(obs.summary())
    if obs.model_params is not None:
        print()
        print(obs.model_report())
    print(f"\ntrace written to {path}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--molecule",
        choices=("small", "medium", "large"),
        default="medium",
        help="named molecular complex (default: medium)",
    )
    p.add_argument(
        "--cutoff",
        type=float,
        default=None,
        help="cutoff radius in Angstrom (default: none = fully accurate)",
    )
    p.add_argument(
        "--update-interval",
        type=int,
        default=1,
        help="steps between pair-list updates (default: 1 = full update)",
    )
    p.add_argument("--steps", type=int, default=10, help="simulation steps")
    p.add_argument(
        "--servers", type=int, default=7, help="maximum server count (default 7)"
    )


def cmd_predict(args) -> int:
    from .analysis import curve_table
    from .core.parameters import ApplicationParams
    from .core.prediction import predict_platforms
    from .opal.complexes import get_complex
    from .platforms import ALL_PLATFORMS

    app = ApplicationParams(
        molecule=get_complex(args.molecule),
        steps=args.steps,
        cutoff=args.cutoff,
        update_interval=args.update_interval,
    )
    servers = tuple(range(1, args.servers + 1))
    series = predict_platforms(ALL_PLATFORMS, app, servers)
    print(
        curve_table(
            {n: s.times for n, s in series.items()},
            servers,
            f"predicted execution time [s] — {args.molecule}, "
            f"cutoff={args.cutoff}, update 1/{args.update_interval}",
        )
    )
    print()
    print(
        curve_table(
            {n: s.speedups for n, s in series.items()},
            servers,
            "relative speedup",
            value_format="9.2f",
        )
    )
    return 0


def cmd_measure(args) -> int:
    from .analysis import breakdown_table
    from .core.parameters import ApplicationParams
    from .opal.complexes import get_complex
    from .opal.parallel import run_parallel_opal
    from .platforms import get_platform

    platform = get_platform(args.platform)
    faults = _parse_chaos(args)
    obs = _make_obs(args)
    rows = {}
    degraded = {}
    for p in range(1, args.servers + 1):
        app = ApplicationParams(
            molecule=get_complex(args.molecule),
            steps=args.steps,
            servers=p,
            cutoff=args.cutoff,
            update_interval=args.update_interval,
        )
        result = run_parallel_opal(app, platform, obs=obs, faults=faults)
        rows[p] = result.breakdown
        if result.servers_failed:
            degraded[p] = result
    title = (
        f"measured breakdown on {platform.label} "
        f"({args.molecule}, cutoff={args.cutoff})"
    )
    if faults is not None:
        title += " [chaos]"
    print(breakdown_table(rows, title=title))
    for p, result in degraded.items():
        print(
            f"  p={p}: degraded — servers {result.servers_failed} died, "
            f"{result.failovers} failover(s), {result.rpc_retries} RPC "
            f"retries, {result.rpc_timeouts} timeouts"
        )
    _finish_obs(args, obs)
    return 0


def cmd_calibrate(args) -> int:
    from .core.calibration import calibrate
    from .experiments import ResultCache, reduced_design
    from .platforms import get_platform
    from .workloads.campaign import export_jsonl, run_workload_design

    platform = get_platform(args.platform)
    cache = ResultCache(args.cache_dir) if args.cache_dir is not None else None
    records, simulated = run_workload_design(
        reduced_design(), platform, workers=args.workers, cache=cache
    )
    if args.export_jsonl:
        n = export_jsonl(records, args.export_jsonl)
        print(f"wrote {n} cell records to {args.export_jsonl}")
    observations = [r.observation() for r in records]
    result = calibrate(observations, name=f"{platform.name}-fit")
    p = result.params
    print(f"calibrated on {len(observations)} simulated experiments:")
    print(f"  a1 = {p.a1 / 1e6:.3f} MByte/s    b1 = {p.b1 * 1e3:.3f} ms")
    print(f"  a2 = {p.a2:.3e} s    a3 = {p.a3:.3e} s    a4 = {p.a4:.3e} s")
    print(f"  b5 = {p.b5 * 1e3:.3f} ms")
    print(f"  mean relative error: {100 * result.mean_relative_error():.2f}%")
    print(f"  simulations executed: {simulated}", end="")
    if cache is not None:
        print(f" (cache: {cache.stats})", end="")
    print()
    return 0


def cmd_campaign(args) -> int:
    if args.spec is not None or args.workload not in (None, "opal"):
        return _cmd_workload_campaign(args)
    from .experiments import render_campaign, run_campaign
    from .opal.complexes import get_complex
    from .platforms import ALL_PLATFORMS, get_platform

    obs = _make_obs(args)
    report = run_campaign(
        reference=get_platform(args.platform),
        candidates=list(ALL_PLATFORMS),
        molecule=get_complex(args.molecule),
        servers=tuple(range(1, args.servers + 1)),
        workers=args.workers,
        cache_dir=args.cache_dir,
        obs=obs,
        faults=_parse_chaos(args),
    )
    print(render_campaign(report))
    _finish_obs(args, obs)
    return 0


def _cmd_workload_campaign(args) -> int:
    """``campaign --workload collective|hpl`` (or a ``--spec`` naming one): the family study."""
    from .errors import WorkloadError
    from .platforms import ALL_PLATFORMS, get_platform
    from .workloads import load_spec_data, parse_spec
    from .workloads.base import spec_family
    from .workloads.campaign import render_workload_campaign, run_workload_campaign

    workload, base_spec = args.workload, None
    if args.spec is not None:
        data = load_spec_data(args.spec)
        # without --workload, the spec's own family picks the study
        workload = spec_family(data, workload)
        if workload == "opal":
            raise WorkloadError(
                "the opal study takes no --spec; give --molecule instead, "
                "or a spec file of a non-opal family"
            )
        base_spec = parse_spec(data, family=workload)
    reference = get_platform(args.platform)
    report = run_workload_campaign(
        workload,
        reference,
        base_spec=base_spec,
        servers=tuple(range(1, args.servers + 1)),
        candidates=[p for p in ALL_PLATFORMS if p.name != reference.name],
        workers=args.workers,
        cache_dir=args.cache_dir,
        faults=_parse_chaos(args),
        store_dir=args.store_out,
    )
    print(render_workload_campaign(report))
    return 0


def cmd_tables(args) -> int:
    from .platforms import format_table1, format_table2, table1, table2

    print(format_table1(table1()))
    print()
    print(format_table2(table2()))
    return 0


def cmd_platforms(args) -> int:
    from .platforms import ALL_PLATFORMS

    for spec in ALL_PLATFORMS:
        print(f"{spec.name:<10s} {spec.label}")
        print(
            f"            {spec.cpus_per_node} cpu/node x {spec.max_nodes} nodes, "
            f"{spec.cpu_rate / 1e6:.1f} MFlop/s/cpu, "
            f"net {spec.net_bw / 1e6:.0f} MB/s {spec.net_kind}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Taufer & Stricker (SC 1998) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="model-predicted curves, all platforms")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("measure", help="simulated measured breakdown")
    _add_common(p)
    p.add_argument("--platform", default="j90")
    _add_chaos(p)
    _add_trace_out(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("calibrate", help="run the reduced design and fit")
    p.add_argument("--platform", default="j90")
    p.add_argument(
        "--export-jsonl",
        default=None,
        help="also write per-cell records as JSON lines to this path",
    )
    _add_execution(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "campaign", help="the full measure-calibrate-predict study"
    )
    p.add_argument("--platform", default="j90", help="reference platform")
    p.add_argument("--workload", default=None,
                   help="workload family to campaign over (default: the "
                   "--spec file's family, else opal; see "
                   "'python -m repro campaign --workload collective')")
    p.add_argument("--spec", default=None, metavar="FILE",
                   help="base spec file (.json/.toml) for non-opal families; "
                   "the family's factorial design varies around it")
    p.add_argument("--store-out", default=None, metavar="DIR",
                   help="ingest cells and residuals into the telemetry "
                   "store at DIR (non-opal families)")
    p.add_argument("--molecule", choices=("small", "medium", "large"),
                   default="medium")
    p.add_argument("--servers", type=int, default=7)
    _add_execution(p)
    _add_chaos(p)
    _add_trace_out(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("tables", help="regenerate Tables 1 and 2")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("platforms", help="list the platform catalog")
    p.set_defaults(func=cmd_platforms)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

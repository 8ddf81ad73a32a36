"""The repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Arguments: ``--workload {serve-point,serve-sweep,campaign} --seed N
--seconds S --trace {0,1}``.  Run from the root of a checkout; nothing
is built, the program is imported from the checkout's ``src``.  With
``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it times the calls into each layer and prints the
per-layer metrics, the layer self times reconciled against the
end-to-end value, and the tracing overhead.

Human-readable lines go to stdout first; the last stdout line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  Every
temporary file lives under ``.perfbench_work/`` in the checkout and is
removed on exit.  See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-point", "serve-sweep", "campaign")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import campaign_wl, common, serve_wl  # noqa: E402

    units = common.metric_units(common.load_benchmark(ROOT), bool(args.trace))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "campaign":
            run = campaign_wl.run
        else:
            run = serve_wl.run
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    for line in result.lines:
        print(line)
    extra = [name for name in common.REPORTED_E2E if name in result.values and name not in units]
    if extra:
        print("reported, not gated: "
              + ", ".join(f"{name} {result.values[name]:.6g}" for name in extra))
    print(common.result_line(result.correct, result.attempted, result.failed,
                             result.values, units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

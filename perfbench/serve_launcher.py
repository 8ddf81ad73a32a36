"""Start the prediction server with layer tracing installed.

``python perfbench/serve_launcher.py --spans-out FILE serve [serve args]``
wraps the calls into each layer (see :mod:`perfbench.tracing`), then
runs the same ``python -m repro.serve`` command line — the same
``ServeServer`` — and writes the recorded spans to FILE once the server
has drained and stopped (SIGTERM).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(prog="serve_launcher.py")
    parser.add_argument("--spans-out", required=True, type=pathlib.Path)
    args, serve_argv = parser.parse_known_args()
    sys.path.insert(0, str(ROOT))
    from perfbench import tracing
    from repro.serve import cli

    tracer = tracing.Tracer()
    tracing.install_serve(tracer)
    tracing.install_model(tracer)
    tracing.install_campaign(tracer)
    try:
        return cli.main(serve_argv)
    finally:
        tracer.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())

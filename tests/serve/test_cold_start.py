"""Nothing imports scipy until a calibration fit runs.

Each check runs in a fresh interpreter: the test process itself has
long since loaded scipy, so ``sys.modules`` here proves nothing.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Run first in each fresh interpreter: ``scipy_modules()`` lists what it holds.
_PRELUDE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def _run(body: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(body)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "module", ["repro.serve.cli", "repro.obs.cli", "repro.lint.cli", "repro.__main__"]
)
def test_importing_a_command_line_loads_no_scipy(module):
    out = _run(f"import {module}\nprint(json.dumps(scipy_modules()))")
    assert out == []


def test_scipy_arrives_with_the_first_fit():
    out = _run(
        """
        import asyncio
        from repro.serve.calibstore import CalibrationStore
        from repro.serve.server import ServeClient
        from repro.serve.service import PredictionService, ServeConfig

        QUERIES = [
            {"molecule": "medium", "cutoff": 10.0},
            {"family": "collective", "spec": {"pattern": "broadcast"}},
            {"family": "hpl", "spec": {"matrix_n": 512}},
        ]

        async def main():
            service = PredictionService(
                config=ServeConfig(refresh="blocking"),
                calibrations=CalibrationStore(cache_dir=None),
            )
            async with service:
                client = ServeClient(service)
                answers = []
                for i, query in enumerate(QUERIES):
                    for kind, servers in (("predict", 4), ("sweep", [1, 2, 4])):
                        response = await client.request({
                            "v": 1, "id": f"{kind}-{i}", "kind": kind,
                            "query": dict(query, servers=servers),
                        })
                        answers.append(
                            (response["status"], response["result"]["calibration"])
                        )
                uncalibrated = scipy_modules()
                fitted = await client.request({
                    "v": 1, "id": "fit", "kind": "predict",
                    "query": {"family": "hpl", "servers": 4, "calibrated": True},
                })
            return {
                "answers": answers,
                "uncalibrated": uncalibrated,
                "fitted": [fitted["status"], fitted["result"]["calibration"]],
                "optimize": "scipy.optimize" in sys.modules,
            }

        print(json.dumps(asyncio.run(main())))
        """
    )
    assert out["answers"] == [[200, "key-data"]] * 6
    assert out["uncalibrated"] == []
    assert out["fitted"] == [200, "calibrated"]
    assert out["optimize"] is True

"""Placement and flow decisions do not depend on the BLAS thread count.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads it, so
each thread count needs its own interpreter.  Every child places s38417
with the default ``QuadraticPlacer`` and runs the scale10k flow at
``jobs=1``; the positions must be bit-identical and the
``decision_digest()`` equal under 1, 2 and 4 BLAS threads.  Before the
placer's reductions were fixed-order, the scale10k digest changed
between 1 and 2 threads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = """
import hashlib, json
from repro.api import FlowRequest, run_flow
from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import FlowOptions
from repro.netlist import generate_named
from repro.placement import QuadraticPlacer, region_for_circuit

circuit = generate_named("s38417")
positions = QuadraticPlacer(
    circuit, region_for_circuit(circuit, DEFAULT_TECHNOLOGY)
).place()
blob = repr([(name, p.x.hex(), p.y.hex()) for name, p in positions.items()])
digest = run_flow(
    FlowRequest(circuit="scale10k", options=FlowOptions(max_iterations=2, jobs=1))
).decision_digest()
print(json.dumps({
    "positions": hashlib.sha256(blob.encode()).hexdigest(),
    "digest": digest,
}))
"""


def _run_child(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.slow
def test_placement_and_digest_independent_of_blas_threads():
    results = {threads: _run_child(threads) for threads in (1, 2, 4)}
    assert len({r["positions"] for r in results.values()}) == 1, results
    assert len({r["digest"] for r in results.values()}) == 1, results

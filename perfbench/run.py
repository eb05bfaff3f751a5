"""Benchmark of one run of the Fig. 3 flow (``repro.api.run_flow``).

Usage, from the repository root::

    python3 perfbench/run.py --workload ilp-s38417 --seed 0 --seconds 50 --trace 0

``BENCHMARK.json`` runs the workloads ``regdense12k`` and ``ilp-s38417``;
``s35932`` runs by hand the same way.

``--trace 0`` measures the end-to-end metrics with tracing off.  It
alternates warm flows in this process with cold flows, each in a fresh
child process (``--cold-child``) that prints its flow record as JSON.
Its times (``setup_s``, ``cold_flow_s``, ``flow_s``, ``flow_cpu_s``) are
scaled to a fixed host speed by the reference timed around each flow
(see ``reference.py``); the measured medians print above the result.
``--trace 1`` alternates untraced flows with flows whose layer entry
points are wrapped (see ``layers.py``), prints an Amdahl table of layer
self time and reports the per-layer metrics; its spans are written to
``perfbench/out/<workload>-seed<seed>.trace.json``.

Each workload runs on its profile's own netlist, so ``--seed`` labels a
run but does not change its inputs.  ``--circuit-seed N`` regenerates the
netlist from generator seed ``N`` instead of the profile's seed.  Some
such designs make the flow raise (``--workload s35932 --circuit-seed 1``
fails with an infeasible stage-4 LP at iteration 2); those flows are
reported as failed, not hidden.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when a correctness check fails: an ERROR finding from
``repro.analysis.run_checks`` on a flow's result, or two flows of the run
deciding differently.  It is 2 when ``repro`` cannot be imported from
``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

from layers import ARG_COUNTS, ENTRIES, self_times, unattributed
from reference import scaled

if TYPE_CHECKING:  # measure imports repro, which is on the path only after import_repro()
    from measure import FlowRecord, Measurement

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: ROADMAP target for wall time no top-level layer call covers.
UNATTRIBUTED_TARGET = 0.05
#: Seconds a cold child process may take before it is killed.
CHILD_TIMEOUT = 150.0

Metrics = dict[str, tuple[float, str]]


def import_repro() -> float:
    """Import ``repro`` from ``src/``; return the seconds it took."""
    sys.path.insert(0, str(SRC))
    tic = time.perf_counter()
    import repro.analysis
    import repro.api

    elapsed = time.perf_counter() - tic
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro was imported from {repro.__file__}, not from {SRC}")
    return elapsed


def cold_flow(workload: str, index: int, circuit_seed: int | None) -> FlowRecord:
    """Run flow ``index`` as the only flow of a fresh child process."""
    from measure import FlowRecord

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--cold-child"]
    if circuit_seed is not None:
        cmd += ["--circuit-seed", str(circuit_seed)]
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            raise ChildProcessError(f"exit {out.returncode}: {out.stderr.strip()[-500:]}")
        record = FlowRecord(**json.loads(lines[-1]))
    except (ChildProcessError, subprocess.TimeoutExpired, ValueError, TypeError) as exc:
        return FlowRecord(index, False, 0.0, 0.0, 0.0, 0.0,
                          error=f"{type(exc).__name__}: {exc}", cold=True)
    record.index = index
    return record


def fingerprint(jobs: object) -> dict[str, Any]:
    """What the numbers depend on besides the code: cores, BLAS, versions."""
    import numpy
    import scipy

    from repro.parallel import resolve_jobs

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    doc: dict[str, Any] = {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "jobs": resolve_jobs(jobs),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "REPRO_JOBS"):
        doc[var] = os.environ.get(var)
    doc["id"] = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:12]
    return doc


def end_to_end(m: Measurement, import_s: float) -> Metrics:
    """End-to-end metrics; times are at reference host speed.

    ``import_s`` is this process's import of ``repro``,
    scaled by flow 0's reference; a child's import by its flow's.
    """
    flows = m.flows
    imports = [scaled(import_s, flows[0].reference_s)] + [
        scaled(f.import_s, f.reference_s) for f in flows if f.import_s is not None
    ]
    out: Metrics = {
        "setup_s": (
            statistics.median(imports)
            + statistics.median(scaled(f.gen_s, f.reference_s) for f in flows),
            "s",
        ),
        "cold_flow_s": (statistics.median(scaled(f.wall_s, f.reference_s) for f in m.cold), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "completed_share": (len(m.completed) / len(flows), "ratio"),
    }
    warm = m.warm(traced=False)
    if warm:
        out["flow_s"] = (statistics.median(scaled(f.wall_s, f.reference_s) for f in warm), "s")
        out["flow_cpu_s"] = (statistics.median(scaled(f.cpu_s, f.reference_s) for f in warm), "s")
    if m.completed:
        units = {"tapping_wl_um": "um", "signal_wl_um": "um",
                 "worst_slack_ps": "ps", "max_load_cap_ff": "fF"}
        for name, value in m.completed[0].quality.items():
            out[name] = (value, units[name])
    return out


def per_layer(m: Measurement) -> Metrics:
    traced = m.warm(traced=True)
    if not traced:
        return {}
    n = len(traced)
    indices = {f.index for f in traced}
    spans = [s for s in m.tracer.spans if s.flow in indices]
    selfs = self_times(spans)
    out: Metrics = {}
    for entry in ENTRIES:
        mine = [s for s in spans if s.name == entry.name]
        out[f"{entry.name}.calls"] = (len(mine) / n, "count")
        out[f"{entry.name}.s"] = (sum(s.duration for s in mine) / n, "s")
        out[f"{entry.name}.self_s"] = (sum(selfs[s.id] for s in mine) / n, "s")
        out[f"{entry.name}.cpu_s"] = (sum(s.cpu for s in mine) / n, "s")

    def total(attr: str) -> float:
        return float(sum(getattr(f, attr) for f in traced))

    def counter(name: str) -> float:
        return float(sum(f.counters.get(name, 0) for f in traced))

    lookups = total("cache_hits") + total("cache_misses")
    warm_tries = counter("assignment.warm.accepted") + counter("assignment.warm.rejected")
    out["core.flow.iterations"] = (total("iterations") / n, "count")
    out["core.flow.unattributed_s"] = (
        sum(unattributed([s for s in spans if s.flow == f.index], f.start, f.end)
            for f in traced) / n,
        "s",
    )
    out["core.cost.cache_lookups"] = (lookups / n, "count")
    out["core.cost.cache_hit_ratio"] = (total("cache_hits") / lookups if lookups else 0.0, "ratio")
    out["core.assignment_flow.warm_attempts"] = (warm_tries / n, "count")
    out["core.assignment_flow.warm_accept_ratio"] = (
        counter("assignment.warm.accepted") / warm_tries if warm_tries else 0.0,
        "ratio",
    )
    for name in ARG_COUNTS:
        out[name] = (sum(m.tracer.counts[(i, name)] for i in indices) / n, "count")
    out["placement.quadratic.cg_solves"] = (
        (counter("placement.solver.cg") + counter("placement.solver.pcg")) / n, "count"
    )
    out["timing.sta_vec.sources_repropagated"] = (
        counter("sta.sources-repropagated") / n, "count"
    )
    untraced = m.warm(traced=False)
    if untraced:
        out["trace_overhead"] = (
            statistics.median(f.wall_s for f in traced)
            / statistics.median(f.wall_s for f in untraced) - 1.0,
            "ratio",
        )
    return out


def amdahl_table(layers: Metrics, flow_s: float) -> list[str]:
    """Each layer's self time as a share of the traced flow's wall time."""
    rows = [(layers[f"{e.name}.self_s"][0], e.name) for e in ENTRIES]
    rows.append((layers["core.flow.unattributed_s"][0], "(unattributed)"))
    lines = [f"amdahl: self time per traced flow ({flow_s:.3f} s)"]
    for seconds, name in sorted(rows, reverse=True):
        lines.append(f"  {name:<46} {seconds:9.4f} s {100.0 * seconds / flow_s:6.2f} %")
    return lines


def write_trace(
    path: Path, workload: str, seed: int, fp: dict[str, Any], m: Measurement, layers: Metrics
) -> None:
    traced = m.warm(traced=True)
    t0 = min((f.start for f in traced), default=0.0)
    doc = {
        "workload": workload,
        "seed": seed,
        "fingerprint": fp,
        "flows": [
            {"index": f.index, "traced": f.traced, "start_s": f.start - t0,
             "end_s": f.end - t0, "error": f.error}
            for f in m.flows
        ],
        "spans": [
            {"id": s.id, "parent": s.parent, "name": s.name, "flow": s.flow,
             "thread": s.thread, "start_s": s.start - t0, "end_s": s.end - t0,
             "cpu_s": s.cpu}
            for s in m.tracer.spans
        ],
        "metrics": {name: value for name, (value, _) in layers.items()},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--circuit-seed", type=int, default=None)
    parser.add_argument("--cold-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_repro()
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        return 2
    from measure import measure, run_one
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.cold_child:
        record = run_one(workload, 0, circuit_seed=args.circuit_seed, check=False)
        record.cold, record.import_s = True, import_s
        print(json.dumps(dataclasses.asdict(record)))
        return 0
    fp = fingerprint(workload.options.jobs)
    print("fingerprint " + json.dumps(fp, sort_keys=True))

    m = measure(
        workload, args.seconds, bool(args.trace), args.circuit_seed,
        cold=lambda index: cold_flow(workload.name, index, args.circuit_seed),
    )
    for f in m.flows:
        if f.error is not None:
            print(f"failed: flow {f.index}: {f.error}")
    print(f"failed_share {m.failed / len(m.flows):.4f} ({m.failed} of {len(m.flows)} flows)")
    if len(m.hashes) > 1:
        print(f"INCORRECT: {len(m.hashes)} distinct decision hashes", file=sys.stderr)
    if any(f.error_findings for f in m.completed):
        print("INCORRECT: ERROR findings in a flow result", file=sys.stderr)

    if args.trace:
        metrics = per_layer(m)
        if metrics:
            flow_s = statistics.mean(f.wall_s for f in m.warm(traced=True))
            print("\n".join(amdahl_table(metrics, flow_s)))
            share = metrics["core.flow.unattributed_s"][0] / flow_s
            if share > UNATTRIBUTED_TARGET:
                print(f"WARNING: unattributed time is {100 * share:.1f} % of the traced "
                      f"flow, above the {100 * UNATTRIBUTED_TARGET:.0f} % target")
            path = OUT / f"{workload.name}-seed{args.seed}.trace.json"
            write_trace(path, workload.name, args.seed, fp, m, metrics)
            print(f"spans: {len(m.tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(m, import_s)
        warm = m.warm(traced=False) or m.cold
        print(f"measured medians: reference "
              f"{statistics.median(f.reference_s for f in m.flows):.3f} s, cold flow "
              f"{statistics.median(f.wall_s for f in m.cold):.3f} s, warm flow "
              f"{statistics.median(f.wall_s for f in warm):.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": m.correct,
        "attempted": len(m.flows),
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if m.correct else 1


if __name__ == "__main__":
    sys.exit(main())

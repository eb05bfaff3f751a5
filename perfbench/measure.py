"""Run a workload's flows, time them, and check what they decided.

The first flow of a process is the cold one.  The warm flows that follow
each get a freshly generated circuit, because the STA structure cache is
keyed weakly by circuit and reusing one circuit would hide its build.
An untraced run takes more cold samples from child processes, one flow
each, between its warm flows, so that the cold time is a median too.
A flow that raises is counted as failed and the run goes on.  Between
flows the run times the host reference (see ``reference.py``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis import DesignContext, run_checks
from repro.api import run_flow
from repro.constants import DEFAULT_TECHNOLOGY
from repro.core.flow import FlowResult
from repro.netlist import Circuit
from repro.obs import TraceCollector
from repro.timing import VectorizedTiming

from layers import Tracer, installed
from reference import reference_seconds
from workloads import Workload

#: Collector counters the traced run reports.
COUNTERS: tuple[str, ...] = (
    "assignment.warm.accepted",
    "assignment.warm.rejected",
    "placement.solver.cg",
    "placement.solver.pcg",
    "sta.sources-repropagated",
)


#: Cold flows an untraced run with child processes needs.
MIN_COLD = 3


@dataclass
class FlowRecord:
    index: int
    traced: bool
    gen_s: float
    start: float
    end: float
    cpu_s: float
    #: ``Type: message`` of the exception when the flow raised.
    error: str | None = None
    decision_hash: str = ""
    error_findings: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    #: The first flow of its process: flow 0, or a child process's flow.
    cold: bool = False
    #: Seconds a child process took to import ``repro``; None in this process.
    import_s: float | None = None
    #: Mean seconds of the host references timed just before and after this flow.
    reference_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Measurement:
    flows: list[FlowRecord]
    tracer: Tracer

    @property
    def completed(self) -> list[FlowRecord]:
        return [f for f in self.flows if f.error is None]

    @property
    def failed(self) -> int:
        return sum(1 for f in self.flows if f.error is not None)

    def warm(self, traced: bool) -> list[FlowRecord]:
        return [f for f in self.completed if not f.cold and f.traced == traced]

    @property
    def cold(self) -> list[FlowRecord]:
        """The completed cold flows, or every cold flow when none completed."""
        cold = [f for f in self.flows if f.cold]
        return [f for f in cold if f.error is None] or cold

    @property
    def hashes(self) -> set[str]:
        return {f.decision_hash for f in self.completed}

    @property
    def correct(self) -> bool:
        """Zero ERROR findings in every flow, one decision hash across flows."""
        return len(self.hashes) <= 1 and all(f.error_findings == 0 for f in self.completed)


def decision_hash(result: FlowResult) -> str:
    """SHA-256 of a flow's decisions: positions, ring assignment, schedule."""
    doc = {
        "positions": {n: [p.x, p.y] for n, p in sorted(result.positions.items())},
        "ring_of": dict(sorted(result.assignment.ring_of.items())),
        "schedule": dict(sorted(result.schedule.targets.items())),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def error_findings(workload: Workload, circuit: Circuit, result: FlowResult) -> int:
    """ERROR findings of the full rule registry on the flow's final iterate."""
    opts = workload.options
    capacities = None
    if opts.assignment == "flow":
        capacities = [
            int(c)
            for c in result.array.default_capacities(
                len(circuit.flip_flops), opts.capacity_headroom
            )
        ]
    pairs = VectorizedTiming(circuit, DEFAULT_TECHNOLOGY).analyze(result.positions).pairs
    ctx = DesignContext.from_flow(circuit, result, capacities=capacities, pairs=pairs)
    report = run_checks(ctx)
    return sum(1 for d in report.findings if d.severity.name == "ERROR")


def run_one(
    workload: Workload,
    index: int,
    tracer: Tracer | None = None,
    circuit_seed: int | None = None,
    check: bool = True,
) -> FlowRecord:
    """Generate a circuit, run one flow on it, and check the result.

    With ``check=False`` the result is hashed but not run through the
    checks; a run compares that hash with the checked flows' hashes.
    """
    tic = time.perf_counter()
    circuit = workload.circuit(circuit_seed)
    gen_s = time.perf_counter() - tic
    # A flow in a fresh process starts without the previous flow's garbage.
    gc.collect()
    collector = TraceCollector() if tracer is not None else None
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        if tracer is None:
            result = run_flow(circuit, options=workload.options)
        else:
            with installed(tracer), tracer.flow_scope(index):
                result = run_flow(circuit, options=workload.options, collector=collector)
    except Exception as exc:  # noqa: BLE001 - a raising flow is a counted failure
        end = time.perf_counter()
        return FlowRecord(
            index, tracer is not None, gen_s, start, end, time.process_time() - cpu0,
            error=f"{type(exc).__name__}: {exc}",
        )
    end = time.perf_counter()
    record = FlowRecord(index, tracer is not None, gen_s, start, end, time.process_time() - cpu0)
    final = result.final
    record.quality = {
        "tapping_wl_um": final.tapping_wirelength,
        "signal_wl_um": final.signal_wirelength,
        "worst_slack_ps": final.worst_slack,
        "max_load_cap_ff": final.max_load_capacitance,
    }
    record.decision_hash = decision_hash(result)
    if check:
        record.error_findings = error_findings(workload, circuit, result)
    record.iterations = len(result.history)
    record.cache_hits = sum(r.cost_cache_hits for r in result.history)
    record.cache_misses = sum(r.cost_cache_misses for r in result.history)
    if result.trace is not None:
        record.counters = {name: result.trace.counter(name) for name in COUNTERS}
    return record


def measure(
    workload: Workload,
    seconds: float,
    trace: bool,
    circuit_seed: int | None = None,
    log: Callable[[str], None] = print,
    cold: Callable[[int], FlowRecord] | None = None,
) -> Measurement:
    """Run flows for ``seconds``: a cold one, then warm ones.

    Untraced runs need two warm flows; with ``cold``, which runs flow
    ``index`` in a fresh process, they alternate warm flows and cold ones
    and need three cold flows.  Traced runs alternate traced and untraced
    warm flows and need one of each.  The loop stops at the first flow
    boundary after ``seconds`` once those are there.
    """
    tracer = Tracer()
    flows: list[FlowRecord] = []
    reference_seconds()  # warm-up: the first pass starts BLAS threads
    t0 = time.perf_counter()
    before = reference_seconds()
    while True:
        index = len(flows)
        traced = trace and index % 2 == 1
        if index > 0 and cold is not None and not trace and index % 2 == 0:
            record = cold(index)
        else:
            record = run_one(workload, index, tracer if traced else None, circuit_seed)
            record.cold = index == 0
        after = reference_seconds()
        record.reference_s = (before + after) / 2
        before = after
        flows.append(record)
        status = record.error or f"hash {record.decision_hash[:12]}"
        kind = "traced" if traced else "cold" if record.cold else "warm"
        log(f"flow {index} {kind} {record.wall_s:.3f} s cpu {record.cpu_s:.3f} s "
            f"reference {record.reference_s:.3f} s {status}")
        warm = [f for f in flows if not f.cold]
        if trace:
            enough = any(f.traced for f in warm) and any(not f.traced for f in warm)
        else:
            enough = len(warm) >= 2 and (cold is None or len(flows) - len(warm) >= MIN_COLD)
        if enough and time.perf_counter() - t0 >= seconds:
            return Measurement(flows, tracer)

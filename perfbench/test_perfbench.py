"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repro.core.flow as flow_module  # noqa: E402
import repro.placement.incremental as incremental_module  # noqa: E402
from repro.core.flow import FlowOptions  # noqa: E402
from repro.netlist.profiles import small_profile  # noqa: E402
from repro.timing.sta_vec import TimingStructure  # noqa: E402

import run  # noqa: E402
from layers import ENTRIES, Span, Tracer, _owner, installed, self_times, unattributed  # noqa: E402
from measure import FlowRecord, measure, run_one  # noqa: E402
from reference import scaled  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload(
    "tiny",
    "a laptop-scale circuit for the benchmark's own tests",
    small_profile("tiny", num_cells=200, num_flipflops=24, num_rings=4),
    FlowOptions(max_iterations=2, ring_grid_side=2),
)


def _bindings() -> dict[tuple[int, str], object]:
    """Every attribute the wrappers may replace, keyed by (owner id, name)."""
    out: dict[tuple[int, str], object] = {}
    for entry in ENTRIES:
        owner, attr = _owner(entry)
        if isinstance(owner, type):
            out[(id(owner), attr)] = owner.__dict__[attr]
            continue
        fn = getattr(owner, attr)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for key, value in vars(module).items():
                    if value is fn:
                        out[(id(module), key)] = value
    return out


def _current(owners: dict[int, object], key: tuple[int, str]) -> object:
    owner = owners[key[0]]
    return owner.__dict__[key[1]] if isinstance(owner, type) else getattr(owner, key[1])


def test_wrappers_restore_original_attributes() -> None:
    before = _bindings()
    owners = {id(m): m for m in list(sys.modules.values())}
    owners.update({id(_owner(e)[0]): _owner(e)[0] for e in ENTRIES})
    original_legalize = flow_module.legalize
    original_build = TimingStructure.__dict__["build"]
    try:
        with installed(Tracer()):
            assert flow_module.legalize is not original_legalize
            # Both call-site bindings of legalize go through the wrapper.
            assert incremental_module.legalize is flow_module.legalize
            assert isinstance(TimingStructure.__dict__["build"], staticmethod)
            assert TimingStructure.__dict__["build"] is not original_build
            raise RuntimeError("leave the block by an exception")
    except RuntimeError:
        pass
    for key, value in before.items():
        assert _current(owners, key) is value
    assert flow_module.legalize is original_legalize


def _span(sid: int, parent: int | None, start: float, end: float) -> Span:
    return Span(sid, parent, f"s{sid}", 0, 0, start, end, 0.0)


def test_self_time_subtracts_the_union_of_nested_children() -> None:
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),  # overlaps its sibling, as pool threads do
        _span(3, 1, 2.0, 3.0),
        _span(4, None, 12.0, 13.0),
        _span(5, 4, 12.5, 14.0),  # runs past its parent's end
    ]
    selfs = self_times(spans)
    assert selfs == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 0.5, 5: 1.5}
    assert unattributed(spans, 0.0, 14.0) == 3.0


def test_a_raising_flow_is_counted_not_fatal() -> None:
    broken = Workload("broken", "raises", TINY.profile, TINY.options.replace(net_weighting="bogus"))
    m = measure(broken, 0.0, trace=False, log=lambda _: None)
    assert len(m.flows) == 3 and m.failed == 3
    assert all(f.error.startswith("ReproError") for f in m.flows)
    assert m.correct and not m.completed
    metrics = run.end_to_end(m, 0.5)
    assert metrics["completed_share"][0] == 0.0


def test_decision_hashes_are_equal_across_tiny_runs() -> None:
    first = run_one(TINY, 0)
    second = run_one(TINY, 1)
    assert first.error is None and second.error is None
    assert first.decision_hash == second.decision_hash
    assert first.error_findings == 0 == second.error_findings


def test_runs_report_exactly_the_declared_metrics() -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    m = measure(TINY, 0.0, trace=True, log=lambda _: None)
    assert m.correct and m.failed == 0
    layers = run.per_layer(m)
    assert set(layers) == {d["name"] for d in declared["per_layer"]}
    assert layers["placement.quadratic.place.calls"][0] >= 1
    assert layers["opt.mincostflow.dense_cells"][0] > 0
    nested = [s for s in m.tracer.spans if s.name == "placement.quadratic.place"]
    assert any(s.parent is not None for s in nested)  # under incremental_place
    untraced = measure(TINY, 0.0, trace=False, log=lambda _: None)
    e2e = run.end_to_end(untraced, 0.5)
    assert set(e2e) == {d["name"] for d in declared["end_to_end"]}
    for d in declared["end_to_end"] + declared["per_layer"]:
        got = (e2e if d in declared["end_to_end"] else layers)[d["name"]]
        assert got[1] == d["unit"]


def test_cold_flows_alternate_with_warm_ones() -> None:
    def cold(index: int) -> FlowRecord:
        record = run_one(TINY, index, check=False)
        record.cold, record.import_s = True, 0.25
        return record

    m = measure(TINY, 0.0, trace=False, log=lambda _: None, cold=cold)
    assert [f.cold for f in m.flows] == [True, False, True, False, True]
    assert m.correct and len(m.cold) == 3 and len(m.warm(traced=False)) == 2
    assert all(f.reference_s > 0 for f in m.flows)
    metrics = run.end_to_end(m, 0.5)
    imports = sorted(
        [scaled(0.5, m.flows[0].reference_s)]
        + [scaled(0.25, f.reference_s) for f in m.flows[1:] if f.cold]
    )
    gens = sorted(scaled(f.gen_s, f.reference_s) for f in m.flows)
    assert abs(metrics["setup_s"][0] - (imports[1] + gens[2])) < 1e-12


def test_a_failing_child_is_a_failed_cold_flow() -> None:
    record = run.cold_flow("no-such-workload", 4, None)
    assert record.cold and record.index == 4
    assert record.error is not None and record.error.startswith("ChildProcessError: exit 2")

"""Flow-level observability: tracing must observe, never perturb."""

import json

import pytest

from repro import FlowOptions, IntegratedFlow
from repro.netlist import S27_BENCH, parse_bench_text
from repro.obs import TraceCollector

#: Stages that run once per iteration of the Fig. 3 loop.  Stage 6
#: (incremental placement) runs *between* iterations, so it appears
#: ``iterations - 1`` times and is asserted separately.
STAGE_SPANS = (
    "stage3.assignment",
    "stage4.cost-driven-skew",
    "stage5.evaluate",
)


@pytest.fixture(scope="module")
def s27():
    return parse_bench_text(S27_BENCH, "s27")


def _metrics(result):
    recs = [result.base, *result.history]
    return [
        (
            r.tapping_wirelength,
            r.signal_wirelength,
            r.average_flipflop_distance,
            r.max_load_capacitance,
            r.overall_cost,
        )
        for r in recs
    ]


class TestTraceDoesNotPerturb:
    def test_identical_metrics_trace_on_and_off(self, s27):
        opts = FlowOptions(ring_grid_side=2, max_iterations=2)
        off = IntegratedFlow(s27, options=opts).run()
        on = IntegratedFlow(s27, options=opts.replace(trace=True)).run()
        assert off.trace is None
        assert on.trace is not None
        assert _metrics(on) == _metrics(off)
        assert on.schedule.targets == off.schedule.targets
        assert {n: (p.x, p.y) for n, p in on.positions.items()} == {
            n: (p.x, p.y) for n, p in off.positions.items()
        }


class TestFlowTraceContents:
    @pytest.fixture(scope="class")
    def result(self, s27):
        return IntegratedFlow(
            s27, options=FlowOptions(ring_grid_side=2, max_iterations=2, trace=True)
        ).run()

    def test_one_span_per_stage_per_iteration(self, result):
        trace = result.trace
        iterations = len(result.history)
        assert iterations >= 1
        assert len(trace.by_name("stage1.initial-placement")) == 1
        assert len(trace.by_name("stage2.max-slack-skew")) == 1
        for name in STAGE_SPANS:
            spans = trace.by_name(name)
            assert len(spans) == iterations, name
            assert [s.attrs["iteration"] for s in spans] == list(
                range(1, iterations + 1)
            )
        # Stage 6 runs between iterations: once per non-final iteration.
        assert (
            len(trace.by_name("stage6.incremental-placement"))
            == iterations - 1
        )

    def test_stage1_placement_sub_spans(self, result):
        (stage1,) = result.trace.by_name("stage1.initial-placement")
        for name in ("placement.quadratic", "placement.legalize"):
            inside = [
                s
                for s in result.trace.by_name(name)
                if stage1.start_ns <= s.start_ns
                and s.end_ns <= stage1.end_ns
                and s.depth == stage1.depth + 1
            ]
            assert len(inside) == 1, name

    def test_engine_and_cache_instrumentation(self, result):
        trace = result.trace
        assert trace.counter("flow.iterations") == len(result.history)
        assert trace.counter("assignment.flipflops") > 0
        assert trace.counter("tapping.cache.misses") > 0
        assert len(trace.by_name("assignment.network-flow")) >= 1
        assert len(trace.by_name("tapping.cost-matrix")) >= 1
        assert "flow.overall-cost" in trace.gauges

    def test_explicit_collector_wins(self, s27):
        obs = TraceCollector()
        result = IntegratedFlow(
            s27,
            options=FlowOptions(ring_grid_side=2, max_iterations=1),
            collector=obs,
        ).run()
        assert result.trace is not None
        assert result.trace.counter("flow.iterations") == len(result.history)

    def test_result_to_dict_serializable(self, result):
        doc = result.to_dict()
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["circuit"] == "s27"
        assert back["trace"]["num_spans"] == len(result.trace.spans)
        assert len(back["history"]) == len(result.history)
        assert back["base"]["finding_counts"] == dict(
            result.base.finding_counts
        )

    def test_to_dict_without_trace(self, s27):
        result = IntegratedFlow(
            s27, options=FlowOptions(ring_grid_side=2, max_iterations=1)
        ).run()
        doc = result.to_dict()
        assert doc["trace"] is None
        json.dumps(doc)  # still fully serializable

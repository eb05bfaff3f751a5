"""Tests for the repro.api facade and the options dict round-trips."""

import pytest

import repro
import repro.core.flow
from repro import FlowOptions, ReproError, check_design, run_flow
from repro.analysis import CheckConfig, CheckReport, Severity
from repro.api import FlowRequest, flow_options, resolve_circuit
from repro.errors import CheckError
from repro.netlist import PROFILES, S27_BENCH, parse_bench_text
from repro.obs import TraceCollector


@pytest.fixture(scope="module")
def s27():
    return parse_bench_text(S27_BENCH, "s27")


class TestResolveCircuit:
    def test_circuit_passthrough(self, s27):
        assert resolve_circuit(s27) is s27

    def test_named_benchmark(self):
        circuit = resolve_circuit("s5378")
        assert circuit.name == "s5378"

    def test_unknown_name(self):
        with pytest.raises(ReproError, match="unknown benchmark 'nope'"):
            resolve_circuit("nope")


class TestFlowOptionsBuilder:
    def test_profile_ring_grid_injected(self):
        opts = flow_options("s5378")
        assert opts.ring_grid_side == PROFILES["s5378"].ring_grid_side

    def test_explicit_override_wins(self):
        assert flow_options("s5378", ring_grid_side=2).ring_grid_side == 2

    def test_base_options_respected(self):
        base = FlowOptions(ring_grid_side=3)
        assert flow_options("s5378", base).ring_grid_side == 3

    def test_circuit_object_keeps_default(self, s27):
        assert flow_options(s27).ring_grid_side is None

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            flow_options("s5378", not_an_option=1)


class TestRunFlow:
    def test_run_flow_on_circuit(self, s27):
        result = run_flow(s27, ring_grid_side=2, max_iterations=1)
        assert result.circuit_name == "s27"
        assert result.trace is None
        assert len(result.history) == 1

    def test_run_flow_traced(self, s27):
        result = run_flow(s27, ring_grid_side=2, max_iterations=1, trace=True)
        assert result.trace is not None
        assert result.trace.counter("flow.iterations") == 1

    def test_run_flow_explicit_collector(self, s27):
        obs = TraceCollector()
        result = run_flow(
            s27, ring_grid_side=2, max_iterations=1, collector=obs
        )
        assert result.trace is not None
        assert result.trace.by_name("stage1.initial-placement")

    def test_exported_from_package_root(self):
        assert repro.run_flow is run_flow
        assert repro.check_design is check_design
        assert "run_flow" in repro.__all__ and "check_design" in repro.__all__


class TestCheckDesign:
    def test_netlist_only(self, s27):
        report = check_design(s27, netlist_only=True)
        assert isinstance(report, CheckReport)
        assert report.design == "s27"
        assert report.rules_run  # netlist rules apply without a flow

    def test_full_flow_check(self, s27):
        report = check_design(s27, ring_grid_side=2, max_iterations=1)
        # Flow-level rules now apply too, so strictly more rules run.
        netlist_only = check_design(s27, netlist_only=True)
        assert set(netlist_only.rules_run) < set(report.rules_run)

    def test_config_respected(self, s27):
        config = CheckConfig(enabled=("RCK101",))
        report = check_design(s27, netlist_only=True, config=config)
        assert set(report.rules_run) <= {"RCK101"}


class TestFlowOptionsRoundTrip:
    def test_to_from_dict(self):
        opts = FlowOptions(ring_grid_side=3, max_iterations=2, trace=True)
        data = opts.to_dict()
        assert data["ring_grid_side"] == 3 and data["trace"] is True
        assert FlowOptions.from_dict(data) == opts

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ReproError, match="unknown FlowOptions field"):
            FlowOptions.from_dict({"ring_grid_side": 2, "bogus": 1})

    def test_replace(self):
        opts = FlowOptions()
        assert opts.replace(max_iterations=9).max_iterations == 9
        assert opts.max_iterations != 9  # original untouched

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            FlowOptions(3)  # positional construction is not part of the API


#: One bad value per engine/mode field checked at construction; each
#: differs from a valid value only in case or spelling, so a silent
#: fallback would have hidden it.
BAD_OPTION_VALUES = [
    ("assignment", "Flow"),
    ("skew_mode", "min-max"),
]


class TestFlowOptionsValidation:
    """Unknown engine/mode values raise at construction, naming the
    field and the value, on every path that builds options."""

    @pytest.mark.parametrize("field,value", BAD_OPTION_VALUES)
    def test_direct_construction(self, field, value):
        with pytest.raises(ReproError, match=rf"{field} '{value}'"):
            FlowOptions(**{field: value})

    @pytest.mark.parametrize("field,value", BAD_OPTION_VALUES)
    def test_from_dict(self, field, value):
        with pytest.raises(ReproError, match=rf"{field} '{value}'"):
            FlowOptions.from_dict({field: value})

    @pytest.mark.parametrize("field,value", BAD_OPTION_VALUES)
    def test_flow_request_document(self, field, value):
        doc = FlowRequest(circuit="s27").to_dict()
        doc["options"][field] = value
        with pytest.raises(ReproError, match=rf"{field} '{value}'"):
            FlowRequest.from_dict(doc)

    def test_bad_net_weighting_raises_before_stage1(self, s27, monkeypatch):
        """``net_weighting`` is checked when the run starts, before the
        initial placement is built."""
        opts = FlowOptions(net_weighting="crit")

        def never_placed(*args, **kwargs):
            raise AssertionError("stage 1 ran with a bad net_weighting")

        monkeypatch.setattr(repro.core.flow, "QuadraticPlacer", never_placed)
        with pytest.raises(ReproError, match="net_weighting 'crit'"):
            run_flow(s27, options=opts)

    @pytest.mark.parametrize(
        "field", ["sta_engine", "sta_dirty_epsilon", "placer_assembly", "placer_solver"]
    )
    def test_removed_engine_fields_rejected(self, field):
        """The reference-engine selectors are gone from FlowOptions; an
        old document naming one fails loudly instead of being ignored."""
        data = FlowOptions().to_dict()
        assert field not in data
        data[field] = "scalar"
        with pytest.raises(ReproError, match=field):
            FlowOptions.from_dict(data)


class TestCheckConfigRoundTrip:
    def test_to_from_dict(self):
        cfg = CheckConfig(
            disabled=("RCK101",),
            severity_overrides={"RCK103": Severity.ERROR},
            fail_on=Severity.WARNING,
        )
        data = cfg.to_dict()
        assert data == {
            "enabled": [],
            "disabled": ["RCK101"],
            "severity_overrides": {"RCK103": "error"},
            "fail_on": "warning",
        }
        assert CheckConfig.from_dict(data) == cfg

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(CheckError, match="unknown CheckConfig field"):
            CheckConfig.from_dict({"enable": ["RCK101"]})

    def test_replace_revalidates(self):
        cfg = CheckConfig()
        with pytest.raises(CheckError):
            cfg.replace(enabled=("NOT_A_RULE",))

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            CheckConfig(("RCK101",))

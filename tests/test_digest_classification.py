"""Digest knob-classification regression suite.

Every ``FlowOptions`` field except the ``EXECUTION_ONLY_OPTION_FIELDS``
carve-out is classified result-affecting (see
``repro.api.EXECUTION_ONLY_FIELDS``): two requests that differ in any
result-affecting flow knob must never share a digest, or the server
``ResultCache`` and the experiments ``CheckpointStore`` could serve a
result computed under different options.  Execution-only option fields
(today just ``jobs``, the intra-run worker count, which the
``repro.parallel`` dispatch layer guarantees is bit-identical for any
value) must do the opposite: they must NEVER change a digest, or the
cache keyspace would fragment on a knob that cannot change the answer.
These tests are parametrized over the dataclass fields themselves, so a
newly added knob is covered automatically on the result-affecting side
and must be explicitly carved out here to become execution-only.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import pytest

from repro.api import (
    EXECUTION_ONLY_FIELDS,
    CheckRequest,
    FlowRequest,
    TablesRequest,
)
from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import EXECUTION_ONLY_OPTION_FIELDS, FlowOptions
from repro.experiments.checkpoint import experiment_key

CIRCUIT = "s1423"

#: Literal-typed knobs need an explicit alternative value; everything
#: else is perturbed by type below.
LITERAL_ALTERNATIVES: dict[str, Any] = {
    "assignment": "ilp",
    "skew_mode": "minmax",
    "net_weighting": "critical",
    "jobs": "auto",
}

OPTION_FIELDS = [f.name for f in dataclasses.fields(FlowOptions)]
RESULT_AFFECTING_FIELDS = [
    name for name in OPTION_FIELDS if name not in EXECUTION_ONLY_OPTION_FIELDS
]
EXECUTION_ONLY_OPTIONS = sorted(EXECUTION_ONLY_OPTION_FIELDS)


def perturbed_value(name: str, baseline: FlowOptions) -> Any:
    """A valid value for ``name`` that differs from ``baseline``'s."""
    if name in LITERAL_ALTERNATIVES:
        alternative = LITERAL_ALTERNATIVES[name]
        assert alternative != getattr(baseline, name)
        return alternative
    current = getattr(baseline, name)
    if isinstance(current, bool):
        return not current
    if isinstance(current, int):
        return current + 3
    if isinstance(current, float):
        return current + 1.25
    if current is None:  # ring_grid_side — dodge the profile default too
        norm = FlowRequest(circuit=CIRCUIT).normalized()
        side = norm.options.ring_grid_side
        assert side is not None
        return side + 2
    raise AssertionError(f"no perturbation rule for FlowOptions.{name}")


class TestFlowOptionsFieldsAreResultAffecting:
    """Any result-affecting FlowOptions change must change every digest."""

    @pytest.mark.parametrize("name", RESULT_AFFECTING_FIELDS)
    def test_flow_request_digest_differs(self, name: str) -> None:
        base = FlowRequest(circuit=CIRCUIT)
        changed = base.replace(
            options=base.options.replace(
                **{name: perturbed_value(name, base.options)}
            )
        )
        assert base.digest() != changed.digest()

    @pytest.mark.parametrize("name", RESULT_AFFECTING_FIELDS)
    def test_check_request_digest_differs(self, name: str) -> None:
        base = CheckRequest(circuit=CIRCUIT)
        changed = base.replace(
            options=base.options.replace(
                **{name: perturbed_value(name, base.options)}
            )
        )
        assert base.digest() != changed.digest()

    @pytest.mark.parametrize("name", RESULT_AFFECTING_FIELDS)
    def test_tables_request_digest_differs(self, name: str) -> None:
        base = TablesRequest(circuits=(CIRCUIT,))
        changed = base.replace(
            options=base.options.replace(
                **{name: perturbed_value(name, base.options)}
            )
        )
        assert base.digest() != changed.digest()

    @pytest.mark.parametrize("name", RESULT_AFFECTING_FIELDS)
    def test_experiment_key_differs(self, name: str) -> None:
        options = FlowOptions()
        changed = options.replace(**{name: perturbed_value(name, options)})
        assert experiment_key(
            "exp", options, DEFAULT_TECHNOLOGY
        ) != experiment_key("exp", changed, DEFAULT_TECHNOLOGY)


class TestExecutionOnlyFieldsAreExcluded:
    """Execution knobs must NOT fragment the cache keyspace."""

    def test_flow_deadline_excluded(self) -> None:
        base = FlowRequest(circuit=CIRCUIT)
        assert base.digest() == base.replace(deadline_seconds=5.0).digest()

    def test_check_deadline_excluded(self) -> None:
        base = CheckRequest(circuit=CIRCUIT)
        assert base.digest() == base.replace(deadline_seconds=5.0).digest()

    def test_tables_execution_knobs_excluded(self) -> None:
        base = TablesRequest(circuits=(CIRCUIT,))
        changed = base.replace(
            parallel=4,
            timeout=30.0,
            max_retries=5,
            retry_backoff=2.0,
            checkpoint_dir="/tmp/ckpt",
            resume=True,
            deadline_seconds=60.0,
        )
        assert base.digest() == changed.digest()


class TestExecutionOnlyOptionFieldsAreExcluded:
    """Execution-only option knobs (``jobs``) never change any digest.

    The intra-run worker count is bit-identical by the parallel layer's
    determinism contract, so two requests differing only in ``jobs``
    must share cache entries, checkpoints, and server results.
    """

    @pytest.mark.parametrize("name", EXECUTION_ONLY_OPTIONS)
    def test_flow_request_digest_unchanged(self, name: str) -> None:
        base = FlowRequest(circuit=CIRCUIT)
        changed = base.replace(
            options=base.options.replace(
                **{name: perturbed_value(name, base.options)}
            )
        )
        assert base.digest() == changed.digest()

    @pytest.mark.parametrize("name", EXECUTION_ONLY_OPTIONS)
    def test_check_request_digest_unchanged(self, name: str) -> None:
        base = CheckRequest(circuit=CIRCUIT)
        changed = base.replace(
            options=base.options.replace(
                **{name: perturbed_value(name, base.options)}
            )
        )
        assert base.digest() == changed.digest()

    @pytest.mark.parametrize("name", EXECUTION_ONLY_OPTIONS)
    def test_tables_request_digest_unchanged(self, name: str) -> None:
        base = TablesRequest(circuits=(CIRCUIT,))
        changed = base.replace(
            options=base.options.replace(
                **{name: perturbed_value(name, base.options)}
            )
        )
        assert base.digest() == changed.digest()

    @pytest.mark.parametrize("name", EXECUTION_ONLY_OPTIONS)
    def test_experiment_key_unchanged(self, name: str) -> None:
        options = FlowOptions()
        changed = options.replace(**{name: perturbed_value(name, options)})
        assert experiment_key(
            "exp", options, DEFAULT_TECHNOLOGY
        ) == experiment_key("exp", changed, DEFAULT_TECHNOLOGY)

    def test_jobs_integer_values_share_one_digest(self) -> None:
        digests = {
            FlowRequest(
                circuit=CIRCUIT,
                options=FlowOptions(jobs=jobs),
            ).digest()
            for jobs in (1, 2, 8, "auto")
        }
        assert len(digests) == 1


class TestClassificationTableIsSound:
    """The exclusion table only names real fields, top-level or dotted."""

    @pytest.mark.parametrize(
        ("kind", "request_cls"),
        [("flow", FlowRequest), ("check", CheckRequest), ("tables", TablesRequest)],
    )
    def test_excluded_fields_exist(self, kind: str, request_cls: type) -> None:
        known = {f.name for f in dataclasses.fields(request_cls)}
        for entry in EXECUTION_ONLY_FIELDS[kind]:
            head, dot, leaf = entry.partition(".")
            assert head in known, entry
            if dot:
                # Dotted paths reach one level into the options document.
                assert head == "options", entry
                assert leaf in set(OPTION_FIELDS), entry

    def test_option_carve_out_matches_flow_module(self) -> None:
        # Every dotted options path in the request-level table is exactly
        # the core-module carve-out — neither side can drift alone.
        for excluded in EXECUTION_ONLY_FIELDS.values():
            dotted = {
                entry.partition(".")[2]
                for entry in excluded
                if entry.startswith("options.")
            }
            assert dotted == set(EXECUTION_ONLY_OPTION_FIELDS)

    def test_no_result_affecting_option_is_excluded(self) -> None:
        for excluded in EXECUTION_ONLY_FIELDS.values():
            assert not (excluded & set(OPTION_FIELDS))
            dotted = {
                entry.partition(".")[2]
                for entry in excluded
                if "." in entry
            }
            assert not (dotted & set(RESULT_AFFECTING_FIELDS))

"""Shared infrastructure for the benchmark harness.

Every table/figure benchmark pulls from one session-scoped
:class:`~repro.experiments.ExperimentSuite` over the paper's five ISCAS89
circuits (override with ``REPRO_BENCH_CIRCUITS=s9234,s5378``), times a
representative kernel with pytest-benchmark, and registers its regenerated
table through :func:`record_artifact`; a terminal-summary hook prints all
artifacts at the end of the run so they are captured in ``bench_output.txt``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.core import FlowOptions
from repro.experiments import ExperimentSuite
from repro.netlist import PROFILE_ORDER

# The test oracles (tests/oracles.py) are the baselines of the gates
# that time a production engine against the simpler path it replaced.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

_ARTIFACTS: list[tuple[str, str]] = []


def record_artifact(title: str, text: str) -> None:
    """Register a rendered table/figure for the end-of-run summary."""
    _ARTIFACTS.append((title, text))


def bench_circuits() -> list[str]:
    raw = os.environ.get("REPRO_BENCH_CIRCUITS", "")
    if raw.strip():
        return [name.strip() for name in raw.split(",") if name.strip()]
    return list(PROFILE_ORDER)


def table1_time_limit() -> float:
    return float(os.environ.get("REPRO_BENCH_ILP_TIME_LIMIT", "10.0"))


@pytest.fixture(scope="session")
def suite() -> ExperimentSuite:
    # check_invariants: every flow iteration runs the cheap static rules
    # so the Fig. 3 artifact can prove converged runs are violation-free.
    return ExperimentSuite(
        circuits=bench_circuits(),
        options=FlowOptions(check_invariants=True),
    )


@pytest.fixture(scope="session")
def s9234_experiment(suite):
    """The first configured circuit's experiment (kernel-benchmark input)."""
    return suite.run(suite.names[0])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ARTIFACTS:
        return
    tr = terminalreporter
    tr.section("reproduced paper tables and figures")
    for title, text in _ARTIFACTS:
        tr.write_line("")
        tr.write_line(text)

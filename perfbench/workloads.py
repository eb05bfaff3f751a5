"""The benchmark's workloads: one Fig. 3 flow configuration each.

A workload is a circuit profile plus the :class:`FlowOptions` a run uses.
Its circuit is the profile's netlist, generated from the profile's seed
exactly as ``repro run`` builds it, so every run of a workload sees the
same inputs.  ``circuit_seed`` regenerates the netlist from another
generator seed: a different design with the same statistics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.flow import FlowOptions
from repro.netlist import Circuit
from repro.netlist.generator import generate_circuit
from repro.netlist.profiles import PROFILES, CircuitProfile, scale_profile


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profile: CircuitProfile
    options: FlowOptions

    def circuit(self, circuit_seed: int | None = None) -> Circuit:
        """A freshly generated copy of this workload's circuit."""
        profile = self.profile
        if circuit_seed is not None:
            profile = dataclasses.replace(profile, seed=circuit_seed)
        return generate_circuit(profile)


def _paper(name: str, **options: object) -> tuple[CircuitProfile, FlowOptions]:
    profile = PROFILES[name]
    return profile, FlowOptions(ring_grid_side=profile.ring_grid_side, **options)


_REGDENSE = scale_profile("regdense12k", 12_000, num_flipflops=3_000, num_rings=144)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "s35932",
            "Table II s35932 with default options: placement (global solve, "
            "legalize, incremental) is about half the wall, the parallel "
            "layer is bypassed",
            *_paper("s35932", max_iterations=3, jobs=1),
        ),
        Workload(
            "regdense12k",
            "register-dense 12k-cell Rent circuit at jobs=auto: the Section V "
            "transportation solve, cost matrix and parallel dispatch dominate",
            _REGDENSE,
            FlowOptions(
                ring_grid_side=_REGDENSE.ring_grid_side,
                max_iterations=2,
                jobs="auto",
            ),
        ),
        Workload(
            "ilp-s38417",
            "s38417 with the Section VI ILP, min-max skew, critical-net "
            "weighting and in-flow checks: bypasses min-cost flow, exercises "
            "timing.critical and analysis",
            *_paper(
                "s38417",
                assignment="ilp",
                skew_mode="minmax",
                net_weighting="critical",
                check_invariants=True,
                jobs=1,
            ),
        ),
    )
}

"""Flip-flop assignment minimizing total tapping cost (Section V).

The 0-1 program

    minimize   sum_ij c_ij x_ij
    subject to sum_j x_ij  = 1      (every flip-flop on exactly one ring)
               sum_i x_ij <= U_j    (ring capacity)

is totally unimodular and solved exactly as a min-cost network flow
(Fig. 4).  Two backends:

* ``"transportation"`` (default) — the candidate-pruned arcs only, each
  ring split into unit capacity slots, solved as a sparse min-weight
  full bipartite matching (:func:`repro.opt.solve_transportation`);
  the production path.
* ``"ssp"`` — the from-scratch successive-shortest-path solver in
  :mod:`repro.opt.mincostflow`, building the exact Fig. 4 network.
  Slower; used for cross-validation.
"""

from __future__ import annotations

from typing import Literal, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from ..constants import Technology
from ..errors import AssignmentError
from ..geometry import Point
from ..obs import NULL_COLLECTOR, Collector
from ..opt.mincostflow import ArcRef, FlowNetwork, solve_transportation
from ..rotary import RingArray
from .cost import (
    Assignment,
    TappingCostCache,
    TappingCostMatrix,
    realize_assignment,
)


def assign_min_tapping_cost(
    matrix: TappingCostMatrix,
    capacities: Sequence[int],
    backend: Literal["transportation", "ssp"] = "transportation",
) -> npt.NDArray[np.intp]:
    """Optimal capacitated assignment; returns ``assign[i] = ring index``."""
    if len(capacities) != matrix.num_rings:
        raise AssignmentError(
            f"capacities has {len(capacities)} entries for {matrix.num_rings} rings"
        )
    if backend == "transportation":
        return solve_transportation(matrix.costs, np.asarray(capacities))
    if backend == "ssp":
        return _assign_via_ssp(matrix, capacities)
    raise AssignmentError(f"unknown assignment backend {backend!r}")


def _assign_via_ssp(
    matrix: TappingCostMatrix, capacities: Sequence[int]
) -> npt.NDArray[np.intp]:
    """Build the literal Fig. 4 network and solve it with the SSP kernel."""
    net = FlowNetwork()
    n_ff = matrix.num_flipflops
    arc_of: dict[tuple[int, int], ArcRef] = {}
    for i in range(n_ff):
        net.add_arc("source", ("ff", i), capacity=1, cost=0.0)
        for j in matrix.candidates[i]:
            # A repeated candidate ring would add a parallel arc whose
            # ``arc_of`` entry overwrites the first; the unit of flow can
            # then sit on the shadowed arc and vanish from the readback,
            # leaving the flip-flop spuriously "unassigned".  The cost of
            # a duplicate is identical (same matrix column), so the first
            # arc is authoritative and duplicates are skipped.
            if (i, int(j)) in arc_of:
                continue
            arc_of[(i, int(j))] = net.add_arc(
                ("ff", i), ("ring", int(j)), capacity=1, cost=float(matrix.costs[i, j])
            )
    for j, cap in enumerate(capacities):
        net.add_arc(("ring", j), "target", capacity=int(cap), cost=0.0)
    result = net.solve({"source": n_ff, "target": -n_ff})
    assign = np.full(n_ff, -1, dtype=np.intp)
    for (i, j), ref in arc_of.items():
        if result.flow_on(ref) > 0:
            assign[i] = j
    if (assign < 0).any():
        raise AssignmentError("network flow left flip-flops unassigned")
    return assign


def network_flow_assignment(
    matrix: TappingCostMatrix,
    array: RingArray,
    positions: Mapping[str, Point],
    targets: Mapping[str, float],
    tech: Technology,
    capacities: Sequence[int] | None = None,
    backend: Literal["transportation", "ssp"] = "transportation",
    cache: TappingCostCache | None = None,
    collector: Collector = NULL_COLLECTOR,
) -> Assignment:
    """End-to-end Section V assignment returning realized tappings.

    With a ``cache`` (the integrated flow's), the realization reuses the
    tapping solutions computed during the matrix build.
    """
    caps = (
        array.default_capacities(matrix.num_flipflops)
        if capacities is None
        else list(capacities)
    )
    with collector.span("assignment.network-flow", backend=backend):
        collector.count("assignment.flipflops", matrix.num_flipflops)
        collector.count(
            "assignment.candidate-arcs",
            sum(int(c.size) for c in matrix.candidates),
        )
        assign = assign_min_tapping_cost(matrix, caps, backend=backend)
        return realize_assignment(
            assign, matrix, array, positions, targets, tech, cache=cache
        )

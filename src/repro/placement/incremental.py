"""Stable incremental placement (stage 6 of the paper's flow).

Re-places the design starting from an existing placement: every cell is
anchored to its previous position (stability — "small changes on the
netlist should not cause dramatic change on the placement result") while
pseudo nets pull flip-flops toward their assigned rotary rings.  Runs
considerably faster than the initial placement because the quadratic
solves are warm-started and spreading reuses the placer's machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..geometry import Point
from ..netlist import Circuit
from ..obs import NULL_COLLECTOR, Collector
from .legalize import LegalizationResult, legalize
from .pseudonet import PseudoNet
from .quadratic import PlacerOptions, QuadraticPlacer
from .region import PlacementRegion


@dataclass(frozen=True, slots=True)
class IncrementalOptions:
    """Knobs for incremental placement."""

    #: Spring weight anchoring each cell to its previous location.
    stability_weight: float = 0.02
    #: Default spring weight of a flip-flop -> ring pseudo net.
    pseudo_net_weight: float = 0.5


def incremental_place(
    circuit: Circuit,
    region: PlacementRegion,
    previous: Mapping[str, Point],
    pseudo_nets: Iterable[PseudoNet],
    options: IncrementalOptions | None = None,
    placer_options: PlacerOptions | None = None,
    collector: Collector = NULL_COLLECTOR,
    placer: QuadraticPlacer | None = None,
) -> LegalizationResult:
    """One incremental placement pass; returns legalized positions.

    Pass an existing ``placer`` (bound to the same circuit and region)
    to reuse its spring structure and its prefactored base Laplacian
    instead of rebuilding them.
    """
    opts = options or IncrementalOptions()
    pseudo = list(pseudo_nets)
    with collector.span("placement.incremental"):
        collector.count("placement.incremental.passes")
        collector.count("placement.pseudo-nets", len(pseudo))
        if placer is None:
            placer = QuadraticPlacer(circuit, region, placer_options)
        else:
            collector.count("placement.placer.reused")
        with collector.span("placement.quadratic"):
            global_pos = placer.place(
                pseudo_nets=pseudo,
                stability_anchors=previous,
                stability_weight=opts.stability_weight,
            )
        with collector.span("placement.legalize"):
            return legalize(global_pos, region)


def placement_perturbation(
    before: Mapping[str, Point], after: Mapping[str, Point]
) -> float:
    """Mean displacement between two placements of the same cells.

    The stability metric: small values mean the incremental placement
    respected the previous solution.
    """
    common = [n for n in before if n in after]
    if not common:
        return 0.0
    return sum(before[n].manhattan(after[n]) for n in common) / len(common)

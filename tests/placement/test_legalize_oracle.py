"""The outward, cut-off legalizer against the scan-every-row reference.

``reference_legalize`` is the ascending whole-window scan the legalizer
used to be: every row of the ``±row_search_radius`` window is probed and
the first strictly cheapest candidate wins.  The shipped legalizer
searches outward from the target row and stops early, and must make the
same decision for every cell, bit for bit: the same positions in the same
order and the same displacement totals.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.flow as flow_module
import repro.placement.incremental as incremental_module
from repro import FlowOptions, IntegratedFlow
from repro.errors import PlacementError
from repro.geometry import BBox, Point
from repro.netlist import ALL_PROFILES, PROFILE_ORDER, generate_named
from repro.placement import LegalizationResult, legalize
from repro.placement.region import PlacementRegion


def reference_legalize(
    global_positions: Mapping[str, Point],
    region: PlacementRegion,
    row_search_radius: int = 8,
) -> LegalizationResult:
    names = list(global_positions)
    if len(names) > region.capacity_sites:
        raise PlacementError(
            f"{len(names)} cells exceed region capacity {region.capacity_sites}"
        )
    free_sites: list[list[int]] = [
        list(range(region.sites_per_row)) for _ in range(region.num_rows)
    ]
    names.sort(key=lambda n: (global_positions[n].x, global_positions[n].y, n))
    out: dict[str, Point] = {}
    total_disp = 0.0
    max_disp = 0.0
    for name in names:
        p = global_positions[name]
        target_row = region.nearest_row(p.y)
        target_site = region.nearest_site(p.x)
        best: tuple[float, int, int] | None = None
        radius = row_search_radius
        while best is None:
            lo = max(0, target_row - radius)
            hi = min(region.num_rows - 1, target_row + radius)
            for row in range(lo, hi + 1):
                site = _nearest_free_site(free_sites[row], target_site)
                if site is None:
                    continue
                cost = abs(region.row_y(row) - p.y) + abs(
                    region.site_x(site) - p.x
                )
                if best is None or cost < best[0]:
                    best = (cost, row, site)
            if best is None:
                if lo == 0 and hi == region.num_rows - 1:
                    raise PlacementError("no free site found during legalization")
                radius *= 2
        _, row, site = best
        row_free = free_sites[row]
        del row_free[bisect_left(row_free, site)]
        q = Point(region.site_x(site), region.row_y(row))
        out[name] = q
        d = p.manhattan(q)
        total_disp += d
        max_disp = max(max_disp, d)
    return LegalizationResult(out, total_disp, max_disp)


def _nearest_free_site(free: list[int], target: int) -> int | None:
    if not free:
        return None
    pos = bisect_left(free, target)
    candidates = []
    if pos < len(free):
        candidates.append(free[pos])
    if pos > 0:
        candidates.append(free[pos - 1])
    return min(candidates, key=lambda s: abs(s - target))


def assert_identical(
    global_positions: Mapping[str, Point],
    region: PlacementRegion,
    row_search_radius: int = 8,
) -> None:
    want = reference_legalize(global_positions, region, row_search_radius)
    got = legalize(global_positions, region, row_search_radius)
    assert list(got.positions.items()) == list(want.positions.items())
    assert got.total_displacement == want.total_displacement
    assert got.max_displacement == want.max_displacement


# Grid pitches that are not exact binary fractions stress the float
# rounding of row centres and costs, not just the search order.
PITCHES = st.sampled_from([(12.0, 3.0), (1.7, 0.19), (0.1, 0.3), (5.0, 5.0)])


@st.composite
def instances(draw):
    row_height, site_width = draw(PITCHES)
    rows = draw(st.integers(1, 12))
    sites = draw(st.integers(1, 10))
    xlo = draw(st.sampled_from([0.0, -7.3, 101.9]))
    ylo = draw(st.sampled_from([0.0, 3.1, -44.4]))
    region = PlacementRegion(
        bbox=BBox(xlo, ylo, xlo + sites * site_width, ylo + rows * row_height),
        row_height=row_height,
        site_width=site_width,
        num_rows=rows,
        sites_per_row=sites,
    )
    capacity = rows * sites
    n = draw(st.integers(1, capacity))
    # Coordinates on the grid's centres and midlines (exactly midway
    # between two rows or two sites), just past the die edges, far
    # outside it, and anywhere in between.
    xs = st.one_of(
        st.integers(-2, 2 * sites + 2).map(lambda k: xlo + 0.5 * k * site_width),
        st.floats(xlo - 3 * site_width, xlo + (sites + 3) * site_width),
        st.sampled_from([xlo - 1e6, xlo + 1e6]),
    )
    ys = st.one_of(
        st.integers(-2, 2 * rows + 2).map(lambda k: ylo + 0.5 * k * row_height),
        st.floats(ylo - 3 * row_height, ylo + (rows + 3) * row_height),
        st.sampled_from([ylo - 1e6, ylo + 1e6]),
    )
    # A few cluster centres with many cells each: clusters overflow the
    # ±radius window so the radius doubling runs.
    centres = draw(st.lists(st.tuples(xs, ys), min_size=1, max_size=4))
    positions = {}
    for i in range(n):
        if draw(st.booleans()):
            x, y = draw(st.sampled_from(centres))
        else:
            x, y = draw(xs), draw(ys)
        positions[f"c{i}"] = Point(x, y)
    radius = draw(st.integers(1, 3))
    return positions, region, radius


@settings(max_examples=400, deadline=None)
@given(instances())
def test_matches_reference(instance):
    positions, region, radius = instance
    assert_identical(positions, region, radius)


@pytest.mark.parametrize("radius", [1, 2, 3, 8])
def test_full_region_from_one_point(radius):
    region = PlacementRegion(BBox(0, 0, 12.0, 96.0), 12.0, 3.0, 8, 4)
    # Every site taken, all cells from one spot: the window fills and
    # doubles until it spans the whole die.
    for y in (0.0, 48.0, 96.0):
        positions = {f"c{i}": Point(6.0, y) for i in range(32)}
        assert_identical(positions, region, radius)


def test_ties_between_rows_go_to_the_lower_row():
    region = PlacementRegion(BBox(0, 0, 3.0, 36.0), 12.0, 3.0, 3, 1)
    # y = 12 is midway between rows 0 and 1: the lower row wins first.
    got = legalize({"a": Point(1.5, 12.0), "b": Point(1.5, 12.0)}, region)
    assert [p.y for p in got.positions.values()] == [6.0, 18.0]
    assert_identical({"a": Point(1.5, 12.0), "b": Point(1.5, 12.0)}, region)


def _first_legalize_inputs(name: str) -> list[tuple[dict[str, Point], PlacementRegion]]:
    """The stage-1 and the first stage-6 legalize input of a flow run."""
    captured: list[tuple[dict[str, Point], PlacementRegion]] = []

    class Captured(Exception):
        pass

    def capture(global_positions, region, *args, **kwargs):
        captured.append((dict(global_positions), region))
        if len(captured) == 2:
            raise Captured
        return legalize(global_positions, region, *args, **kwargs)

    circuit = generate_named(name)
    options = FlowOptions(
        ring_grid_side=ALL_PROFILES[name].ring_grid_side, max_iterations=2
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow_module, "legalize", capture)
        mp.setattr(incremental_module, "legalize", capture)
        with pytest.raises(Captured):
            IntegratedFlow(circuit, options=options).run()
    return captured


@pytest.mark.parametrize("name", [*PROFILE_ORDER, "scale10k"])
def test_flow_inputs_match_reference(name):
    for positions, region in _first_legalize_inputs(name):
        assert_identical(positions, region)


class TestFailsLoudly:
    REGION = PlacementRegion(BBox(0, 0, 6.0, 24.0), 12.0, 3.0, 2, 2)

    @pytest.mark.parametrize("radius", [0, -1, -8])
    def test_radius_below_one_rejected(self, radius):
        # Radius 0 with a full target row used to double 0 forever.
        full_row = {f"c{i}": Point(1.5, 6.0) for i in range(3)}
        with pytest.raises(PlacementError, match="row_search_radius"):
            legalize(full_row, self.REGION, row_search_radius=radius)

    @pytest.mark.parametrize(
        "bad",
        [
            Point(math.nan, 6.0),
            Point(1.5, math.nan),
            Point(math.inf, 6.0),
            Point(1.5, -math.inf),
        ],
    )
    def test_non_finite_position_names_the_cell(self, bad):
        positions = {"ok": Point(1.5, 6.0), "bad_cell": bad}
        with pytest.raises(PlacementError, match="bad_cell") as info:
            legalize(positions, self.REGION)
        assert f"({bad.x}, {bad.y})" in str(info.value)

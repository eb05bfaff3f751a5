"""Tetris-style legalization: snap a global placement onto rows and sites.

Cells are processed in x order; each is assigned the free site (searched
over the rows within ``row_search_radius`` of its target row, the window
doubling while it holds no free site) minimizing its Manhattan
displacement ``|dy| + |dx|``.  All generated cells occupy one site, so a
sorted free-site list per row suffices: a bisect finds the nearest free
site of a row, ties going to the right-hand site.

The rows of the window are searched outward from the target row: upward
over ``target..hi``, then downward over ``target-1..lo``.  A direction
stops at the first row whose signed vertical distance from the cell
(``row_y - y`` going up, ``y - row_y`` going down) exceeds the best cost
found so far.  Row centres are monotone in the row index, so every later
row in that direction is at least as far vertically, and its cost
``|dy| + |dx| >= |dy|`` is then strictly greater than the best: it can
neither win nor tie.  Candidates compare by ``(cost, row)``, so ties go
to the lowest row index.  The pick is therefore exactly the one an
ascending scan of the whole window with a strict ``<`` makes, while at
usual row utilizations only the nearest row or two are probed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping

from ..errors import PlacementError
from ..geometry import Point
from .region import PlacementRegion


@dataclass(frozen=True, slots=True)
class LegalizationResult:
    """Legal positions plus displacement statistics."""

    positions: dict[str, Point]
    total_displacement: float
    max_displacement: float

    @property
    def mean_displacement(self) -> float:
        n = len(self.positions)
        return self.total_displacement / n if n else 0.0


def legalize(
    global_positions: Mapping[str, Point],
    region: PlacementRegion,
    row_search_radius: int = 8,
) -> LegalizationResult:
    """Legalize ``global_positions`` onto the region's row/site grid.

    Raises :class:`PlacementError` if the region cannot hold the cells,
    if ``row_search_radius < 1``, or if a cell has a NaN or infinite
    coordinate.
    """
    if row_search_radius < 1:
        raise PlacementError(
            f"row_search_radius must be >= 1, got {row_search_radius}"
        )
    names = list(global_positions)
    if len(names) > region.capacity_sites:
        raise PlacementError(
            f"{len(names)} cells exceed region capacity {region.capacity_sites}"
        )
    num_rows = region.num_rows
    num_sites = region.sites_per_row
    last_row = num_rows - 1
    last_site = num_sites - 1
    ylo = region.bbox.ylo
    xlo = region.bbox.xlo
    row_height = region.row_height
    site_width = region.site_width
    row_ys = [region.row_y(r) for r in range(num_rows)]
    site_xs = [region.site_x(s) for s in range(num_sites)]
    free_sites: list[list[int]] = [list(range(num_sites)) for _ in range(num_rows)]
    # Process in x order (classic Tetris) for deterministic packing.
    names.sort(key=lambda n: (global_positions[n].x, global_positions[n].y, n))
    out: dict[str, Point] = {}
    total_disp = 0.0
    max_disp = 0.0
    for name in names:
        p = global_positions[name]
        px = p.x
        py = p.y
        # Same arithmetic as region.nearest_row / nearest_site.
        try:
            target_row = min(max(int((py - ylo) / row_height), 0), last_row)
            ts = min(max(int((px - xlo) / site_width), 0), last_site)
        except (ValueError, OverflowError):
            raise PlacementError(
                f"cell {name!r} has a non-finite position ({px}, {py})"
            ) from None
        radius = row_search_radius
        while True:
            lo = max(0, target_row - radius)
            hi = min(last_row, target_row + radius)
            best_cost = 0.0
            best_row = -1
            best_pos = 0
            # Upward over target..hi, then downward over target-1..lo;
            # dy is the signed vertical distance in the search direction.
            for rows, sign in (
                (range(target_row, hi + 1), 1.0),
                (range(target_row - 1, lo - 1, -1), -1.0),
            ):
                for row in rows:
                    dy = sign * (row_ys[row] - py)
                    if best_row >= 0 and dy > best_cost:
                        break
                    free = free_sites[row]
                    if not free:
                        continue
                    pos = bisect_left(free, ts)
                    if pos == len(free) or (
                        pos and free[pos] - ts > ts - free[pos - 1]
                    ):
                        pos -= 1
                    cost = abs(dy) + abs(site_xs[free[pos]] - px)
                    if best_row < 0 or (cost, row) < (best_cost, best_row):
                        best_cost, best_row, best_pos = cost, row, pos
            if best_row >= 0:
                break
            if lo == 0 and hi == last_row:
                raise PlacementError("no free site found during legalization")
            radius *= 2
        site = free_sites[best_row].pop(best_pos)
        q = Point(site_xs[site], row_ys[best_row])
        out[name] = q
        d = p.manhattan(q)
        total_disp += d
        max_disp = max(max_disp, d)
    return LegalizationResult(out, total_disp, max_disp)

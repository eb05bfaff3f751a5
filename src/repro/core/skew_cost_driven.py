"""Cost-driven skew optimization (Section VII, stage 4 of the flow).

After flip-flops are assigned to rings, re-optimize the delay targets so
each target becomes reachable from the point ``c`` on its ring *closest*
to the flip-flop — the tapping cost is then (nearly) the shortest
flip-flop-to-ring distance.  For flip-flop ``i``:

* ``c``   = nearest loop point, ``l_i`` = distance to it,
* ``t_c`` = clock delay at ``c`` (the rings are phase-locked, so
  ``t_c = t_ref + t_ref,c``),
* ``t_{c,i}`` = stub Elmore delay over ``l_i``,
* the achievable delay is ``t_i = t_c + t_{c,i}``.

Two LP formulations, both subject to the timing constraints at a
prespecified slack ``M``:

* **min-max** — minimize ``Delta`` with
  ``t_c + 2 t_{c,i} - t̂_i <= Delta`` and ``t̂_i - t_c <= Delta``
  (equivalent to ``|t_i - t̂_i| + t_{c,i} <= Delta``);
* **weighted-sum** — minimize ``sum_i w_i delta_i`` with
  ``|t_i - t̂_i| <= delta_i`` and the natural weights ``w_i = l_i``
  (work hardest on flip-flops far from their rings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from ..constants import Technology
from ..errors import SkewOptimizationError
from ..geometry import Point
from ..obs import NULL_COLLECTOR, Collector
from ..opt.lp import LinearProgram
from ..rotary import RingArray, RingSegment, stub_delay
from ..timing import PathBounds
from .skew_traditional import SkewSchedule, _pair_index_arrays


@dataclass(frozen=True, slots=True)
class RingAttraction:
    """Per flip-flop: the nearest ring point and its achievable delay."""

    ff: str
    nearest_point: Point
    distance: float  # l_i (um)
    delay_at_point: float  # t_c (ps), phase-adjusted near the current target
    stub_delay: float  # t_{c,i} (ps)

    @property
    def achievable_delay(self) -> float:
        """t_i = t_c + t_{c,i}."""
        return self.delay_at_point + self.stub_delay


def ring_attractions(
    ring_of: Mapping[str, int],
    positions: Mapping[str, Point],
    current: Mapping[str, float],
    array: RingArray,
    tech: Technology,
) -> dict[str, RingAttraction]:
    """Compute ``(c, l_i, t_c, t_{c,i})`` for every assigned flip-flop.

    The ring offers two complementary phases at ``c`` and repeats every
    period; the candidate delay closest to the flip-flop's *current*
    target is chosen so the LP pulls the target the short way around.

    One pass over a ring's four primary sides (built once per ring)
    yields ``c``, ``l_i`` and the delay at ``c`` together: the first
    side with the strictly smallest distance, the side both
    :meth:`RotaryRing.nearest_point` and
    :meth:`RotaryRing.delay_candidates_at` pick, so the result is the
    same as calling the two.
    """
    period = array.period
    sides: dict[int, list[RingSegment]] = {}
    out: dict[str, RingAttraction] = {}
    for ff, ring_id in ring_of.items():
        ring = array[ring_id]
        ring_sides = sides.get(ring_id)
        if ring_sides is None:
            ring_sides = sides[ring_id] = ring.segments()[:4]
        p = positions[ff]
        best_seg = ring_sides[0]
        dist = 0.0
        best_x = 0.0
        for i, seg in enumerate(ring_sides):
            xf, yf = seg.project(p)
            x = min(max(xf, 0.0), seg.length)
            d = abs(x - xf) + yf
            if i == 0 or d < dist:
                best_seg, dist, best_x = seg, d, x
        point = best_seg.point_at(best_x)
        t = best_seg.delay_at(best_x)
        t_stub = stub_delay(dist, tech)
        target = current[ff]
        best_tc = None
        best_err = None
        for tc in (t, t + 0.5 * ring.period):
            # Shift tc by whole periods to land nearest the current target.
            k = round((target - (tc + t_stub)) / period)
            tc_adj = tc + k * period
            err = abs(tc_adj + t_stub - target)
            if best_err is None or err < best_err:
                best_tc, best_err = tc_adj, err
        assert best_tc is not None
        out[ff] = RingAttraction(
            ff=ff,
            nearest_point=point,
            distance=dist,
            delay_at_point=best_tc,
            stub_delay=t_stub,
        )
    return out


def _add_timing_constraints(
    lp: LinearProgram,
    pairs: Mapping[tuple[str, str], PathBounds],
    flip_flops: list[str],
    period: float,
    tech: Technology,
    slack: float,
) -> None:
    """Timing rows at fixed slack, assembled as one COO block.

    Row 2k: t_i - t_j <= T - Dmax - setup - M; row 2k+1:
    t_j - t_i <= Dmin - hold - M.  Self-loop pairs cancel to a vacuous
    (empty) row, exactly as the dict path's zero-dropping produced.
    """
    ii, jj, d_max, d_min = _pair_index_arrays(pairs, flip_flops)
    n_p = len(pairs)
    setup_rows = 2 * np.arange(n_p, dtype=np.intp)
    hold_rows = setup_rows + 1
    nd = ii != jj
    ones_nd = np.ones(int(nd.sum()))
    rows = np.concatenate(
        [setup_rows[nd], setup_rows[nd], hold_rows[nd], hold_rows[nd]]
    )
    cols = np.concatenate([ii[nd], jj[nd], jj[nd], ii[nd]])
    vals = np.concatenate([ones_nd, -ones_nd, ones_nd, -ones_nd])
    rhs = np.empty(2 * n_p)
    rhs[0::2] = period - d_max - tech.setup_time - slack
    rhs[1::2] = d_min - tech.hold_time - slack
    lp.add_constraint_block(rows, cols, vals, "<=", rhs)


def cost_driven_schedule(
    attractions: Mapping[str, RingAttraction],
    pairs: Mapping[tuple[str, str], PathBounds],
    flip_flops: list[str],
    period: float,
    tech: Technology,
    slack: float = 0.0,
    mode: Literal["minmax", "weighted"] = "weighted",
    collector: Collector = NULL_COLLECTOR,
) -> SkewSchedule:
    """Solve the cost-driven skew LP; returns the new schedule.

    ``slack`` is the prespecified guaranteed slack ``M`` (the paper keeps
    timing safe while trading the rest of the permissible range for
    tapping cost).
    """
    if not flip_flops:
        raise SkewOptimizationError("no flip-flops to schedule")
    if mode not in ("minmax", "weighted"):
        raise SkewOptimizationError(f"unknown cost-driven mode {mode!r}")

    with collector.span("skew.cost-driven", mode=mode):
        collector.count("skew.lp.solves")
        collector.count("skew.lp.timing-pairs", len(pairs))
        return _solve_cost_driven(
            attractions, pairs, flip_flops, period, tech, slack, mode
        )


def _solve_cost_driven(
    attractions: Mapping[str, RingAttraction],
    pairs: Mapping[tuple[str, str], PathBounds],
    flip_flops: list[str],
    period: float,
    tech: Technology,
    slack: float,
    mode: Literal["minmax", "weighted"],
) -> SkewSchedule:
    lp = LinearProgram(f"cost_driven_skew_{mode}")
    for ff in flip_flops:
        lp.add_var(f"t_{ff}", lb=float("-inf"))
    _add_timing_constraints(lp, pairs, flip_flops, period, tech, slack)

    attracted = [ff for ff in flip_flops if ff in attractions]
    n_a = len(attracted)
    t_cols = np.array(
        [k for k, ff in enumerate(flip_flops) if ff in attractions], dtype=np.intp
    )
    t_c = np.array([attractions[ff].delay_at_point for ff in attracted])
    stub = np.array([attractions[ff].stub_delay for ff in attracted])
    first = 2 * np.arange(n_a, dtype=np.intp)
    second = first + 1

    if mode == "minmax":
        lp.add_var("delta", lb=0.0)
        delta_cols = np.full(n_a, len(flip_flops), dtype=np.intp)
        ones_a = np.ones(n_a)
        # Row 2k: t_c + 2 t_{c,i} - t̂_i <= Delta; row 2k+1: t̂_i - t_c <= Delta.
        rows = np.concatenate([first, first, second, second])
        cols = np.concatenate([t_cols, delta_cols, t_cols, delta_cols])
        vals = np.concatenate([-ones_a, -ones_a, ones_a, -ones_a])
        rhs = np.empty(2 * n_a)
        rhs[0::2] = -(t_c + 2.0 * stub)
        rhs[1::2] = t_c
        lp.add_constraint_block(rows, cols, vals, "<=", rhs)
        lp.set_objective({"delta": 1.0})
    else:
        if not attracted:
            raise SkewOptimizationError("no ring attractions provided")
        # d_{ff} vars are appended contiguously after the t vars.
        d_cols = lp.num_vars + np.arange(n_a, dtype=np.intp)
        for ff in attracted:
            lp.add_var(f"d_{ff}", lb=0.0)
        ones_a = np.ones(n_a)
        t_i = t_c + stub  # achievable delay per attracted flip-flop
        # Rows 2k / 2k+1: |t̂_i - t_i| <= delta_i as two one-sided rows.
        rows = np.concatenate([first, first, second, second])
        cols = np.concatenate([t_cols, d_cols, t_cols, d_cols])
        vals = np.concatenate([ones_a, -ones_a, -ones_a, -ones_a])
        rhs = np.empty(2 * n_a)
        rhs[0::2] = t_i
        rhs[1::2] = -t_i
        lp.add_constraint_block(rows, cols, vals, "<=", rhs)
        # Natural weights: w_i = l_i (+ epsilon so near-ring flip-flops
        # are not entirely ignored).
        lp.set_objective(
            {f"d_{ff}": attractions[ff].distance + 1e-3 for ff in attracted}
        )

    sol = lp.solve()
    targets = {ff: sol.values[f"t_{ff}"] for ff in flip_flops}
    return SkewSchedule(targets=targets, slack=slack)

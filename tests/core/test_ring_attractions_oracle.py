"""``ring_attractions`` against the two-helper reference loop.

``reference_ring_attractions`` is the loop the function used to be: per
flip-flop, :meth:`RotaryRing.nearest_point` for ``c`` and ``l_i`` and
:meth:`RotaryRing.delay_candidates_at` for the two delays at ``c``.  The
shipped function takes all three from one pass over the ring's sides and
must return the same attractions, bit for bit.
"""

from __future__ import annotations

from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.flow as flow_module
from repro import FlowOptions, IntegratedFlow
from repro.constants import DEFAULT_TECHNOLOGY, Technology
from repro.core import ring_attractions
from repro.core.skew_cost_driven import RingAttraction
from repro.geometry import BBox, Point
from repro.netlist import ALL_PROFILES, PROFILE_ORDER, generate_named
from repro.rotary import RingArray, stub_delay
from repro.rotary.array import RingArrayOptions

TECH = DEFAULT_TECHNOLOGY


def reference_ring_attractions(
    ring_of: Mapping[str, int],
    positions: Mapping[str, Point],
    current: Mapping[str, float],
    array: RingArray,
    tech: Technology,
) -> dict[str, RingAttraction]:
    period = array.period
    out: dict[str, RingAttraction] = {}
    for ff, ring_id in ring_of.items():
        ring = array[ring_id]
        p = positions[ff]
        point, dist = ring.nearest_point(p)
        t_stub = stub_delay(dist, tech)
        target = current[ff]
        best_tc = None
        best_err = None
        for tc in ring.delay_candidates_at(p):
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


def assert_identical(ring_of, positions, current, array, tech=TECH) -> None:
    want = reference_ring_attractions(ring_of, positions, current, array, tech)
    got = ring_attractions(ring_of, positions, current, array, tech)
    assert [(ff, repr(a)) for ff, a in got.items()] == [
        (ff, repr(a)) for ff, a in want.items()
    ]


@st.composite
def placements(draw):
    x0 = draw(st.sampled_from([0.0, -13.7, 250.3]))
    y0 = draw(st.sampled_from([0.0, 41.9, -0.1]))
    width = draw(st.sampled_from([400.0, 333.3, 1000.7]))
    side = draw(st.integers(1, 3))
    period = draw(st.sampled_from([1000.0, 333.3, 2048.0]))
    options = RingArrayOptions(
        fill_factor=draw(st.sampled_from([1.0, 0.8, 0.37])),
        reference_delay=draw(st.sampled_from([0.0, 17.25, -3.1])),
    )
    array = RingArray(BBox(x0, y0, x0 + width, y0 + width), side, period, options)

    def flip_flop(ring):
        c, h = ring.center, ring.half_width
        kind = draw(st.sampled_from(["corner", "side", "inside", "tie", "any"]))
        if kind == "corner":
            return draw(st.sampled_from(ring.corners()))
        if kind == "side":
            a = draw(st.sampled_from(ring.corners()))
            f = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
            sx, sy = draw(st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1)]))
            return Point(a.x + sx * f * 2 * h, a.y + sy * f * 2 * h)
        if kind == "inside":
            fx = draw(st.floats(-1.0, 1.0))
            fy = draw(st.floats(-1.0, 1.0))
            return Point(c.x + fx * h, c.y + fy * h)
        if kind == "tie":
            # Equidistant from two sides: on a diagonal or a centre line,
            # inside or outside the loop.
            a = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])) * h
            sx, sy = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
            return draw(
                st.sampled_from(
                    [
                        Point(c.x + sx * a, c.y + sy * a),
                        Point(c.x, c.y + sy * a),
                        Point(c.x + sx * a, c.y),
                    ]
                )
            )
        coord = st.floats(-2.0 * width, 3.0 * width)
        return Point(x0 + draw(coord), y0 + draw(coord))

    n = draw(st.integers(1, 12))
    ring_of: dict[str, int] = {}
    positions: dict[str, Point] = {}
    current: dict[str, float] = {}
    for i in range(n):
        ff = f"ff{i}"
        ring_id = draw(st.integers(0, len(array) - 1))
        p = flip_flop(array[ring_id])
        ring_of[ff] = ring_id
        positions[ff] = p
        # Targets that put round() on a .5 tie, or sit midway between
        # the two complementary candidates, or anywhere.
        _, dist = array[ring_id].nearest_point(p)
        t = array[ring_id].delay_candidates_at(p)[0] + stub_delay(dist, TECH)
        k = draw(st.integers(-3, 3))
        frac = draw(st.sampled_from([0.5, -0.5, 0.25, 0.75, 0.0]))
        current[ff] = draw(
            st.one_of(
                st.just(t + (k + frac) * period),
                st.floats(-3.0 * period, 3.0 * period),
            )
        )
    return ring_of, positions, current, array


@settings(max_examples=300, deadline=None)
@given(placements())
def test_matches_reference(instance):
    assert_identical(*instance)


def test_corner_is_distance_zero_on_the_first_side():
    array = RingArray(BBox(0, 0, 400, 400), side=1, period=1000.0)
    ring = array[0]
    for corner in ring.corners():
        got = ring_attractions({"f": 0}, {"f": corner}, {"f": 0.0}, array, TECH)
        assert got["f"].distance == 0.0
        assert got["f"].nearest_point == corner
        assert_identical({"f": 0}, {"f": corner}, {"f": 0.0}, array)


def _first_stage4_input(name: str) -> tuple:
    captured: list[tuple] = []

    class Captured(Exception):
        pass

    def capture(ring_of, positions, current, array, tech):
        captured.append((dict(ring_of), dict(positions), dict(current), array, tech))
        raise Captured

    options = FlowOptions(
        ring_grid_side=ALL_PROFILES[name].ring_grid_side, max_iterations=1
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow_module, "ring_attractions", capture)
        with pytest.raises(Captured):
            IntegratedFlow(generate_named(name), options=options).run()
    return captured[0]


@pytest.mark.parametrize("name", PROFILE_ORDER)
def test_flow_inputs_match_reference(name):
    assert_identical(*_first_stage4_input(name))

"""Reference twins of the production engines, kept as test oracles.

The flow runs one engine per stage.  The simpler implementations they
replaced live here, so tests can assert that the production engine
makes the same decisions:

* :class:`TripletsPlacer` rebuilds each axis system from Python COO
  triplets on every solve, where :class:`QuadraticPlacer` splices the
  per-call anchors onto a base assembled once and solves both axes on
  one matrix.  Both feed scipy the identical triplet stream, so
  placements are bit-identical.
* :class:`ScalarTiming` has the :class:`VectorizedTiming` interface
  but rebuilds :class:`SequentialTiming` from scratch on every call.

Tests import this module as ``oracles``: pytest puts ``tests/`` on
``sys.path`` because ``tests/conftest.py`` sits outside any package, and
``benchmarks/conftest.py`` appends it for the benchmark gates.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import scipy.sparse as sp

from repro.constants import Technology
from repro.geometry import Point
from repro.netlist import Circuit
from repro.obs import NULL_COLLECTOR, Collector
from repro.placement import QuadraticPlacer
from repro.placement.quadratic import _EPS_ANCHOR, AnchorArrays
from repro.timing import SequentialTiming


class TripletsPlacer(QuadraticPlacer):
    """:class:`QuadraticPlacer` with the per-axis Python COO rebuild."""

    def _solve(
        self,
        anchors: AnchorArrays,
        warm_x: np.ndarray | None,
        warm_y: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        idx, tx, ty, w = (a.tolist() for a in anchors)
        x = self._solve_axis(0, list(zip(idx, tx, w)), warm_x)
        y = self._solve_axis(1, list(zip(idx, ty, w)), warm_y)
        return x, y

    def _solve_axis(
        self,
        axis: int,
        anchors: list[tuple[int, float, float]],
        warm: np.ndarray | None,
    ) -> np.ndarray:
        """Solve one coordinate axis.  ``anchors`` = (cell, target, weight)."""
        n = len(self._movable)
        n_aux = len(self._star_nets)
        size = n + n_aux
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        rhs = np.zeros(size)

        def add(i: int, j: int | None, w: float, fixed_val: float = 0.0) -> None:
            rows.append(i)
            cols.append(i)
            vals.append(w)
            if j is None:
                rhs[i] += w * fixed_val
            else:
                rows.append(j)
                cols.append(j)
                vals.append(w)
                rows.append(i)
                cols.append(j)
                vals.append(-w)
                rows.append(j)
                cols.append(i)
                vals.append(-w)

        for i, j, w, p in self._springs:
            if p is None:
                add(i, j, w)
            else:
                add(i, None, w, (p.x, p.y)[axis])
        for k, (movable_idx, fixed_pts, w) in enumerate(self._star_nets):
            aux = n + k
            for i in movable_idx:
                add(i, aux, w)
            for p in fixed_pts:
                add(aux, None, w, (p.x, p.y)[axis])
        center = (self.region.bbox.center.x, self.region.bbox.center.y)[axis]
        for i in range(size):
            add(i, None, _EPS_ANCHOR, center)
        for i, target, w in anchors:
            add(i, None, w, target)

        A = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
        x0 = None
        if warm is not None:
            x0 = np.concatenate([warm, np.full(n_aux, center)])
        sol = self._linear_solve(A, rhs, x0, 1.0 / A.diagonal(), "xy"[axis])
        return sol[:n]


class ScalarTiming:
    """The :class:`~repro.timing.VectorizedTiming` interface over a
    from-scratch :class:`SequentialTiming` per call."""

    def __init__(
        self,
        circuit: Circuit,
        tech: Technology,
        *,
        collector: Collector = NULL_COLLECTOR,
        jobs: int = 1,
    ) -> None:
        self.circuit = circuit
        self.tech = tech

    def analyze(self, positions: Mapping[str, Point]) -> SequentialTiming:
        return SequentialTiming(self.circuit, positions, self.tech)

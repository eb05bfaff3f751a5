"""Quadratic (analytic) global placement with recursive spreading.

The paper obtains its placements from mPL and stresses that "the placers
can be used without any change"; any analytic placer exposing pseudo-net
hooks fits the flow.  This is a GORDIAN-style engine:

1. nets become springs (clique model for small nets, star with an
   auxiliary node for large ones); x and y share the resulting sparse
   SPD matrix and differ only in the right-hand side, and each is
   solved by Jacobi-preconditioned CG with fixed-order reductions;
2. cells are spread by recursive area bisection — each subregion's cells
   get anchor springs toward their subregion, and the system is re-solved
   level by level;
3. :mod:`repro.placement.legalize` snaps the spread placement onto rows.

Pseudo nets (flip-flop -> ring anchors) and stability anchors (previous
positions) enter the same quadratic form, which is exactly how the
integrated flow's incremental placement works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import PlacementError
from ..geometry import BBox, Point
from ..netlist import Circuit
from ..obs import NULL_COLLECTOR, Collector
from .pseudonet import PseudoNet
from .region import PlacementRegion, pad_positions

#: Anchors in array form: (cell indices, x targets, y targets, weights).
#: Both axes always carry the same cells and weights in the same order;
#: only the targets differ.
AnchorArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Nets up to this degree use the clique spring model; bigger nets use a star.
_CLIQUE_MAX_DEGREE = 5
#: Tiny centering anchor guaranteeing a non-singular system.
_EPS_ANCHOR = 1e-6
#: CG stopping rule: ``||r|| < _CG_RTOL * ||b||`` within ``_CG_MAXITER``
#: iterations, else the counted ``spsolve`` fallback.
_CG_RTOL = 1e-8
_CG_MAXITER = 2000


def _checked_weight(value: float, what: str) -> float:
    """``value`` as a float, or :class:`PlacementError` naming ``what``.

    NaN comparisons are always false, so an unchecked NaN weight would
    sail through every ``< 0`` guard and silently corrupt the Laplacian
    (CG then converges to garbage instead of failing).  Reject anything
    that is not a finite, non-negative number.
    """
    w = float(value)
    if math.isnan(w) or math.isinf(w) or w < 0.0:
        raise PlacementError(
            f"{what} must be a finite non-negative number, got {value!r}"
        )
    return w


def _check_finite_anchor(anchor: Point, what: str) -> None:
    """Raise :class:`PlacementError` naming ``what`` when an anchor
    coordinate is NaN or infinite (it would otherwise turn every solved
    position into NaN without an error)."""
    if not (math.isfinite(anchor.x) and math.isfinite(anchor.y)):
        raise PlacementError(
            f"{what} has a non-finite anchor ({anchor.x!r}, {anchor.y!r})"
        )


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Inner product as numpy's pairwise sum: single-threaded, with a
    summation order fixed by the algorithm (never BLAS ``ddot``, whose
    rounding follows the host's thread count)."""
    return float(np.add.reduce(u * v))


def _pcg(
    A: sp.csr_matrix,
    b: np.ndarray,
    x0: np.ndarray | None,
    rtol: float,
    maxiter: int,
    inv_diag: np.ndarray | None,
    *,
    axis: str = "?",
) -> tuple[np.ndarray, int, bool]:
    """Jacobi-preconditioned conjugate gradients on the SPD system ``A``.

    Returns ``(x, iterations, converged)``.  ``inv_diag=None`` is plain
    CG (identity preconditioner).  The iteration and stopping rule are
    scipy's ``cg``: stop when ``||r|| < rtol * ||b||``, give up after
    ``maxiter`` iterations, and return ``b`` itself when ``||b|| = 0``.
    Every reduction goes through :func:`_dot`, and ``A @ p`` is scipy's
    single-threaded ``csr_matvec``, so the result is a function of the
    inputs alone, whatever the BLAS thread count.

    A non-finite ``rho = r.z`` or ``p.Ap`` (NaN/inf in the system or the
    rhs) raises :class:`PlacementError` naming ``axis`` and the
    iteration, instead of iterating to ``maxiter`` on NaN.
    """
    bnrm = math.sqrt(_dot(b, b))
    if bnrm == 0.0:
        return b, 0, True
    atol = rtol * bnrm
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - A @ x if x.any() else b.copy()
    p = np.empty_like(r)
    rho_prev = 0.0
    for iteration in range(maxiter):
        if math.sqrt(_dot(r, r)) < atol:
            return x, iteration, True
        z = r if inv_diag is None else inv_diag * r
        rho = _dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p[:] = z
        q = A @ p
        pq = _dot(p, q)
        if not (math.isfinite(rho) and math.isfinite(pq)):
            raise PlacementError(
                f"CG breakdown on the {axis} axis at iteration "
                f"{iteration}: rho={rho!r}, p.Ap={pq!r} (non-finite "
                "system or right-hand side)"
            )
        alpha = rho / pq
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, False


@dataclass(frozen=True, slots=True)
class PlacerOptions:
    """Knobs for the quadratic placer."""

    #: Stop bisection when a subregion holds at most this many cells.
    min_partition_cells: int = 24
    #: Anchor weight at the first spreading level (doubles per level).
    spreading_weight: float = 0.05
    #: Hard cap on bisection levels.
    max_levels: int = 12


class QuadraticPlacer:
    """Analytic global placement for one circuit on one region."""

    def __init__(
        self,
        circuit: Circuit,
        region: PlacementRegion,
        options: PlacerOptions | None = None,
        *,
        net_weights: Mapping[str, float] | None = None,
        collector: Collector = NULL_COLLECTOR,
    ) -> None:
        self.circuit = circuit
        self.region = region
        self.options = options or PlacerOptions()
        self.collector = collector
        self._movable = [c.name for c in circuit.standard_cells]
        if not self._movable:
            raise PlacementError("no movable cells")
        self._index = {name: i for i, name in enumerate(self._movable)}
        self._fixed = pad_positions(circuit, region)
        self._net_weights = self._checked_net_weights(net_weights)
        self._springs = self._build_springs()
        self._base = self._prefactor()
        self.collector.count("placement.assembly.builds")

    # ------------------------------------------------------------------
    def _checked_net_weights(
        self, net_weights: Mapping[str, float] | None
    ) -> dict[str, float]:
        """Validated copy of ``net_weights`` (unknown nets and non-finite
        or negative weights raise, naming the offending net)."""
        if not net_weights:
            return {}
        nets = self.circuit.nets
        checked: dict[str, float] = {}
        for name, value in net_weights.items():
            if name not in nets:
                raise PlacementError(
                    f"net weight targets unknown net {name!r}"
                )
            checked[name] = _checked_weight(value, f"weight of net {name!r}")
        return checked

    def set_net_weights(self, net_weights: Mapping[str, float] | None) -> None:
        """Replace the per-net weights and rebuild the spring structure.

        The timing-driven flow calls this between iterations with the
        critical-pair weights; cells, region and the warm CG machinery
        are all retained, only the spring list and the cached base
        triplets are rebuilt.
        An absent / all-ones mapping restores the unweighted placer
        bit-for-bit.
        """
        self._net_weights = self._checked_net_weights(net_weights)
        self._springs = self._build_springs()
        self._base = self._prefactor()
        self.collector.count("placement.assembly.builds")
        self.collector.count("placement.net-weights.rebuilds")

    @property
    def net_weights(self) -> dict[str, float]:
        """The validated per-net weight overrides (absent nets weigh 1.0)."""
        return dict(self._net_weights)

    def _build_springs(self) -> list[tuple[int, int | None, float, Point | None]]:
        """Spring list: (cell_index, other_index|None, weight, fixed_point).

        ``other_index=None`` with a point = spring to a fixed location
        (pad or star auxiliary handled separately).  Per-net weights
        scale every spring a net induces; a weight of exactly 1.0 (the
        default for unlisted nets) skips the multiplication so the
        unweighted triplet stream stays bit-identical.
        """
        springs: list[tuple[int, int | None, float, Point | None]] = []
        self._star_nets: list[tuple[list[int], list[Point], float]] = []
        net_weights = self._net_weights
        for net in self.circuit.nets.values():
            members = net.members
            degree = len(members)
            if degree < 2:
                continue
            movable_idx = [self._index[m] for m in members if m in self._index]
            fixed_pts = [self._fixed[m] for m in members if m in self._fixed]
            if len(movable_idx) + len(fixed_pts) < 2:
                continue
            w_net = net_weights.get(net.name, 1.0)
            if degree <= _CLIQUE_MAX_DEGREE:
                w = 1.0 / (degree - 1)
                if w_net != 1.0:
                    w = w * w_net
                for a in range(len(movable_idx)):
                    for b in range(a + 1, len(movable_idx)):
                        springs.append((movable_idx[a], movable_idx[b], w, None))
                    for p in fixed_pts:
                        springs.append((movable_idx[a], None, w, p))
            else:
                # Star: one auxiliary node per big net.
                w = degree / (degree - 1.0)
                if w_net != 1.0:
                    w = w * w_net
                self._star_nets.append((movable_idx, fixed_pts, w))
        return springs

    # ------------------------------------------------------------------
    def _prefactor(self) -> tuple[np.ndarray, ...]:
        """Assemble the position-independent base system once.

        Emits the COO triplets of springs, star nets and eps anchors, in
        that order (weights are axis-independent; only the rhs differs
        per axis).  :meth:`_solve` appends the per-call anchor diagonal
        after them.  scipy's duplicate summation is deterministic for a
        given COO stream, so a per-solve rebuild of the same stream
        gives bit-identical solutions.
        """
        n = len(self._movable)
        n_aux = len(self._star_nets)
        size = n + n_aux
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        rhs_x = np.zeros(size)
        rhs_y = np.zeros(size)

        def add(
            i: int, j: int | None, w: float, fx: float = 0.0, fy: float = 0.0
        ) -> None:
            rows.append(i)
            cols.append(i)
            vals.append(w)
            if j is None:
                rhs_x[i] += w * fx
                rhs_y[i] += w * fy
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
                add(i, None, w, p.x, p.y)
        for k, (movable_idx, fixed_pts, w) in enumerate(self._star_nets):
            aux = n + k
            for i in movable_idx:
                add(i, aux, w)
            for p in fixed_pts:
                add(aux, None, w, p.x, p.y)
        center = self.region.bbox.center
        for i in range(size):
            add(i, None, _EPS_ANCHOR, center.x, center.y)
        return (
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals),
            rhs_x,
            rhs_y,
        )

    def _linear_solve(
        self,
        A: sp.csr_matrix,
        rhs: np.ndarray,
        x0: np.ndarray | None,
        inv_diag: np.ndarray,
        axis: str,
    ) -> np.ndarray:
        """Solve one SPD axis system by Jacobi PCG (:func:`_pcg`),
        falling back, counted, to ``spsolve`` when it does not converge."""
        self.collector.count("placement.solver.pcg")
        sol, iterations, converged = _pcg(
            A, rhs, x0, _CG_RTOL, _CG_MAXITER, inv_diag, axis=axis
        )
        self.collector.count("placement.solver.iterations", iterations)
        if not converged:
            self.collector.count("placement.solver.fallbacks")
            sol = spla.spsolve(A.tocsc(), rhs)
        return np.asarray(sol)

    def _solve(
        self,
        anchors: AnchorArrays,
        warm_x: np.ndarray | None,
        warm_y: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve both axes on one matrix: the cached base triplets plus
        the anchor diagonal entries, with one Jacobi preconditioner.

        Sharing is exact: both axes carry the same anchor cells and
        weights in the same order (base anchors, then each spreading
        region's cells); only the targets, hence the rhs, differ.  The
        diagonal of a spring Laplacian plus the eps anchors is strictly
        positive, so ``1/diag(A)`` is well defined.
        """
        base_rows, base_cols, base_vals, base_rhs_x, base_rhs_y = self._base
        a_idx, a_tx, a_ty, a_w = anchors
        n = len(self._movable)
        n_aux = len(self._star_nets)
        size = n + n_aux
        rows = np.concatenate([base_rows, a_idx])
        cols = np.concatenate([base_cols, a_idx])
        vals = np.concatenate([base_vals, a_w])
        A = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
        inv_diag = 1.0 / A.diagonal()
        center = self.region.bbox.center
        solutions = []
        for axis, base_rhs, a_tgt, warm, c in (
            ("x", base_rhs_x, a_tx, warm_x, center.x),
            ("y", base_rhs_y, a_ty, warm_y, center.y),
        ):
            rhs = base_rhs.copy()
            # ufunc.at accumulates sequentially in index order, matching
            # a per-anchor ``rhs[i] += w * target`` fold.
            np.add.at(rhs, a_idx, a_w * a_tgt)
            self.collector.count("placement.assembly.reuses")
            x0 = None
            if warm is not None:
                x0 = np.concatenate([warm, np.full(n_aux, c)])
            solutions.append(self._linear_solve(A, rhs, x0, inv_diag, axis)[:n])
        return solutions[0], solutions[1]

    # ------------------------------------------------------------------
    def place(
        self,
        pseudo_nets: Iterable[PseudoNet] = (),
        stability_anchors: Mapping[str, Point] | None = None,
        stability_weight: float = 0.0,
    ) -> dict[str, Point]:
        """Global placement (unlegalized).

        ``pseudo_nets`` add springs toward fixed anchor points;
        ``stability_anchors`` (typically the previous placement) with
        ``stability_weight > 0`` turn the solve into a *stable
        incremental* placement, as required by stage 6 of the flow.
        """
        idx_list: list[int] = []
        tx_list: list[float] = []
        ty_list: list[float] = []
        w_list: list[float] = []
        for pn in pseudo_nets:
            idx = self._index.get(pn.cell)
            if idx is None:
                raise PlacementError(f"pseudo net targets unknown cell {pn.cell!r}")
            w = _checked_weight(
                pn.weight, f"weight of pseudo net to cell {pn.cell!r}"
            )
            _check_finite_anchor(pn.anchor, f"pseudo net to cell {pn.cell!r}")
            idx_list.append(idx)
            tx_list.append(pn.anchor.x)
            ty_list.append(pn.anchor.y)
            w_list.append(w)
        if stability_weight:
            stability_weight = _checked_weight(
                stability_weight, "stability anchor weight"
            )
        warm_x = warm_y = None
        if stability_anchors is not None and stability_weight > 0.0:
            warm_x = np.zeros(len(self._movable))
            warm_y = np.zeros(len(self._movable))
            for name, p in stability_anchors.items():
                idx = self._index.get(name)
                if idx is None:
                    continue
                _check_finite_anchor(p, f"stability anchor of cell {name!r}")
                idx_list.append(idx)
                tx_list.append(p.x)
                ty_list.append(p.y)
                w_list.append(stability_weight)
                warm_x[idx] = p.x
                warm_y[idx] = p.y

        base: AnchorArrays = (
            np.asarray(idx_list, dtype=np.int64),
            np.asarray(tx_list, dtype=np.float64),
            np.asarray(ty_list, dtype=np.float64),
            np.asarray(w_list, dtype=np.float64),
        )
        x, y = self._solve(base, warm_x, warm_y)
        x, y = self._spread(x, y, base)
        clamped = {
            name: self.region.bbox.clamp(Point(float(x[i]), float(y[i])))
            for name, i in self._index.items()
        }
        return clamped

    # ------------------------------------------------------------------
    def _spread(
        self, x: np.ndarray, y: np.ndarray, base: AnchorArrays
    ) -> tuple[np.ndarray, np.ndarray]:
        """Recursive-bisection spreading with per-level anchor re-solves."""
        n = len(self._movable)
        opts = self.options
        regions: list[tuple[BBox, np.ndarray, bool]] = [
            (self.region.bbox, np.arange(n), True)
        ]
        level = 0
        weight = opts.spreading_weight
        base_idx, base_tx, base_ty, base_w = base
        while level < opts.max_levels:
            next_regions: list[tuple[BBox, np.ndarray, bool]] = []
            split_any = False
            for bbox, idx, vertical in regions:
                if len(idx) <= opts.min_partition_cells:
                    next_regions.append((bbox, idx, vertical))
                    continue
                split_any = True
                coords = x[idx] if vertical else y[idx]
                order = np.argsort(coords, kind="stable")
                half = len(idx) // 2
                lo_idx, hi_idx = idx[order[:half]], idx[order[half:]]
                frac = half / len(idx)
                if vertical:
                    cut = bbox.xlo + frac * bbox.width
                    lo_box = BBox(bbox.xlo, bbox.ylo, cut, bbox.yhi)
                    hi_box = BBox(cut, bbox.ylo, bbox.xhi, bbox.yhi)
                else:
                    cut = bbox.ylo + frac * bbox.height
                    lo_box = BBox(bbox.xlo, bbox.ylo, bbox.xhi, cut)
                    hi_box = BBox(bbox.xlo, cut, bbox.xhi, bbox.yhi)
                next_regions.append((lo_box, lo_idx, not vertical))
                next_regions.append((hi_box, hi_idx, not vertical))
            regions = next_regions
            if not split_any:
                break
            # Base anchors first, then each region's cells in order.
            reg_idx = np.concatenate([idx for _, idx, _ in regions])
            cxs = np.concatenate(
                [np.full(idx.size, bbox.center.x) for bbox, idx, _ in regions]
            )
            cys = np.concatenate(
                [np.full(idx.size, bbox.center.y) for bbox, idx, _ in regions]
            )
            anchors: AnchorArrays = (
                np.concatenate([base_idx, reg_idx]),
                np.concatenate([base_tx, cxs]),
                np.concatenate([base_ty, cys]),
                np.concatenate([base_w, np.full(reg_idx.size, weight)]),
            )
            x, y = self._solve(anchors, x, y)
            weight *= 2.0
            level += 1
        return x, y

    @property
    def fixed_positions(self) -> dict[str, Point]:
        """Pad locations (fixed throughout placement)."""
        return dict(self._fixed)

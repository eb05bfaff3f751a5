"""Min-cost network flow: successive shortest paths with potentials.

Section V of the paper assigns flip-flops to rotary rings with the min-cost
flow model of Fig. 4 ("it is well known that this min-cost network flow
problem can be solved optimally in polynomial time").  This module provides:

* :class:`FlowNetwork` — a from-scratch successive-shortest-path solver
  with Johnson potentials (Dijkstra inner loop, Bellman-Ford bootstrap for
  negative arc costs).  Exact, pure Python; intended for instances up to a
  few thousand arcs and cross-checked against networkx in the tests.
* :func:`solve_transportation` — the production path for the bipartite
  transportation special case (what the assignment actually is).  Only
  the finite (candidate) arcs are kept: each ring becomes unit capacity
  slots, each arc is copied onto its ring's slots, and the sparse
  biadjacency is solved exactly as a min-weight full bipartite matching
  (scipy's LAPJVsp).  With 8 candidate rings per flip-flop this touches
  a few percent of the cells a dense replicated-column assignment would.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Hashable, Mapping

import numpy as np

from ..errors import InfeasibleError, OptimizationError

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class ArcRef:
    """Opaque handle to an arc, returned by :meth:`FlowNetwork.add_arc`."""

    node_index: int
    arc_index: int


@dataclass(frozen=True, slots=True)
class FlowResult:
    """Result of a min-cost flow solve."""

    total_cost: float
    total_flow: int
    _flows: dict[ArcRef, int]

    def flow_on(self, arc: ArcRef) -> int:
        return self._flows.get(arc, 0)


class FlowNetwork:
    """A directed flow network with integer capacities and float costs."""

    def __init__(self) -> None:
        self._index: dict[NodeId, int] = {}
        self._names: list[NodeId] = []
        # adjacency: per node, list of [head, cap, cost, rev_index]
        self._adj: list[list[list]] = []
        self._arc_refs: list[ArcRef] = []
        self._solved = False

    def _node(self, name: NodeId) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
            self._adj.append([])
        return idx

    def add_arc(self, tail: NodeId, head: NodeId, capacity: int, cost: float) -> ArcRef:
        """Add an arc with the given integer capacity and per-unit cost."""
        if capacity < 0:
            raise OptimizationError(f"negative capacity on arc {tail!r}->{head!r}")
        u = self._node(tail)
        v = self._node(head)
        ref = ArcRef(u, len(self._adj[u]))
        self._adj[u].append([v, capacity, float(cost), len(self._adj[v])])
        self._adj[v].append([u, 0, -float(cost), len(self._adj[u]) - 1])
        self._arc_refs.append(ref)
        return ref

    @property
    def num_nodes(self) -> int:
        return len(self._names)

    @property
    def num_arcs(self) -> int:
        return len(self._arc_refs)

    # ------------------------------------------------------------------
    def solve(self, supplies: Mapping[NodeId, int]) -> FlowResult:
        """Route all supply to demand at minimum cost.

        ``supplies`` maps node -> signed supply (positive = source,
        negative = sink); values must balance to zero.  Raises
        :class:`InfeasibleError` if the network cannot carry the supply.

        The solve drains arc capacities in place, so a network can only
        be solved once; a second call raises
        :class:`OptimizationError` instead of silently computing flows
        over the residual graph and stale super-source arcs.
        """
        if self._solved:
            raise OptimizationError(
                "FlowNetwork.solve() already ran on this network; capacities "
                "are drained — build a fresh network for another solve"
            )
        total_supply = sum(v for v in supplies.values() if v > 0)
        if sum(supplies.values()) != 0:
            raise OptimizationError("supplies must sum to zero")
        self._solved = True
        # Super source/sink reduction.
        s = self._node(("__super_source__",))
        t = self._node(("__super_sink__",))
        temp_arcs: list[tuple[int, int]] = []
        for node, supply in supplies.items():
            u = self._node(node)
            if supply > 0:
                self._adj[s].append([u, supply, 0.0, len(self._adj[u])])
                self._adj[u].append([s, 0, 0.0, len(self._adj[s]) - 1])
                temp_arcs.append((s, len(self._adj[s]) - 1))
            elif supply < 0:
                self._adj[u].append([t, -supply, 0.0, len(self._adj[t])])
                self._adj[t].append([u, 0, 0.0, len(self._adj[u]) - 1])
                temp_arcs.append((u, len(self._adj[u]) - 1))

        del temp_arcs  # reduction arcs are drained by the solve; no cleanup needed
        flows, cost, routed = self._ssp(s, t, total_supply)
        if routed < total_supply:
            raise InfeasibleError(
                f"only {routed}/{total_supply} units routable; network disconnected "
                "or capacities insufficient"
            )
        arc_flows = {
            ref: flows.get((ref.node_index, ref.arc_index), 0)
            for ref in self._arc_refs
            if flows.get((ref.node_index, ref.arc_index), 0) > 0
        }
        return FlowResult(total_cost=cost, total_flow=routed, _flows=arc_flows)

    # ------------------------------------------------------------------
    def _ssp(self, s: int, t: int, max_flow: int) -> tuple[dict, float, int]:
        n = len(self._adj)
        flows: dict[tuple[int, int], int] = {}
        potential = self._initial_potentials(s)
        total_cost = 0.0
        routed = 0
        while routed < max_flow:
            dist, parent = self._dijkstra(s, potential)
            if dist[t] == math.inf:
                break
            for v in range(n):
                if dist[v] < math.inf:
                    potential[v] += dist[v]
            # Find bottleneck along s..t path.
            push = max_flow - routed
            v = t
            while v != s:
                u, ai = parent[v]
                push = min(push, self._adj[u][ai][1])
                v = u
            v = t
            while v != s:
                u, ai = parent[v]
                arc = self._adj[u][ai]
                arc[1] -= push
                self._adj[arc[0]][arc[3]][1] += push
                key = (u, ai)
                flows[key] = flows.get(key, 0) + push
                rkey = (arc[0], arc[3])
                if flows.get(rkey, 0) > 0:  # cancellation on reverse arc
                    cancel = min(push, flows[rkey])
                    flows[rkey] -= cancel
                    flows[key] -= cancel
                total_cost += push * arc[2]
                v = u
            routed += push
        return flows, total_cost, routed

    def _initial_potentials(self, s: int) -> list[float]:
        """Bellman-Ford from ``s`` to support negative arc costs."""
        n = len(self._adj)
        if all(arc[2] >= 0.0 for adj in self._adj for arc in adj if arc[1] > 0):
            return [0.0] * n
        dist = [math.inf] * n
        dist[s] = 0.0
        for _ in range(n - 1):
            changed = False
            for u in range(n):
                if dist[u] == math.inf:
                    continue
                for arc in self._adj[u]:
                    if arc[1] > 0 and dist[u] + arc[2] < dist[arc[0]] - 1e-12:
                        dist[arc[0]] = dist[u] + arc[2]
                        changed = True
            if not changed:
                break
        return [d if d < math.inf else 0.0 for d in dist]

    def _dijkstra(
        self, s: int, potential: list[float]
    ) -> tuple[list[float], list[tuple[int, int] | None]]:
        n = len(self._adj)
        dist = [math.inf] * n
        parent: list[tuple[int, int] | None] = [None] * n
        dist[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        done = [False] * n
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for ai, arc in enumerate(self._adj[u]):
                v, cap, cost, _ = arc
                if cap <= 0 or done[v]:
                    continue
                nd = d + cost + potential[u] - potential[v]
                if nd < dist[v] - 1e-12:
                    dist[v] = nd
                    parent[v] = (u, ai)
                    heapq.heappush(heap, (nd, v))
        return dist, parent


# ---------------------------------------------------------------------------
# Sparse bipartite transportation path
# ---------------------------------------------------------------------------
#: Penalty standing in for a forbidden (pruned) flip-flop/ring arc.
FORBIDDEN_COST = 1.0e12


def solve_transportation(
    cost: np.ndarray,
    capacities: np.ndarray | list[int],
) -> np.ndarray:
    """Optimal capacitated assignment of rows (flip-flops) to columns (rings).

    ``cost[i, j]`` is the cost of assigning row ``i`` to column ``j``; use
    :data:`FORBIDDEN_COST` (or ``np.inf``) for pruned arcs.
    ``capacities[j]`` bounds how many rows column ``j`` may take.
    Returns an int array ``assign`` with ``assign[i] = j``.

    Only the finite arcs enter the solve.  Column ``j`` becomes
    ``min(U_j, d_j)`` unit slots, where ``d_j`` counts the rows with a
    finite arc to ``j`` (a column can never take more), and every finite
    arc ``(i, j)`` is copied onto each slot of ``j``.  The min-weight
    full matching of that sparse biadjacency (LAPJVsp via scipy) is
    exactly the min-cost flow of Fig. 4.  Forbidden arcs are never in
    the graph, so they can never be chosen.

    LAPJVsp drops zero-weight entries as missing edges, so every weight
    is shifted by one constant to be at least 1.  Each row is matched
    exactly once, so the shift adds the same amount to every full
    matching and leaves the argmin unchanged.

    Raises :class:`InfeasibleError` when no full matching exists; the
    message names one row that cannot be placed, with its candidate
    columns and their capacities.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    capacities = np.asarray(capacities, dtype=np.int64)
    if capacities.size != n_cols:
        raise OptimizationError("capacities length must equal number of columns")
    if (capacities < 0).any():
        raise OptimizationError("capacities must be non-negative")
    if capacities.sum() < n_rows:
        raise InfeasibleError(
            f"total capacity {int(capacities.sum())} < {n_rows} flip-flops"
        )
    # Arcs into zero-capacity columns are as unusable as pruned ones.
    finite = np.isfinite(cost) & (cost < FORBIDDEN_COST) & (capacities > 0)
    rows, cols = np.nonzero(finite)  # row-major, so CSR order for free
    slots = np.minimum(capacities, np.bincount(cols, minlength=n_cols))
    n_slots = int(slots.sum())
    # Arc (i, j) expands to edges (i, first_slot[j] + k), k < slots[j].
    reps = slots[cols]
    edge_end = np.concatenate(([0], np.cumsum(reps)))
    first_slot = np.cumsum(slots) - slots
    indices = np.repeat(first_slot[cols] - edge_end[:-1], reps) + np.arange(
        edge_end[-1]
    )
    indptr = edge_end[np.searchsorted(rows, np.arange(n_rows + 1))]
    weights = cost[rows, cols]
    if weights.size:
        weights = weights + (1.0 - weights.min())
    graph = csr_matrix(
        (np.repeat(weights, reps), indices, indptr), shape=(n_rows, n_slots)
    )
    if n_slots < n_rows:  # LAPJVsp would then match the slots, not the rows
        raise InfeasibleError(_unplaceable_row(graph, finite, capacities))
    try:
        row_ind, col_ind = min_weight_full_bipartite_matching(graph)
    except ValueError as exc:  # "no full matching exists"
        raise InfeasibleError(_unplaceable_row(graph, finite, capacities)) from exc
    slot_owner = np.repeat(np.arange(n_cols), slots)
    assign = np.full(n_rows, -1, dtype=np.intp)
    assign[row_ind] = slot_owner[col_ind]
    if (assign < 0).any():
        raise InfeasibleError("assignment left some rows unmatched")
    return assign


def _unplaceable_row(
    graph: Any, finite: np.ndarray, capacities: np.ndarray
) -> str:
    """Describe one row that no full matching of ``graph`` can place.

    Prefers a row without a single finite arc; otherwise takes a row
    left unmatched by a maximum matching of the slot graph.
    """
    from scipy.sparse.csgraph import maximum_bipartite_matching

    bare = np.flatnonzero(~finite.any(axis=1))
    if bare.size:
        return (
            f"flip-flop row {int(bare[0])} has no candidate ring "
            "(every arc forbidden or at zero capacity)"
        )
    matched = maximum_bipartite_matching(graph, perm_type="column")
    row = int(np.flatnonzero(matched < 0)[0])
    rings = np.flatnonzero(finite[row])
    listed = ", ".join(f"{int(j)} (cap {int(capacities[j])})" for j in rings)
    return (
        f"flip-flop row {row} cannot be placed: its candidate rings "
        f"{listed} are filled by other flip-flops"
    )

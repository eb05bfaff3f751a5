"""The sparse §V transportation solve against a dense reference.

:func:`repro.opt.solve_transportation` keeps only the finite arcs and
solves a sparse min-weight full bipartite matching.  The reference here
is the solve it replaced: every ring column copied up to
``min(U_j, n_rows)`` times into a dense matrix, pruned arcs priced at
:data:`FORBIDDEN_COST`, and scipy's ``linear_sum_assignment`` on top.
Both are exact, so they must agree on the objective whenever the
instance is feasible, and both must raise :class:`InfeasibleError` when
it is not.  Ties may be broken differently, so assignments themselves
are not compared.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import repro.core.assignment_flow as assignment_flow
from repro import FlowOptions, IntegratedFlow
from repro.errors import InfeasibleError
from repro.netlist import ALL_PROFILES, PROFILE_ORDER, generate_named
from repro.opt import FORBIDDEN_COST, solve_transportation


def dense_reference(cost: np.ndarray, capacities) -> np.ndarray:
    """Replicated-column rectangular assignment (the former production path)."""
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    capacities = np.asarray(capacities, dtype=int)
    if capacities.sum() < n_rows:
        raise InfeasibleError("total capacity below the row count")
    cost = np.where(np.isfinite(cost), cost, FORBIDDEN_COST)
    col_owner = np.repeat(np.arange(n_cols), np.minimum(capacities, n_rows))
    row_ind, col_ind = linear_sum_assignment(cost[:, col_owner])
    assign = np.full(n_rows, -1, dtype=int)
    assign[row_ind] = col_owner[col_ind]
    if (assign < 0).any() or (cost[np.arange(n_rows), assign] >= FORBIDDEN_COST).any():
        raise InfeasibleError("no assignment avoids the forbidden arcs")
    return assign


def objective(cost: np.ndarray, assign: np.ndarray) -> float:
    return float(np.asarray(cost, dtype=float)[np.arange(len(assign)), assign].sum())


def assert_matches_reference(cost: np.ndarray, capacities) -> np.ndarray:
    """Sparse and dense agree: same objective, loads in capacity, no
    forbidden arc.  Returns the sparse assignment."""
    want = objective(cost, dense_reference(cost, capacities))
    got = solve_transportation(cost, capacities)
    chosen = cost[np.arange(len(got)), got]
    assert np.isfinite(chosen).all() and (chosen < FORBIDDEN_COST).all()
    loads = np.bincount(got, minlength=cost.shape[1])
    assert (loads <= np.asarray(capacities)).all()
    assert objective(cost, got) == pytest.approx(want, rel=1e-9, abs=1e-9)
    return got


# Small integers give exact ties; zero and negative costs are in range.
_ARC = st.one_of(
    st.integers(-5, 9).map(float),
    st.sampled_from([np.inf, FORBIDDEN_COST]),
)


@st.composite
def pruned_instances(draw):
    """A random pruned instance: ties, duplicate rows, zero/negative
    costs, ``inf`` and ``FORBIDDEN_COST`` arcs, and capacities from zero
    up to beyond the row count."""
    n_rows = draw(st.integers(1, 7))
    n_cols = draw(st.integers(1, 5))
    cost = np.array(
        [[draw(_ARC) for _ in range(n_cols)] for _ in range(n_rows)], dtype=float
    )
    for _ in range(draw(st.integers(0, 2))):  # duplicate rows
        src = draw(st.integers(0, n_rows - 1))
        dst = draw(st.integers(0, n_rows - 1))
        cost[dst] = cost[src]
    caps = [draw(st.integers(0, n_rows + 2)) for _ in range(n_cols)]
    return cost, caps


class TestAgainstDenseReference:
    @settings(max_examples=300, deadline=None)
    @given(pruned_instances())
    def test_same_objective_or_both_infeasible(self, instance):
        cost, caps = instance
        try:
            dense_reference(cost, caps)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_transportation(cost, caps)
            return
        assert_matches_reference(cost, caps)

    @settings(max_examples=100, deadline=None)
    @given(pruned_instances(), st.data())
    def test_hall_violation_is_infeasible_for_both(self, instance, data):
        """Confine ``k`` rows to rings holding fewer than ``k`` slots."""
        cost, caps = instance
        n_rows, n_cols = cost.shape
        rows = data.draw(
            st.lists(st.integers(0, n_rows - 1), min_size=1, unique=True)
        )
        rings = data.draw(st.lists(st.integers(0, n_cols - 1), unique=True))
        outside = np.setdiff1d(np.arange(n_cols), rings)
        cost[np.ix_(rows, outside)] = FORBIDDEN_COST
        budget = len(rows) - 1
        for j in rings:
            caps[j] = min(caps[j], budget)
            budget -= caps[j]
        with pytest.raises(InfeasibleError):
            dense_reference(cost, caps)
        with pytest.raises(InfeasibleError):
            solve_transportation(cost, caps)

    def test_shift_invariance(self):
        """Adding a constant to every arc never changes the optimum."""
        rng = np.random.default_rng(3)
        cost = rng.integers(-3, 4, size=(12, 4)).astype(float)
        caps = [4, 3, 3, 4]
        base = objective(cost, solve_transportation(cost, caps))
        for shift in (-1e6, -2.5, 0.0, 1e6):
            moved = solve_transportation(cost + shift, caps)
            assert objective(cost, moved) == base


class TestInfeasibleNamesARow:
    def test_row_without_finite_arcs(self):
        cost = np.array([[1.0, 2.0], [np.inf, FORBIDDEN_COST], [3.0, 1.0]])
        with pytest.raises(InfeasibleError, match="row 1 has no candidate ring"):
            solve_transportation(cost, [2, 2])

    def test_zero_capacity_rings_do_not_count(self):
        cost = np.array([[1.0, 2.0], [5.0, np.inf]])
        with pytest.raises(InfeasibleError, match="row 1 has no candidate ring"):
            solve_transportation(cost, [0, 2])

    def test_row_crowded_out_names_its_rings(self):
        # Rows 0 and 1 can only use ring 0, which holds one flip-flop;
        # ring 1 has room to spare but neither may use it.
        cost = np.array([[1.0, np.inf], [2.0, np.inf], [np.inf, 1.0]])
        with pytest.raises(
            InfeasibleError, match=r"row [01] cannot be placed: .* rings 0 \(cap 1\) "
        ):
            solve_transportation(cost, [1, 5])


def _first_stage3_instance(name: str) -> tuple[np.ndarray, list[int]]:
    """The cost matrix and capacities of the flow's first §V solve."""
    captured: dict[str, object] = {}

    class Captured(Exception):
        pass

    def capture(cost, capacities):
        captured["cost"] = np.array(cost)
        captured["caps"] = [int(c) for c in capacities]
        raise Captured

    circuit = generate_named(name)
    options = FlowOptions(
        ring_grid_side=ALL_PROFILES[name].ring_grid_side, max_iterations=1
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assignment_flow, "solve_transportation", capture)
        with pytest.raises(Captured):
            IntegratedFlow(circuit, options=options).run()
    return captured["cost"], captured["caps"]


@pytest.mark.parametrize("name", [*PROFILE_ORDER, "scale10k"])
def test_flow_stage3_matches_dense_reference(name):
    cost, caps = _first_stage3_instance(name)
    assert_matches_reference(cost, caps)

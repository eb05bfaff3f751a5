"""Byte-identity of the block-assembled skew LPs vs row-by-row assembly.

The scale path assembles the §IV max-slack LP and the cost-driven timing
rows as single COO blocks; the ``*_loops`` oracles below keep the
original per-pair construction.  Both must lower to byte-identical arrays —
same CSR structure, same rhs, same objective — on arbitrary pair sets,
including self-loop pairs (whose t terms cancel to a vacuous row) and
duplicate endpoints.  Byte-identity is what guarantees the §V flow's
decisions could not shift when the assembly was vectorized.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core.skew_cost_driven import _add_timing_constraints
from repro.core.skew_traditional import (
    _max_slack_lp,
    _pair_index_arrays,
    max_slack_schedule,
)
from repro.errors import SkewOptimizationError
from repro.opt import LinearProgram
from repro.timing import PathBounds

TECH = DEFAULT_TECHNOLOGY
PERIOD = 1000.0


def _skew_coeffs(plus: str, minus: str, extra: dict[str, float]) -> dict[str, float]:
    """Coefficients of ``t_plus - t_minus`` plus extra terms, summing
    collisions (so self-loop pairs cancel instead of clobbering)."""
    coeffs = dict(extra)
    for var, coef in ((f"t_{plus}", 1.0), (f"t_{minus}", -1.0)):
        coeffs[var] = coeffs.get(var, 0.0) + coef
    return {v: c for v, c in coeffs.items() if c != 0.0}


def _max_slack_lp_loops(pairs, flip_flops, period, tech) -> LinearProgram:
    """Row-by-row oracle of :func:`_max_slack_lp`."""
    lp = LinearProgram("max_slack_skew")
    for ff in flip_flops:
        lp.add_var(f"t_{ff}", lb=float("-inf"))
    lp.add_var("M", lb=float("-inf"), ub=period)
    for (i, j), b in pairs.items():
        lp.add_constraint(
            _skew_coeffs(i, j, {"M": 1.0}),
            "<=",
            period - b.d_max - tech.setup_time,
        )
        lp.add_constraint(
            _skew_coeffs(j, i, {"M": 1.0}),
            "<=",
            b.d_min - tech.hold_time,
        )
    lp.add_constraint({f"t_{flip_flops[0]}": 1.0}, "==", 0.0)
    lp.set_objective({"M": -1.0})
    return lp


def _add_timing_constraints_loops(lp, pairs, period, tech, slack) -> None:
    """Row-by-row oracle of :func:`_add_timing_constraints`."""
    for (i, j), b in pairs.items():
        lp.add_constraint(
            _skew_coeffs(i, j, {}),
            "<=",
            period - b.d_max - tech.setup_time - slack,
        )
        lp.add_constraint(
            _skew_coeffs(j, i, {}),
            "<=",
            b.d_min - tech.hold_time - slack,
        )


def _csr_tuple(m):
    if m is None:
        return None
    return (m.shape, m.indptr.tolist(), m.indices.tolist(), m.data.tolist())


def assert_same_model(a: LinearProgram, b: LinearProgram) -> None:
    aa, bb = a.to_arrays(), b.to_arrays()
    assert aa["order"] == bb["order"]
    assert np.array_equal(aa["c"], bb["c"])
    assert _csr_tuple(aa["A_ub"]) == _csr_tuple(bb["A_ub"])
    assert _csr_tuple(aa["A_eq"]) == _csr_tuple(bb["A_eq"])
    for key in ("b_ub", "b_eq"):
        va, vb = aa[key], bb[key]
        assert (va is None) == (vb is None)
        if va is not None:
            assert np.array_equal(va, vb)
    assert aa["bounds"] == bb["bounds"]


def _random_pairs(rng: random.Random, ffs: list[str], n_pairs: int, self_loops: bool):
    pairs = {}
    for _ in range(n_pairs):
        i = rng.choice(ffs)
        if self_loops or len(ffs) == 1:
            j = rng.choice(ffs)
        else:
            j = rng.choice([f for f in ffs if f != i])
        lo = rng.uniform(0.0, 300.0)
        pairs[(i, j)] = PathBounds(d_min=lo, d_max=lo + rng.uniform(0.0, 400.0))
    return pairs


class TestMaxSlackBlockAssembly:
    @settings(max_examples=30, deadline=None)
    @given(
        n_ffs=st.integers(1, 12),
        n_pairs=st.integers(1, 40),
        self_loops=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_block_matches_loops(self, n_ffs, n_pairs, self_loops, seed):
        rng = random.Random(seed)
        ffs = [f"ff{i}" for i in range(n_ffs)]
        pairs = _random_pairs(rng, ffs, n_pairs, self_loops)
        assert_same_model(
            _max_slack_lp(pairs, ffs, PERIOD, TECH),
            _max_slack_lp_loops(pairs, ffs, PERIOD, TECH),
        )

    def test_self_loop_constrains_m_alone(self):
        pairs = {("ff0", "ff0"): PathBounds(d_min=100.0, d_max=400.0)}
        assert_same_model(
            _max_slack_lp(pairs, ["ff0"], PERIOD, TECH),
            _max_slack_lp_loops(pairs, ["ff0"], PERIOD, TECH),
        )

    def test_schedule_unchanged_through_block_path(self):
        """max_slack_schedule (which now builds the block LP) solves to
        the loop LP's optimum."""
        rng = random.Random(11)
        ffs = [f"ff{i}" for i in range(8)]
        pairs = _random_pairs(rng, ffs, 20, self_loops=False)
        via_block = max_slack_schedule(pairs, ffs, PERIOD, TECH)
        via_loops = _max_slack_lp_loops(pairs, ffs, PERIOD, TECH).solve()
        assert via_block.slack == pytest.approx(-via_loops.objective)

    def test_unknown_flip_flop_raises(self):
        pairs = {("ff0", "ghost"): PathBounds(d_min=0.0, d_max=10.0)}
        with pytest.raises(SkewOptimizationError, match="'ghost'"):
            _pair_index_arrays(pairs, ["ff0"])


class TestTimingConstraintBlocks:
    @settings(max_examples=30, deadline=None)
    @given(
        n_ffs=st.integers(1, 10),
        n_pairs=st.integers(1, 30),
        self_loops=st.booleans(),
        slack=st.floats(0.0, 50.0, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_block_matches_loops(self, n_ffs, n_pairs, self_loops, slack, seed):
        rng = random.Random(seed)
        ffs = [f"ff{i}" for i in range(n_ffs)]
        pairs = _random_pairs(rng, ffs, n_pairs, self_loops)

        blk = LinearProgram("cost_driven")
        loops = LinearProgram("cost_driven")
        for lp in (blk, loops):
            for ff in ffs:
                lp.add_var(f"t_{ff}", lb=float("-inf"))
        _add_timing_constraints(blk, pairs, ffs, PERIOD, TECH, slack)
        _add_timing_constraints_loops(loops, pairs, PERIOD, TECH, slack)
        assert blk.num_constraints == loops.num_constraints == 2 * len(pairs)
        assert_same_model(blk, loops)

"""The placer's in-repo PCG against a direct sparse solve.

:func:`repro.placement.quadratic._pcg` replaced scipy's ``cg``.  It must
solve the systems the placer actually builds: the stage-1 spreading
level systems of every bundled circuit, captured from
``QuadraticPlacer.place()``, and random spring Laplacians with anchors.
Two checks per system:

* at the production stopping rule (``rtol=1e-8``) the true residual
  ``||b - A x||`` is at most ``rtol * ||b||``;
* iterated to ``rtol=1e-12`` it agrees with the SuperLU solve to 1e-6 um,
  i.e. it converges to the exact minimizer, not just somewhere near it.

The direct solve is SuperLU in symmetric mode with a minimum-degree
ordering on ``A + A^T``: the star-net rows make the default COLAMD
ordering ~20x slower on the larger circuits, with the same answer.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.placement.quadratic as quadratic
from repro.constants import DEFAULT_TECHNOLOGY
from repro.errors import PlacementError
from repro.netlist import PROFILE_ORDER, generate_named
from repro.placement import QuadraticPlacer, region_for_circuit

RTOL = 1e-8
MAXITER = 2000
#: Tolerance of the converged-solution comparison, and the rtol that
#: reaches it on every system below.
EXACT_TOL_UM = 1e-6
TIGHT_RTOL = 1e-12
#: Systems with more rows than this are compared with the direct solve on
#: their first (unspread, worst-conditioned) level only: a SuperLU
#: factorization of s35932's 19k-row system takes ~9 s.  All levels
#: still get the residual check.
FULL_SWEEP_ROWS = 10_000


def _direct(A: sp.csr_matrix, rhs: list[np.ndarray]) -> list[np.ndarray]:
    lu = spla.splu(
        A.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return [lu.solve(b) for b in rhs]


def _residual_ok(A: sp.csr_matrix, b: np.ndarray, x: np.ndarray) -> bool:
    return bool(np.linalg.norm(b - A @ x) <= RTOL * np.linalg.norm(b))


def _level_systems(name: str) -> list[tuple[sp.csr_matrix, list[tuple]]]:
    """Stage-1 systems of ``name``: one ``(A, [(rhs, x0, inv_diag), ...])``
    per spreading level, in solve order (x then y on one matrix)."""
    circuit = generate_named(name)
    region = region_for_circuit(circuit, DEFAULT_TECHNOLOGY)
    placer = QuadraticPlacer(circuit, region)
    systems: list[tuple[sp.csr_matrix, list[tuple]]] = []
    solve = placer._linear_solve

    def spy(A, rhs, x0, inv_diag, axis):
        if not systems or systems[-1][0] is not A:
            systems.append((A, []))
        systems[-1][1].append((rhs, x0, inv_diag))
        return solve(A, rhs, x0, inv_diag, axis)

    placer._linear_solve = spy  # type: ignore[method-assign]
    placer.place()
    return systems


@pytest.fixture(scope="module", params=PROFILE_ORDER)
def level_systems(request):
    return request.param, _level_systems(request.param)


def test_every_level_shares_one_matrix_across_axes(level_systems):
    _, systems = level_systems
    assert len(systems) >= 2
    assert all(len(axes) == 2 for _, axes in systems)


def test_residual_within_rtol_on_every_level(level_systems):
    name, systems = level_systems
    for level, (A, axes) in enumerate(systems):
        for rhs, x0, inv_diag in axes:
            x, iterations, converged = quadratic._pcg(
                A, rhs, x0, RTOL, MAXITER, inv_diag
            )
            assert converged, (name, level)
            assert 0 < iterations < MAXITER
            assert _residual_ok(A, rhs, x), (name, level)


def test_converges_to_direct_solution(level_systems):
    name, systems = level_systems
    if systems[0][0].shape[0] > FULL_SWEEP_ROWS:
        systems = systems[:1]
    for level, (A, axes) in enumerate(systems):
        exact = _direct(A, [rhs for rhs, _, _ in axes])
        for (rhs, x0, inv_diag), ref in zip(axes, exact):
            prod, _, _ = quadratic._pcg(A, rhs, x0, RTOL, MAXITER, inv_diag)
            tight, _, converged = quadratic._pcg(
                A, rhs, x0, TIGHT_RTOL, 20 * MAXITER, inv_diag
            )
            assert converged
            worst = float(np.abs(tight - ref).max())
            assert worst <= EXACT_TOL_UM, f"{name} level {level}: {worst:.3e} um"
            # The production rule stops early by design; it stays well
            # inside the cross-solver pin of test_sparse_cg.py.
            assert float(np.abs(prod - ref).max()) <= 1e-3


@st.composite
def spring_systems(draw):
    """A random spring Laplacian (springs between random cell pairs)
    plus an anchor on every cell, with anchor-target right-hand sides
    in a 500 um die: SPD with a condition number below ~10^3."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(0, 3 * n))
    rows, cols, vals = [], [], []
    for _ in range(m):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        w = draw(st.floats(0.1, 2.0))
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [w, w, -w, -w]

    def vector(lo: float, hi: float) -> np.ndarray:
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    anchor_w = vector(0.05, 1.0)
    targets = vector(0.0, 500.0)
    rows += list(range(n))
    cols += list(range(n))
    vals += anchor_w.tolist()
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    x0 = vector(0.0, 500.0) if draw(st.booleans()) else None
    return A, anchor_w * targets, x0


@settings(max_examples=150, deadline=None)
@given(system=spring_systems(), jacobi=st.booleans())
def test_random_spring_laplacians(system, jacobi):
    A, b, x0 = system
    inv_diag = 1.0 / A.diagonal() if jacobi else None
    ref = spla.spsolve(A.tocsc(), b)
    x, _, converged = quadratic._pcg(A, b, x0, RTOL, MAXITER, inv_diag)
    assert converged
    assert _residual_ok(A, b, x)
    tight, _, converged = quadratic._pcg(A, b, x0, TIGHT_RTOL, MAXITER, inv_diag)
    assert converged
    assert float(np.abs(tight - ref).max()) <= EXACT_TOL_UM


def test_zero_rhs_returns_rhs():
    A = sp.identity(4, format="csr")
    b = np.zeros(4)
    x, iterations, converged = quadratic._pcg(
        A, b, np.ones(4), RTOL, MAXITER, None
    )
    assert x is b and iterations == 0 and converged


def test_maxiter_exhaustion_reports_not_converged():
    A = sp.diags([1.0, 10.0, 100.0, 1000.0], format="csr")
    b = np.ones(4)
    _, iterations, converged = quadratic._pcg(A, b, None, RTOL, 2, None)
    assert (iterations, converged) == (2, False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_system_raises_naming_axis_and_iteration(bad):
    A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    b = np.array([1.0, bad])
    with pytest.raises(PlacementError, match=r"y axis at iteration 0"):
        quadratic._pcg(A, b, None, RTOL, MAXITER, 1.0 / A.diagonal(), axis="y")

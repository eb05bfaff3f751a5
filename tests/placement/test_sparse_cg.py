"""The placer's Jacobi PCG against other solvers of the same systems.

Unpreconditioned CG, sparse LU and dense LAPACK LU (test-side placers
that override only the axis solve) must land on the same minimizer of
the same quadratic as the production Jacobi PCG — the positions may
differ only by solver tolerance, far below anything the downstream flow
quantizes on.  The production placer itself must match an explicit,
converged Jacobi-PCG solve bit for bit at every size.  The flow-level test then pins the actual decisions:
running the integrated flow with plain CG must reproduce the default
flow's ring assignment and schedule.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

import repro.core.flow
from repro.api import run_flow
from repro.constants import DEFAULT_TECHNOLOGY
from repro.netlist import PROFILE_ORDER, generate_named
from repro.obs import TraceCollector
from repro.placement import PlacerOptions, QuadraticPlacer, region_for_circuit
from repro.placement.quadratic import _CG_MAXITER, _CG_RTOL, _pcg

TECH = DEFAULT_TECHNOLOGY

#: Solver-tolerance headroom in um: measured cross-mode deviations on the
#: bundled circuits are ~2e-5 um on 300-500 um regions, so 1e-3 gives
#: ~50x margin while still catching any real solver divergence.
POSITION_TOL_UM = 1e-3


class JacobiPCGPlacer(QuadraticPlacer):
    """Every axis solve an explicit, converged Jacobi-PCG call: no
    size-dependent dispatch and no fallback."""

    def _linear_solve(self, A, rhs, x0, inv_diag, axis):
        sol, _, converged = _pcg(
            A, rhs, x0, _CG_RTOL, _CG_MAXITER, inv_diag, axis=axis
        )
        assert converged, f"PCG did not converge on the {axis} axis"
        return sol


class PlainCGPlacer(QuadraticPlacer):
    """The production solver with the identity preconditioner."""

    def _linear_solve(self, A, rhs, x0, inv_diag, axis):
        return super()._linear_solve(A, rhs, x0, None, axis)


class SparseLUPlacer(QuadraticPlacer):
    def _linear_solve(self, A, rhs, x0, inv_diag, axis):
        return np.asarray(spla.splu(A.tocsc()).solve(rhs))


class DenseLUPlacer(QuadraticPlacer):
    """Materializes the full matrix: O(n^2) memory."""

    def _linear_solve(self, A, rhs, x0, inv_diag, axis):
        return np.asarray(sla.lu_solve(sla.lu_factor(A.toarray()), rhs))


PLACERS = {
    "auto": QuadraticPlacer,
    "pcg": JacobiPCGPlacer,
    "cg": PlainCGPlacer,
    "direct": SparseLUPlacer,
    "dense": DenseLUPlacer,
}


def _place(circuit, mode, **opts):
    region = region_for_circuit(circuit, TECH)
    placer = PLACERS[mode](circuit, region, PlacerOptions(**opts))
    return placer.place()


def assert_close(a: dict, b: dict, tol: float = POSITION_TOL_UM) -> None:
    assert set(a) == set(b)
    worst = max(max(abs(a[k].x - b[k].x), abs(a[k].y - b[k].y)) for k in a)
    assert worst <= tol, f"positions diverge by {worst:.3e} um"


def assert_identical(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], name


class TestSolverModeEquivalence:
    @pytest.mark.parametrize("name", PROFILE_ORDER)
    def test_auto_is_pcg(self, name):
        """The production placer ("auto": the only solver there is) is
        Jacobi PCG at every size, bit for bit."""
        circuit = generate_named(name)
        assert_identical(
            _place(circuit, "auto", max_levels=1),
            _place(circuit, "pcg", max_levels=1),
        )

    def test_auto_resolves_to_pcg(self):
        """No size threshold: the smallest bundled circuit gets PCG too,
        and it converges without the counted ``spsolve`` fallback."""
        circuit = generate_named("s5378")
        region = region_for_circuit(circuit, TECH)
        obs = TraceCollector()
        QuadraticPlacer(circuit, region, collector=obs).place()
        trace = obs.trace()
        assert trace.counter("placement.solver.pcg") > 0
        assert trace.counter("placement.solver.fallbacks") == 0

    def test_unknown_solver_rejected(self):
        """The solver selector is gone from :class:`PlacerOptions`; a
        caller still naming one fails loudly instead of being ignored."""
        with pytest.raises(TypeError, match="solver"):
            PlacerOptions(solver="cholesky")

    @pytest.mark.parametrize("name", PROFILE_ORDER)
    def test_pcg_matches_cg(self, name):
        circuit = generate_named(name)
        assert_close(
            _place(circuit, "pcg", max_levels=1),
            _place(circuit, "cg", max_levels=1),
        )

    @pytest.mark.parametrize("name", ["s9234", "s5378"])
    def test_factorizations_match_cg(self, name):
        """Sparse LU and dense LAPACK solve the same system exactly; they
        must agree with each other to machine precision and with CG to
        solver tolerance.  (Kept to the two smallest circuits: LU fill-in
        on star/clique Laplacians makes factorization quadratic-ish.)"""
        circuit = generate_named(name)
        cg = _place(circuit, "cg", max_levels=1)
        direct = _place(circuit, "direct", max_levels=1)
        dense = _place(circuit, "dense", max_levels=1)
        assert_close(direct, cg)
        assert_close(dense, cg)
        assert_close(dense, direct, tol=1e-6)

    def test_multilevel_pcg_matches_cg(self):
        """The full multilevel schedule (clustered coarse levels plus
        refinement) also agrees across solvers, not just one flat pass."""
        circuit = generate_named("s9234")
        assert_close(_place(circuit, "pcg"), _place(circuit, "cg"))


class TestFlowDecisionsUnchanged:
    def test_pcg_flow_reproduces_default_decisions(self, monkeypatch):
        """The §V flow's discrete decisions — ring assignment, iteration
        count, schedule — are invariant to the preconditioner: the
        default (PCG) flow and a plain-CG flow decide alike."""
        default = run_flow("s5378")
        monkeypatch.setattr(repro.core.flow, "QuadraticPlacer", PlainCGPlacer)
        cg = run_flow("s5378")
        assert cg.assignment.ring_of == default.assignment.ring_of
        assert len(cg.history) == len(default.history)
        assert set(cg.schedule.targets) == set(default.schedule.targets)
        for ff, t in default.schedule.targets.items():
            assert cg.schedule.targets[ff] == pytest.approx(t, abs=1e-6)
        assert cg.final.total_wirelength == pytest.approx(
            default.final.total_wirelength, rel=1e-6
        )

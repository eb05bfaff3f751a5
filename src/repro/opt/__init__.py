"""Optimization kernels: LP/ILP facade, simplex, min-cost flow, B&B, graphs."""

from .branch_bound import BBResult, branch_and_bound
from .diffconstraints import (
    SkewConstraint,
    check_constraints,
    maximize_slack,
    solve_difference_constraints,
)
from .lp import LinearProgram, LPSolution
from .mincostflow import (
    FORBIDDEN_COST,
    ArcRef,
    FlowNetwork,
    FlowResult,
    solve_transportation,
)
from .simplex import solve_simplex

__all__ = [
    "LinearProgram",
    "LPSolution",
    "solve_simplex",
    "FlowNetwork",
    "FlowResult",
    "ArcRef",
    "FORBIDDEN_COST",
    "solve_transportation",
    "BBResult",
    "branch_and_bound",
    "SkewConstraint",
    "solve_difference_constraints",
    "maximize_slack",
    "check_constraints",
]

"""LP solving front end: scipy's HiGHS (``linprog(method="highs")``),
re-verified.

An ``optimal`` result is re-checked against the original problem (row
residuals, bounds, objective recomputation), so a solve through an MPS
file can never hand back a point that the in-memory problem rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .lp import LPProblem
from .mps import load_mps, save_mps


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL = "numerical"


#: ``linprog`` status code -> status; linprog documents exactly these five.
_LINPROG_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.NUMERICAL,
}


class SolverError(RuntimeError):
    """A backend reported optimal but the solution fails re-verification."""


@dataclass(frozen=True)
class SolveOptions:
    tolerance: float = 1e-7
    iteration_limit: int = 100_000
    backend: str = "highs"

    def __post_init__(self):
        if self.backend != "highs" and not (
            self.backend.startswith("mps:") and len(self.backend) > 4
        ):
            raise ValueError(f"unknown backend {self.backend!r} (expected highs or mps:<path>)")


@dataclass(frozen=True)
class LPSolution:
    status: SolveStatus
    objective: float
    x: np.ndarray | None


def solve(problem: LPProblem, options: SolveOptions | None = None) -> LPSolution:
    """Minimize ``problem`` with HiGHS. Deterministic given identical
    inputs/options.

    ``backend="highs"`` solves the problem in memory. ``backend="mps:<path>"``
    writes it to ``<path>``, reads the file back and solves what was read,
    so the file on disk is exactly what gets solved.

    Infeasible, unbounded and numerically failed solves come back as
    statuses, not exceptions. An iteration-limited solve may carry no
    point (``x is None``).
    """
    options = options or SolveOptions()
    if options.backend == "highs":
        solution = _solve_highs(problem, options)
    else:
        solution = _solve_via_mps(problem, options.backend[4:], options)
    if solution.status is SolveStatus.OPTIMAL:
        failures = check_solution(problem, solution, tol=options.tolerance)
        if failures:
            raise SolverError(
                f"backend {options.backend!r} returned a non-verifying optimum: "
                + "; ".join(failures[:5])
            )
    return solution


def _solve_via_mps(problem: LPProblem, path: str, options: SolveOptions) -> LPSolution:
    save_mps(problem, path)
    reread = load_mps(path)
    solution = _solve_highs(reread, options)
    if solution.x is None:
        return solution
    # a column the file never mentions has bounds [0, inf), cost 0 and no rows
    x = np.zeros(problem.num_cols)
    x[[problem.name_map[name] for name in reread.col_names]] = solution.x
    return LPSolution(solution.status, solution.objective, x)


def _solve_highs(problem: LPProblem, options: SolveOptions) -> LPSolution:
    # linprog takes A_ub x <= b_ub and A_eq x = b_eq: the one-sided rows go
    # to A_ub in row order, with the >= rows negated
    lower, upper = problem.row_lower, problem.row_upper
    eq = lower == upper
    ub = np.flatnonzero(~eq)
    geq = np.isinf(upper[ub])
    rows = problem.A[ub]
    data = np.where(np.repeat(geq, np.diff(rows.indptr)), -rows.data, rows.data)
    a_ub = sp.csr_matrix((data, rows.indices, rows.indptr), shape=rows.shape)
    res = linprog(
        c=problem.objective,
        A_ub=a_ub if ub.size else None,
        b_ub=np.where(geq, -lower[ub], upper[ub]) if ub.size else None,
        A_eq=problem.A[eq] if eq.any() else None,
        b_eq=upper[eq] if eq.any() else None,
        bounds=np.column_stack([problem.col_lower, problem.col_upper]),
        method="highs",
        options={"maxiter": options.iteration_limit},
    )
    obj = float(res.fun) if res.fun is not None else math.nan
    return LPSolution(status=_LINPROG_STATUS[res.status], objective=obj, x=res.x)


def check_solution(problem: LPProblem, solution: LPSolution, tol: float = 1e-7) -> list[str]:
    """Residual report for a claimed-optimal solution (empty = clean)."""
    if solution.x is None:
        return ["no point to check"]
    x = solution.x
    failures = []
    if x.shape != (problem.num_cols,):
        return [f"point has shape {x.shape}, expected ({problem.num_cols},)"]
    low = problem.col_lower - x
    if low.max(initial=0.0) > tol:
        k = int(np.argmax(low))
        failures.append(f"column {problem.col_names[k]} below lower bound by {low[k]:.3e}")
    high = x - problem.col_upper
    if high.max(initial=0.0) > tol:
        k = int(np.argmax(high))
        failures.append(f"column {problem.col_names[k]} above upper bound by {high[k]:.3e}")
    lhs = problem.A @ x
    resid = np.maximum(problem.row_lower - lhs, lhs - problem.row_upper)
    for r in np.flatnonzero(~(resid <= tol)):
        failures.append(f"row {problem.row_names[r]} violated by {resid[r]:.3e}")
    recomputed = float(problem.objective @ x)
    scale = max(1.0, abs(recomputed))
    if abs(recomputed - solution.objective) > tol * scale:
        failures.append(
            f"objective mismatch: reported {solution.objective!r}, recomputed {recomputed!r}"
        )
    return failures

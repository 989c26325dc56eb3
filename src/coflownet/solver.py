"""LP solving front end: HiGHS through scipy's binding, re-verified.

HiGHS gets the problem's row-form CSR arrays as they are (``indptr``,
``indices``, ``data``, the row and column bounds, infinities included)
in one ``passModel`` call; its model status, point, row duals and
objective come back unchanged.

An ``optimal`` result is re-checked against the original problem (row
residuals, bounds, objective recomputation), so a solve through an MPS
file (``backend="mps:<path>"``: HiGHS gets the same arrays plus the
names, writes the file, reads it back and solves what it read) can
never hand back a point that the in-memory problem rejects.

A relaxation built with a step map is first solved on a prefix of its
time steps: the rows of steps ``1..L``, with every later column's bounds
pinned at its after-prefix value.
The prefix's row duals, extended to the later rows (each later
``cum_j_i_t_s`` row takes its flow's ``dem`` dual clipped at 0), give a
weak-duality bound on the whole problem; the prefix point is returned
only when that bound reaches its objective, which proves it optimal for
every step. A prefix whose point is optimal but not certified and uses
its last step is binding, so it grows by one step; any other prefix
that fails grows by ``PREFIX_GROWTH``. Once a prefix would cover every
step, the whole problem is solved as it is. This is the pricing step of
time-indexed column generation (van den Akker, Hurkens & Savelsbergh,
2000).

Every HiGHS call goes through :func:`_linprog`, the one place that
removes fixed columns: HiGHS sees only the columns whose bounds leave
them free and the rows that touch one of them, and the fixed columns (a
prefix's later steps, a flow's steps before its release) are
substituted into the row bounds.

A free-path LP (one whose layout has ``xe`` columns) goes to HiGHS with
``presolve`` off, on every prefix rung, the whole-problem solve and the
``mps:`` read-back alike; every other LP keeps HiGHS's default presolve.
Presolve pays only when its reductions make up for its own cost
(Andersen & Andersen, 1995). On the 25 HiGHS calls of the seed-1
``free-release-gscale20`` benchmark corpus (2-vCPU VM), presolve alone
takes 1.8 s of HiGHS's 2.2 s and removes 26% of rows and 10% of
columns: the ``xe`` block, over 90% of the columns, gives it little to
reduce. Without it HiGHS takes 1.0 s, is faster on all 25 calls and
reaches the same objectives to 2e-16 relative, in at most 3,225
simplex iterations on one call. On single-path LPs presolve removes 43%
of rows (mostly the ``S``/``cum_s`` and ``C``/``fin`` rows), and the 12
``slot-single-gscale40`` LPs take 1.9 s without it against 1.25 s with
it. The rule is fixed, not an option: it follows from the LP's shape.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# private to scipy: pyproject.toml asks for the release this call was written against
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, MatrixFormat, ObjSense, _Highs

from .lp import LPProblem, _named


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL = "numerical"


#: HiGHS model status -> status; every other model status is NUMERICAL.
_MODEL_STATUS = {
    HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    HighsModelStatus.kIterationLimit: SolveStatus.ITERATION_LIMIT,
    HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
}


#: Factor by which a prefix of time steps grows after a failed attempt.
PREFIX_GROWTH = 1.25


class SolverError(RuntimeError):
    """A backend reported optimal but the solution fails re-verification,
    or HiGHS refused an option the solver sets."""


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
    #: Time steps HiGHS solved: the certified prefix, or every step of
    #: the problem; None for a problem without a step map.
    steps: int | None = None


def solve(problem: LPProblem, options: SolveOptions | None = None) -> LPSolution:
    """Minimize ``problem`` with HiGHS. Deterministic given identical
    inputs/options.

    ``backend="highs"`` solves the problem in memory, a certified prefix
    of its steps first when it has a step map. ``backend="mps:<path>"``
    has HiGHS write the whole problem to ``<path>`` as MPS, whatever the
    extension, read the file back and solve what was read, so the file on
    disk is exactly what gets solved.

    Infeasible, unbounded and numerically failed solves come back as
    statuses, not exceptions. An iteration-limited solve may carry no
    point (``x is None``).
    """
    options = options or SolveOptions()
    # decided from the problem as built: the MPS read-back has no layout
    presolve = problem.layout is None or problem.layout.xe is None
    if options.backend == "highs":
        solution = _solve_prefixes(problem, options, presolve)
        if solution is not None:
            return solution  # certified and checked against the whole problem
        solved = problem
    else:
        # HiGHS keeps every column in order, so the point read back fits problem
        solved = _through_file(problem, Path(options.backend[4:]))
    status, objective, x, _ = _linprog(
        solved.objective, solved.A, solved.row_lower, solved.row_upper,
        solved.col_lower, solved.col_upper, options, presolve,
    )
    steps = problem.step_map.step_count if problem.step_map is not None else None
    solution = LPSolution(status, objective, x, steps)
    if solution.status is SolveStatus.OPTIMAL:
        failures = check_solution(problem, solution, tol=options.tolerance)
        if failures:
            raise SolverError(
                f"backend {options.backend!r} returned a non-verifying optimum: "
                + "; ".join(failures[:5])
            )
    return solution


def _linprog(objective, A, row_lower, row_upper, col_lower, col_upper, options, presolve=True):
    """HiGHS on ``row_lower <= A @ x <= row_upper``: status, objective,
    point and, when optimal, the row duals (the objective's sensitivity to
    each row's finite bound). ``presolve=False`` turns HiGHS's presolve
    off.

    HiGHS gets only the columns whose bounds leave them free and the rows
    that touch one of them. A fixed column's activity moves into the row
    bounds, and the column takes its bound in the point. A dropped row
    has dual 0; one whose shifted bounds exclude 0 (beyond the tolerance)
    makes the problem infeasible without a HiGHS call.
    """
    fixed = (col_lower == col_upper) & np.isfinite(col_lower)
    if not fixed.any():
        return _highs(objective, A, row_lower, row_upper, col_lower, col_upper, options, presolve)
    value = np.where(fixed, col_lower, 0.0)
    shift = A @ value
    lower, upper = row_lower - shift, row_upper - shift
    # rows with a stored entry in a free column
    seen = np.concatenate([[0], np.cumsum(~fixed[A.indices])])
    live = seen[A.indptr[1:]] > seen[A.indptr[:-1]]
    if np.any(lower[~live] > options.tolerance) or np.any(upper[~live] < -options.tolerance):
        return SolveStatus.INFEASIBLE, math.nan, None, None
    base = float(objective @ value)
    cols, rows = np.flatnonzero(~fixed), np.flatnonzero(live)
    if not cols.size:
        return SolveStatus.OPTIMAL, base, value, np.zeros(len(row_lower))
    status, obj, x, y = _highs(
        objective[cols], A[rows][:, cols], lower[rows], upper[rows],
        col_lower[cols], col_upper[cols], options, presolve,
    )
    if x is not None:
        value[cols] = x
        x = value
    if y is not None:
        duals = np.zeros(len(row_lower))
        duals[rows] = y
        y = duals
    return status, obj + base, x, y


def _passed(objective, A, row_lower, row_upper, col_lower, col_upper) -> _Highs:
    """A silent HiGHS holding the arrays as they are, from one ``passModel`` call."""
    highs = _Highs()
    _set(highs, "output_flag", False)
    rows, cols = A.shape
    highs.passModel(
        cols, rows, A.nnz, int(MatrixFormat.kRowwise), int(ObjSense.kMinimize), 0.0,
        objective, col_lower, col_upper, row_lower, row_upper,
        A.indptr, A.indices, A.data, np.zeros(cols, dtype=np.int32),
    )
    return highs


def _set(highs: _Highs, option: str, value) -> None:
    """Set a HiGHS option; SolverError when HiGHS refuses the name or the
    value, which it would otherwise only log while keeping the old value."""
    if highs.setOptionValue(option, value) == HighsStatus.kError:
        raise SolverError(f"HiGHS refused option {option}={value!r}")


def _highs(objective, A, row_lower, row_upper, col_lower, col_upper, options, presolve=True):
    """:func:`_linprog` with every column and row handed to HiGHS."""
    highs = _passed(objective, A, row_lower, row_upper, col_lower, col_upper)
    _set(highs, "simplex_iteration_limit", options.iteration_limit)
    _set(highs, "ipm_iteration_limit", options.iteration_limit)
    _set(highs, "presolve", "choose" if presolve else "off")
    highs.run()
    # a model HiGHS refused to take is empty, which maps to NUMERICAL
    status = _MODEL_STATUS.get(highs.getModelStatus(), SolveStatus.NUMERICAL)
    if status is not SolveStatus.OPTIMAL:
        return status, math.nan, None, None
    solution = highs.getSolution()
    return (
        status, highs.getInfo().objective_function_value,
        np.array(solution.col_value), np.array(solution.row_dual),
    )


def save_mps(problem: LPProblem, path: str | Path) -> None:
    """Have HiGHS write ``problem`` and its names to ``path``, in the format
    the extension picks (``.mps`` for MPS); OSError when it cannot, naming
    the first name that holds whitespace (which HiGHS refuses to write)."""
    p = problem
    spaced = next((n for n in (*p.col_names, *p.row_names) if re.search(r"\s", n)), None)
    if spaced is not None:
        raise OSError(f"an MPS name cannot hold whitespace: {spaced!r}")
    highs = _passed(p.objective, p.A, p.row_lower, p.row_upper, p.col_lower, p.col_upper)
    for c, name in enumerate(p.col_names):
        highs.passColName(c, name)
    for r, name in enumerate(p.row_names):
        highs.passRowName(r, name)
    if highs.writeModel(str(path)) == HighsStatus.kError:
        raise OSError(f"HiGHS could not write {path}")


def load_mps(path: str | Path) -> LPProblem:
    """The problem HiGHS reads from the MPS file ``path``, names included;
    OSError when it cannot, ValueError when two columns or rows share a name."""
    highs = _Highs()
    _set(highs, "output_flag", False)
    if highs.readModel(str(path)) == HighsStatus.kError:
        raise OSError(f"HiGHS could not read {path}")
    highs.ensureRowwise()
    lp = highs.getLp()
    # HiGHS drops a file's names when two of them are the same
    if len(set(lp.col_names_)) != lp.num_col_:
        raise ValueError("column names are not unique")
    if len(set(lp.row_names_)) != lp.num_row_:
        raise ValueError("row names are not unique")
    m = lp.a_matrix_
    A = sp.csr_matrix((m.value_, m.index_, m.start_), shape=(lp.num_row_, lp.num_col_))
    columns = [np.array(v, dtype=float) for v in (lp.col_cost_, lp.col_lower_, lp.col_upper_)]
    rows = [np.array(v, dtype=float) for v in (lp.row_lower_, lp.row_upper_)]
    return LPProblem(*columns, A, *rows, _named(lp.col_names_), _named(lp.row_names_))


def _through_file(problem: LPProblem, path: Path) -> LPProblem:
    """``problem`` written to ``path`` as MPS and read back. HiGHS picks the
    format from the extension, so it writes and reads an ``.mps`` file in a
    temporary directory beside ``path``, then renamed onto ``path``: that
    file is the one read."""
    try:
        with tempfile.TemporaryDirectory(prefix=".coflownet-", dir=path.parent) as temp:
            written = Path(temp) / "lp.mps"
            save_mps(problem, written)
            read = load_mps(written)
            os.replace(written, path)
    except OSError as exc:
        raise OSError(f"cannot write the LP to {path}: {exc.strerror or exc}") from exc
    return read


def _solve_prefixes(problem: LPProblem, options: SolveOptions, presolve: bool) -> LPSolution | None:
    """The first certified prefix solution, trying ever longer prefixes
    shorter than the whole problem; None when none certifies or the
    problem has no step map."""
    step_map = problem.step_map
    if step_map is None:
        return None
    prefix = step_map.first_prefix
    while prefix < step_map.step_count:
        solution, used = _solve_prefix(problem, prefix, options, presolve)
        if solution is not None:
            return solution
        if used == prefix:  # the optimal point runs to the prefix's end
            prefix += 1
        else:
            prefix = max(prefix + 1, math.ceil(prefix * PREFIX_GROWTH))
    return None


def _solve_prefix(
    problem: LPProblem, prefix: int, options: SolveOptions, presolve: bool = True
) -> tuple[LPSolution | None, int | None]:
    """Solve the rows of steps ``1..prefix`` with every later column's
    bounds pinned at its after-prefix value. The full-length point when a
    weak-duality bound on the whole problem certifies it optimal and it
    passes :func:`check_solution`, None otherwise; and the last step an
    optimal point that is not returned uses (its last column away from
    the column's after-value), None for every other outcome."""
    step_map = problem.step_map
    rows = np.flatnonzero(step_map.row_step <= prefix)
    later = step_map.col_step > prefix
    status, objective, x, duals = _linprog(
        problem.objective, problem.A[rows], problem.row_lower[rows], problem.row_upper[rows],
        np.where(later, step_map.col_after, problem.col_lower),
        np.where(later, step_map.col_after, problem.col_upper), options, presolve,
    )
    if status is not SolveStatus.OPTIMAL:
        return None, None
    y = _extended_duals(step_map, rows, duals, prefix)
    if _dual_bound(problem, y) >= objective - options.tolerance * max(1.0, abs(objective)):
        solution = LPSolution(SolveStatus.OPTIMAL, objective, x, prefix)
        if not check_solution(problem, solution, tol=options.tolerance):
            return solution, None
    used = step_map.col_step[np.abs(x - step_map.col_after) > options.tolerance]
    return None, int(used.max(initial=0))


def _extended_duals(step_map, rows: np.ndarray, duals: np.ndarray, prefix: int) -> np.ndarray:
    """Row duals of the whole problem from the prefix's: each later
    ``cum_j_i_t_s`` row gets its flow's ``dem`` dual clipped at 0, every
    other later row gets 0.

    With the later columns at their after-values, complementary slackness
    asks of a flow's later ``cum_j_i_t_s`` duals that they not increase
    (``S`` at 1), stay at least 0 (the last ``S``) and at least the ``dem``
    dual (``x`` at 0), and start at most ``-d(S_prefix)``, the prefix
    LP's reduced cost of the flow's last prefix ``S``. The constant
    ``max(y_dem, 0)`` is the smallest choice that meets the first three,
    so it meets the last whenever any choice does.
    """
    y = np.zeros(len(step_map.row_step))
    y[rows] = duals
    later = np.flatnonzero((step_map.row_step > prefix) & (step_map.row_dem >= 0))
    y[later] = np.maximum(y[step_map.row_dem[later]], 0.0)
    return y


def _dual_bound(problem: LPProblem, y: np.ndarray) -> float:
    """Weak-duality lower bound on ``problem``'s optimum from row duals
    ``y``, after clipping entries whose sign the row bounds do not allow.

    ``sum(y+ * row_lower - y- * row_upper) + sum(min(d * lb, d * ub))``
    with ``d = c - A.T @ y``.
    """
    lower, upper = problem.row_lower, problem.row_upper
    y = np.where(np.isinf(lower), np.minimum(y, 0.0), y)
    y = np.where(np.isinf(upper), np.maximum(y, 0.0), y)
    d = problem.objective - problem.A.T @ y
    pos, neg = y > 0, y < 0
    bound = float(y[pos] @ lower[pos] + y[neg] @ upper[neg])
    up, down = d > 0, d < 0
    return bound + float(d[up] @ problem.col_lower[up] + d[down] @ problem.col_upper[down])


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
    if not abs(recomputed - solution.objective) <= tol * scale:  # NaN fails too
        failures.append(
            f"objective mismatch: reported {solution.objective!r}, recomputed {recomputed!r}"
        )
    return failures

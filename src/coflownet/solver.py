"""LP solving front end: HiGHS through scipy's binding, re-verified.

The binding is the extension module ``scipy.optimize._highspy._core``,
loaded from its file (:func:`coflownet.csr._load_extension`, which
loads scipy's sparse kernels too) rather than through the
``scipy.optimize`` package, whose ``__init__`` imports all of
``linprog``, ``interpolative`` and fft and parses hundreds of
docstrings. Skipping it took a cold ``import coflownet`` from 0.99 s and
79 MB to 0.54 s and 55 MB (median of 4 fresh processes, 2-vCPU VM). The
module is registered under its own name, so ``scipy.optimize`` imported
later in the same process shares it.

HiGHS gets the problem's row-form :class:`~coflownet.csr.CSR` arrays
as they are (``indptr``, ``indices``, ``data``, int32 indices when they
fit, so that the binding copies nothing; the row and column bounds,
infinities included) in one ``passModel`` call; its model status,
point, row duals and objective come back unchanged.

An ``optimal`` result is re-checked against the original problem (row
residuals, bounds, objective recomputation), so no point that the
problem rejects is handed back. :func:`save_mps` has HiGHS write a
problem to an MPS file for other solvers; nothing in the package reads
one back.

A relaxation built with a first prefix is first solved on a prefix of
its time steps: the rows of steps ``1..L``, with every later column's
bounds pinned at its after-prefix value and each flow's ``S`` at step
``L`` pinned at 1, so that every flow is done within the prefix. Every
later row then holds at the after-values. The time axis comes from the
problem's column layout and matrix (:func:`_time_axis`): a column's step
is its place in its ``X``, ``S`` or ``xe`` series, and a row's step is
the latest of its columns'. The prefix's row duals, padded with
zeros for the later rows, give a weak-duality bound on the whole
problem; the prefix point is returned only when that bound reaches its
objective, which proves it optimal for every step. A prefix whose point
is optimal but not certified and uses its last step (a flow sends in
step ``L``, so its ``S`` at ``L - 1`` is short of 1) is binding, so it
grows by one step; an infeasible prefix, or an uncertified optimum that
ends earlier, grows by ``PREFIX_GROWTH``.
After any other status (HiGHS failed: ``numerical``, ``iteration_limit``),
and once a prefix would cover every step, the whole problem is solved
as it is. This is the pricing step of time-indexed column generation
(van den Akker, Hurkens & Savelsbergh, 2000).

One ladder (:func:`_solve_prefixes`) walks the prefixes for two
sources of rungs. :func:`solve` slices each prefix from a relaxation
built whole and prices the later steps on its matrix.
:func:`solve_relaxation`, which the pipeline calls, builds each prefix
as a rung of its own from the instance and prices the later steps in
closed form, in O(flows) (:func:`_priced_bound`); it builds the whole
relaxation only when the ladder reaches its end. Both hand HiGHS
bitwise the same arrays and add the same objective constant, so they
return the same point and objective.

Every HiGHS call goes through :func:`_linprog`, the one place that
removes fixed columns: HiGHS sees only the columns whose bounds leave
them free and the rows that touch one of them. The fixed columns (a
prefix's later steps, each flow's last ``S``, a flow's steps before its
release) are substituted into the row bounds, and their objective terms,
with the problem's offset, into the objective constant (``math.fsum``,
so that a sliced prefix and a built rung get the same constant bit for
bit).

HiGHS's presolve is off for every LP. Presolve pays only when its
reductions make up for its own cost (Andersen & Andersen, 1995), and on
these LPs they do not. Summed over every LP the pipeline solves on one
pass of each seed-1 benchmark corpus (two runs each, 2-vCPU VM), HiGHS took
1.58-1.98 s with presolve and 0.65-0.70 s without on
``free-release-gscale20``, 0.13-0.15 s and 0.09-0.11 s on
``shop-oracle``, and 0.71-0.73 s and 0.65-0.78 s on
``slot-single-gscale40``, where the schedules were the same. The rule is
fixed, not an option.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import ClassVar

import numpy as np

from .csr import _load_extension
from .lp import LPProblem, _assemble, _first_prefix
from .model import Instance

#: scipy's HiGHS binding, private to scipy: pyproject.toml asks for the
#: release this module was written against.
_core = _load_extension("scipy.optimize._highspy._core")
HighsModelStatus, HighsStatus, _Highs = _core.HighsModelStatus, _core.HighsStatus, _core._Highs
MatrixFormat, ObjSense = _core.MatrixFormat, _core.ObjSense


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

#: Most simplex or IPM iterations of one HiGHS call; a call cut short
#: reports ``iteration_limit``.
ITERATION_LIMIT = 100_000

#: Absolute tolerance of the solution checks, of the prefix certificate
#: (relative to ``max(1, |objective|)`` there) and of a column's distance
#: from its after-prefix value.
TOLERANCE = 1e-7


class SolverError(RuntimeError):
    """HiGHS reported optimal but the solution fails re-verification, or
    HiGHS refused an option the solver sets."""


@dataclass(frozen=True)
class SolveOptions:
    """The one backend, HiGHS in memory. Nothing in the package reads it:
    it is kept, with ``solve``'s and ``run_pipeline``'s ``options``
    parameter, only for the benchmark harness, which builds and reports
    it."""

    #: Not a constructor field: the solver always uses ``TOLERANCE``.
    tolerance: ClassVar[float] = TOLERANCE
    backend: str = "highs"

    def __post_init__(self):
        if self.backend != "highs":
            raise ValueError(f"unknown backend {self.backend!r} (expected highs)")


@dataclass(frozen=True)
class LPSolution:
    status: SolveStatus
    objective: float
    x: np.ndarray | None
    #: Time steps HiGHS solved: the certified prefix, or every step of
    #: the problem; None for a problem without a column layout.
    steps: int | None = None


def solve(problem: LPProblem, options: SolveOptions | None = None) -> LPSolution:
    """Minimize ``problem`` with HiGHS in memory, a certified prefix of its
    steps first when it has a ``first_prefix``, each prefix sliced from
    ``problem``. Deterministic given identical inputs. ``options`` is not
    read (see :class:`SolveOptions`).

    Infeasible, unbounded and numerically failed solves come back as
    statuses, not exceptions. An iteration-limited solve may carry no
    point (``x is None``).
    """
    if problem.first_prefix is not None:
        axis = _time_axis(problem)
        solution = _solve_prefixes(
            problem.first_prefix, problem.layout.S.shape[1],
            lambda prefix: _solve_prefix(problem, axis, prefix),
        )
        if solution is not None:
            return solution  # certified and checked against the whole problem
    return _solve_whole(problem)


def solve_relaxation(instance: Instance, boundaries) -> tuple[LPProblem, LPSolution]:
    """Minimize the relaxation over the steps between consecutive
    ``boundaries`` (see :func:`coflownet.lp._assemble`) with HiGHS: the LP
    that was solved, and its solution.

    The prefixes are tried as :func:`solve` tries them, but each rung is
    built on its own from the instance, and the steps after it are priced
    in closed form (:func:`_priced_bound`) instead of on the whole
    relaxation's matrix. The LP returned is then that rung, and its point
    has the rung's columns; extraction pads it to every step. The whole
    relaxation is built only when no rung certifies.
    """
    boundaries = np.asarray(boundaries, dtype=float)

    def attempt(prefix):
        rung = _assemble(instance, boundaries, prefix)
        status, solution, used = _solve_rung(rung)
        return status, None if solution is None else (rung, solution), used

    solved = _solve_prefixes(_first_prefix(instance, boundaries), len(boundaries) - 1, attempt)
    if solved is not None:
        return solved
    problem = _assemble(instance, boundaries)
    return problem, _solve_whole(problem)


def _solve_whole(problem: LPProblem) -> LPSolution:
    """:func:`solve` on every step of ``problem`` at once: the one place
    that hands HiGHS a whole problem."""
    status, objective, x, _ = _linprog(
        problem.objective, problem.A, problem.row_lower, problem.row_upper,
        problem.col_lower, problem.col_upper, problem.offset,
    )
    steps = problem.layout.S.shape[1] if problem.layout is not None else None
    solution = LPSolution(status, objective, x, steps)
    if solution.status is SolveStatus.OPTIMAL:
        failures = check_solution(problem, solution)
        if failures:
            raise SolverError(
                "HiGHS returned a non-verifying optimum: " + "; ".join(failures[:5])
            )
    return solution


def _linprog(objective, A, row_lower, row_upper, col_lower, col_upper, offset=0.0):
    """HiGHS on ``min offset + objective @ x`` subject to
    ``row_lower <= A @ x <= row_upper``: status, objective, point and,
    when optimal, the row duals (the objective's sensitivity to each
    row's finite bound).

    HiGHS gets only the columns whose bounds leave them free and the rows
    that touch one of them. A fixed column's activity moves into the row
    bounds, its objective term into the constant (with ``offset``, summed
    by ``math.fsum``), and the column takes its bound in the point. A
    dropped row has dual 0; one whose shifted bounds exclude 0 (beyond
    ``TOLERANCE``) makes the problem infeasible without a HiGHS call.
    """
    fixed = (col_lower == col_upper) & np.isfinite(col_lower)
    if not fixed.any():
        status, obj, x, y = _highs(objective, A, row_lower, row_upper, col_lower, col_upper)
        return status, obj + offset, x, y
    value = np.where(fixed, col_lower, 0.0)
    shift = A @ value
    lower, upper = row_lower - shift, row_upper - shift
    # rows with a stored entry in a free column
    seen = np.concatenate([[0], np.cumsum(~fixed[A.indices])])
    live = seen[A.indptr[1:]] > seen[A.indptr[:-1]]
    if np.any(lower[~live] > TOLERANCE) or np.any(upper[~live] < -TOLERANCE):
        return SolveStatus.INFEASIBLE, math.nan, None, None
    terms = objective * value
    base = math.fsum([offset, *terms[terms != 0.0].tolist()])
    cols, rows = np.flatnonzero(~fixed), np.flatnonzero(live)
    if not cols.size:
        return SolveStatus.OPTIMAL, base, value, np.zeros(len(row_lower))
    status, obj, x, y = _highs(
        objective[cols], A.select_rows(rows).select_columns(cols), lower[rows], upper[rows],
        col_lower[cols], col_upper[cols],
    )
    if x is not None:
        value[cols] = x
        x = value
    if y is not None:
        duals = np.zeros(len(row_lower))
        duals[rows] = y
        y = duals
    return status, obj + base, x, y


def _passed(objective, A, row_lower, row_upper, col_lower, col_upper, offset=0.0) -> _Highs:
    """A silent HiGHS holding the arrays and the objective constant
    ``offset`` as they are, from one ``passModel`` call."""
    highs = _Highs()
    _set(highs, "output_flag", False)
    rows, cols = A.shape
    highs.passModel(
        cols, rows, A.nnz, int(MatrixFormat.kRowwise), int(ObjSense.kMinimize), offset,
        objective, col_lower, col_upper, row_lower, row_upper,
        A.indptr, A.indices, A.data, np.zeros(cols, dtype=np.int32),
    )
    return highs


def _set(highs: _Highs, option: str, value) -> None:
    """Set a HiGHS option; SolverError when HiGHS refuses the name or the
    value, which it would otherwise only log while keeping the old value."""
    if highs.setOptionValue(option, value) == HighsStatus.kError:
        raise SolverError(f"HiGHS refused option {option}={value!r}")


def _highs(objective, A, row_lower, row_upper, col_lower, col_upper):
    """:func:`_linprog` with every column and row handed to HiGHS, and no
    objective constant."""
    highs = _passed(objective, A, row_lower, row_upper, col_lower, col_upper)
    _set(highs, "simplex_iteration_limit", ITERATION_LIMIT)
    _set(highs, "ipm_iteration_limit", ITERATION_LIMIT)
    _set(highs, "presolve", "off")
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
    """Have HiGHS write ``problem``, its objective constant (MPS keeps it
    as the objective row's right-hand side) and its names to ``path``, in
    the format its suffix picks (``.mps`` for MPS); OSError when it
    cannot, naming the first name that holds whitespace (which HiGHS
    refuses to write)."""
    p = problem
    spaced = next((n for n in (*p.col_names, *p.row_names) if re.search(r"\s", n)), None)
    if spaced is not None:
        raise OSError(f"cannot write the LP to {path}: an MPS name cannot hold whitespace: {spaced!r}")
    highs = _passed(p.objective, p.A, p.row_lower, p.row_upper, p.col_lower, p.col_upper, p.offset)
    for c, name in enumerate(p.col_names):
        highs.passColName(c, name)
    for r, name in enumerate(p.row_names):
        highs.passRowName(r, name)
    if highs.writeModel(str(path)) == HighsStatus.kError:
        raise OSError(f"cannot write the LP to {path}: HiGHS could not write it")


def _solve_prefixes(first_prefix: int, step_count: int, attempt):
    """The first certified prefix solution, trying ever longer prefixes
    shorter than the whole problem of ``step_count`` steps, from
    ``first_prefix`` on; None when none certifies or HiGHS fails on one.

    ``attempt(prefix)`` solves one rung, as :func:`_solve_prefix` does:
    its status, what it certified (None when nothing) and the last step
    an uncertified optimal point uses."""
    prefix = first_prefix
    while prefix < step_count:
        status, solution, used = attempt(prefix)
        if solution is not None:
            return solution
        if status not in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
            return None  # a HiGHS failure, not a prefix too short
        if used == prefix:  # the optimal point runs to the prefix's end
            prefix += 1
        else:
            prefix = max(prefix + 1, math.ceil(prefix * PREFIX_GROWTH))
    return None


def _time_axis(problem: LPProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a relaxation's columns and rows sit in time: the 1-based step
    of each column, from its place in its ``X``, ``S`` or ``xe`` series of
    ``problem.layout``; the value each column takes once its coflow or
    flow is done, 1 for ``X``/``S`` and 0 for ``xe``; and the step of each
    row, the latest step of its columns."""
    layout, A = problem.layout, problem.A
    series = np.vstack([layout.X, layout.S, *(c for s in layout.xe or () for c in s.values())])
    col_step = np.empty(problem.num_cols, dtype=np.int64)
    col_step[series] = np.arange(1, layout.S.shape[1] + 1)
    after = np.zeros(problem.num_cols)
    after[layout.X] = after[layout.S] = 1.0
    return col_step, after, np.maximum.reduceat(col_step[A.indices], A.indptr[:-1])


def _solve_prefix(
    problem: LPProblem, axis, prefix: int
) -> tuple[SolveStatus, LPSolution | None, int | None]:
    """Solve the rows of steps ``1..prefix`` (on ``axis``, the problem's
    :func:`_time_axis`) with every later column's bounds pinned at its
    after-prefix value and each flow's ``S`` at step ``prefix`` at 1.
    The prefix's status; the full-length point when the whole problem's
    weak-duality bound under the prefix's duals, padded with zeros,
    certifies it optimal and it passes :func:`check_solution`, None
    otherwise; and the last step an optimal point that is not returned
    uses (see :func:`_certified`), None for every other outcome."""
    col_step, after, row_step = axis
    rows = np.flatnonzero(row_step <= prefix)
    later = col_step > prefix
    lower = np.where(later, after, problem.col_lower)
    lower[problem.layout.S[:, prefix - 1]] = 1.0
    status, objective, x, duals = _linprog(
        problem.objective, problem.A.select_rows(rows),
        problem.row_lower[rows], problem.row_upper[rows],
        lower, np.where(later, after, problem.col_upper), problem.offset,
    )
    if status is not SolveStatus.OPTIMAL:
        return status, None, None
    y = np.zeros(problem.num_rows)
    y[rows] = duals
    solution = LPSolution(SolveStatus.OPTIMAL, objective, x, prefix)
    return status, *_certified(problem, solution, _dual_bound(problem, y), axis)


def _solve_rung(rung: LPProblem) -> tuple[SolveStatus, LPSolution | None, int | None]:
    """:func:`_solve_prefix` for a rung built on its own (the first steps
    of a longer relaxation): the point it certifies is the rung's,
    checked by :func:`check_solution` on the rung. Its last ``S`` are at
    1, so the whole relaxation's later rows hold at the later columns'
    after-values."""
    status, objective, x, duals = _linprog(
        rung.objective, rung.A, rung.row_lower, rung.row_upper,
        rung.col_lower, rung.col_upper, rung.offset,
    )
    if status is not SolveStatus.OPTIMAL:
        return status, None, None
    solution = LPSolution(SolveStatus.OPTIMAL, objective, x, rung.layout.S.shape[1])
    return status, *_certified(rung, solution, _priced_bound(rung, duals))


def _certified(problem: LPProblem, solution: LPSolution, bound: float, axis=None):
    """``(solution, None)`` when ``bound`` reaches the optimal
    ``solution``'s objective and :func:`check_solution` finds nothing;
    otherwise ``(None, the last step its point uses)``: the last step of
    a column away from its after-value (on ``axis``, the problem's
    :func:`_time_axis`, worked out here when not given), counting an
    ``S`` short of 1 at step t as step t + 1, in which its flow still
    sends."""
    objective, x = solution.objective, solution.x
    if bound >= objective - TOLERANCE * max(1.0, abs(objective)):
        if not check_solution(problem, solution):
            return solution, None
    col_step, after, _ = axis or _time_axis(problem)
    steps = col_step.copy()
    steps[problem.layout.S] += 1
    used = steps[np.abs(x - after) > TOLERANCE]
    return None, int(used.max(initial=0))


def _dual_bound(problem: LPProblem, y: np.ndarray) -> float:
    """Weak-duality lower bound on ``problem``'s optimum from row duals
    ``y``, after clipping entries whose sign the row bounds do not allow.

    ``offset + sum(y+ * row_lower - y- * row_upper) + sum(min(d * lb, d * ub))``
    with ``d = c - A.T @ y``.
    """
    return _bound_and_reduced_costs(problem, y)[0]


def _bound_and_reduced_costs(problem: LPProblem, y: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`_dual_bound` and the reduced costs ``d`` it was taken with."""
    lower, upper = problem.row_lower, problem.row_upper
    y = np.where(np.isinf(lower), np.minimum(y, 0.0), y)
    y = np.where(np.isinf(upper), np.maximum(y, 0.0), y)
    d = problem.objective - y @ problem.A
    pos, neg = y > 0, y < 0
    bound = problem.offset + float(y[pos] @ lower[pos] + y[neg] @ upper[neg])
    up, down = d > 0, d < 0
    return bound + float(d[up] @ problem.col_lower[up] + d[down] @ problem.col_upper[down]), d


def _priced_bound(rung: LPProblem, y: np.ndarray) -> float:
    """Weak-duality lower bound on the whole relaxation ``rung`` is the
    first ``L`` steps of, from the rung's row duals ``y``: the whole
    relaxation's :func:`_dual_bound` with ``y`` padded with zeros for the
    later rows, priced in closed form in O(flows) instead of on its
    matrix.

    The later rows have dual 0, and no rung row touches a later column,
    so every rung column keeps its reduced cost, and every later column
    has its objective coefficient as reduced cost: each later ``X`` has
    ``-w_j * len_t`` at its upper bound 1, which cancels the rung's
    smaller offset; each later ``S`` and ``xe`` has 0. The one column
    whose bounds differ is each flow's last ``S`` of the rung: [1, 1] in
    the rung, [0, 1] in the whole relaxation. With reduced cost ``d`` it
    adds ``d`` to the rung's bound and ``min(0, d)`` to the whole's, so
    each flow takes ``max(0, d)`` off the rung's own bound.
    """
    bound, d = _bound_and_reduced_costs(rung, y)
    return bound - float(np.maximum(d[rung.layout.S[:, -1]], 0.0).sum())


def check_solution(problem: LPProblem, solution: LPSolution, tol: float = TOLERANCE) -> list[str]:
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
    recomputed = problem.offset + float(problem.objective @ x)
    scale = max(1.0, abs(recomputed))
    if not abs(recomputed - solution.objective) <= tol * scale:  # NaN fails too
        failures.append(
            f"objective mismatch: reported {solution.objective!r}, recomputed {recomputed!r}"
        )
    return failures

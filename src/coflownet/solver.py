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
its last step is binding, so it grows by one step; an infeasible prefix,
or an uncertified optimum that ends earlier, grows by ``PREFIX_GROWTH``.
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
bitwise the same arrays, so they return the same point.

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
from typing import ClassVar

import numpy as np

from .csr import CSR, _load_extension
from .lp import FlowEdges, LPProblem, _assemble, _first_prefix, _named
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
    """A backend reported optimal but the solution fails re-verification,
    or HiGHS refused an option the solver sets."""


@dataclass(frozen=True)
class SolveOptions:
    #: Not a constructor field: the solver always uses ``TOLERANCE``.
    tolerance: ClassVar[float] = TOLERANCE
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
    of its steps first when it has a step map, each prefix sliced from
    ``problem``. ``backend="mps:<path>"`` has HiGHS write the whole
    problem to ``<path>`` as MPS, whatever the extension, read the file
    back and solve what was read, so the file on disk is exactly what gets
    solved.

    Infeasible, unbounded and numerically failed solves come back as
    statuses, not exceptions. An iteration-limited solve may carry no
    point (``x is None``).
    """
    options = options or SolveOptions()
    step_map = problem.step_map
    if options.backend == "highs" and step_map is not None:
        presolve = _presolve(problem)
        solution = _solve_prefixes(
            step_map.first_prefix, step_map.step_count,
            lambda prefix: _solve_prefix(problem, prefix, presolve),
        )
        if solution is not None:
            return solution  # certified and checked against the whole problem
    return _solve_whole(problem, options)


def solve_relaxation(
    instance: Instance, boundaries, edges: FlowEdges = None, options: SolveOptions | None = None
) -> tuple[LPProblem, LPSolution]:
    """Minimize the relaxation over the steps between consecutive
    ``boundaries`` (see :func:`coflownet.lp._assemble`) with HiGHS: the LP
    that was solved, and its solution.

    The prefixes are tried as :func:`solve` tries them, but each rung is
    built on its own from the instance, and the steps after it are priced
    in closed form (:func:`_priced_bound`) instead of on the whole
    relaxation's matrix. The LP returned is then that rung, and its point
    has the rung's columns; extraction pads it to every step. The whole
    relaxation is built only when no rung certifies, or for an
    ``mps:<path>`` backend, whose file holds it.
    """
    options = options or SolveOptions()
    boundaries = np.asarray(boundaries, dtype=float)
    step_count = len(boundaries) - 1
    if options.backend == "highs":

        def attempt(prefix):
            rung = _assemble(instance, boundaries, edges, prefix)
            status, solution, used = _solve_rung(rung)
            return status, None if solution is None else (rung, solution), used

        solved = _solve_prefixes(_first_prefix(instance, boundaries), step_count, attempt)
        if solved is not None:
            return solved
    problem = _assemble(instance, boundaries, edges)
    return problem, _solve_whole(problem, options)


def _presolve(problem: LPProblem) -> bool:
    """Whether HiGHS presolves ``problem``: not for a free-path LP (one
    whose layout has ``xe`` columns). Decided from the problem as built:
    the MPS read-back has no layout."""
    return problem.layout is None or problem.layout.xe is None


def _solve_whole(problem: LPProblem, options: SolveOptions) -> LPSolution:
    """:func:`solve` on every step of ``problem`` at once."""
    presolve = _presolve(problem)
    if options.backend == "highs":
        solved = problem
    else:
        # HiGHS keeps every column in order, so the point read back fits problem
        solved = _through_file(problem, Path(options.backend[4:]))
    status, objective, x, _ = _linprog(
        solved.objective, solved.A, solved.row_lower, solved.row_upper,
        solved.col_lower, solved.col_upper, presolve,
    )
    steps = problem.step_map.step_count if problem.step_map is not None else None
    solution = LPSolution(status, objective, x, steps)
    if solution.status is SolveStatus.OPTIMAL:
        failures = check_solution(problem, solution)
        if failures:
            raise SolverError(
                f"backend {options.backend!r} returned a non-verifying optimum: "
                + "; ".join(failures[:5])
            )
    return solution


def _linprog(objective, A, row_lower, row_upper, col_lower, col_upper, presolve=True):
    """HiGHS on ``row_lower <= A @ x <= row_upper``: status, objective,
    point and, when optimal, the row duals (the objective's sensitivity to
    each row's finite bound). ``presolve=False`` turns HiGHS's presolve
    off.

    HiGHS gets only the columns whose bounds leave them free and the rows
    that touch one of them. A fixed column's activity moves into the row
    bounds, and the column takes its bound in the point. A dropped row
    has dual 0; one whose shifted bounds exclude 0 (beyond ``TOLERANCE``)
    makes the problem infeasible without a HiGHS call.
    """
    fixed = (col_lower == col_upper) & np.isfinite(col_lower)
    if not fixed.any():
        return _highs(objective, A, row_lower, row_upper, col_lower, col_upper, presolve)
    value = np.where(fixed, col_lower, 0.0)
    shift = A @ value
    lower, upper = row_lower - shift, row_upper - shift
    # rows with a stored entry in a free column
    seen = np.concatenate([[0], np.cumsum(~fixed[A.indices])])
    live = seen[A.indptr[1:]] > seen[A.indptr[:-1]]
    if np.any(lower[~live] > TOLERANCE) or np.any(upper[~live] < -TOLERANCE):
        return SolveStatus.INFEASIBLE, math.nan, None, None
    base = float(objective @ value)
    cols, rows = np.flatnonzero(~fixed), np.flatnonzero(live)
    if not cols.size:
        return SolveStatus.OPTIMAL, base, value, np.zeros(len(row_lower))
    status, obj, x, y = _highs(
        objective[cols], A.select_rows(rows).select_columns(cols), lower[rows], upper[rows],
        col_lower[cols], col_upper[cols], presolve,
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


def _highs(objective, A, row_lower, row_upper, col_lower, col_upper, presolve=True):
    """:func:`_linprog` with every column and row handed to HiGHS."""
    highs = _passed(objective, A, row_lower, row_upper, col_lower, col_upper)
    _set(highs, "simplex_iteration_limit", ITERATION_LIMIT)
    _set(highs, "ipm_iteration_limit", ITERATION_LIMIT)
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
    A = CSR(m.start_, m.index_, m.value_, (lp.num_row_, lp.num_col_))
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


def _solve_prefix(
    problem: LPProblem, prefix: int, presolve: bool = True
) -> tuple[SolveStatus, LPSolution | None, int | None]:
    """Solve the rows of steps ``1..prefix`` with every later column's
    bounds pinned at its after-prefix value. The prefix's status; the
    full-length point when a weak-duality bound on the whole problem
    certifies it optimal and it passes :func:`check_solution`, None
    otherwise; and the last step an optimal point that is not returned
    uses (its last column away from the column's after-value), None for
    every other outcome."""
    step_map = problem.step_map
    rows = np.flatnonzero(step_map.row_step <= prefix)
    later = step_map.col_step > prefix
    status, objective, x, duals = _linprog(
        problem.objective, problem.A.select_rows(rows),
        problem.row_lower[rows], problem.row_upper[rows],
        np.where(later, step_map.col_after, problem.col_lower),
        np.where(later, step_map.col_after, problem.col_upper), presolve,
    )
    if status is not SolveStatus.OPTIMAL:
        return status, None, None
    bound = _dual_bound(problem, _extended_duals(step_map, rows, duals, prefix))
    solution = LPSolution(SolveStatus.OPTIMAL, objective, x, prefix)
    return status, *_certified(problem, solution, bound, check_solution)


def _solve_rung(rung: LPProblem) -> tuple[SolveStatus, LPSolution | None, int | None]:
    """:func:`_solve_prefix` for a rung built on its own (its step map's
    ``step_count`` steps of a longer relaxation): the point it certifies
    is the rung's, checked by :func:`check_solution` on the rung and by
    :func:`_later_row_failures` on the later rows."""
    status, objective, x, duals = _linprog(
        rung.objective, rung.A, rung.row_lower, rung.row_upper,
        rung.col_lower, rung.col_upper, _presolve(rung),
    )
    if status is not SolveStatus.OPTIMAL:
        return status, None, None
    solution = LPSolution(SolveStatus.OPTIMAL, objective, x, rung.step_map.step_count)
    return status, *_certified(rung, solution, _priced_bound(rung, duals), _rung_failures)


def _certified(problem: LPProblem, solution: LPSolution, bound: float, failures):
    """``(solution, None)`` when ``bound`` reaches the optimal
    ``solution``'s objective and ``failures(problem, solution)`` finds
    nothing; otherwise ``(None, the last step its point uses)``."""
    objective, x = solution.objective, solution.x
    if bound >= objective - TOLERANCE * max(1.0, abs(objective)):
        if not failures(problem, solution):
            return solution, None
    step_map = problem.step_map
    used = step_map.col_step[np.abs(x - step_map.col_after) > TOLERANCE]
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
    return _bound_and_reduced_costs(problem, y)[0]


def _bound_and_reduced_costs(problem: LPProblem, y: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`_dual_bound` and the reduced costs ``d`` it was taken with."""
    lower, upper = problem.row_lower, problem.row_upper
    y = np.where(np.isinf(lower), np.minimum(y, 0.0), y)
    y = np.where(np.isinf(upper), np.maximum(y, 0.0), y)
    d = problem.objective - y @ problem.A
    pos, neg = y > 0, y < 0
    bound = float(y[pos] @ lower[pos] + y[neg] @ upper[neg])
    up, down = d > 0, d < 0
    return bound + float(d[up] @ problem.col_lower[up] + d[down] @ problem.col_upper[down]), d


def _last_prefix_sums(rung: LPProblem) -> np.ndarray:
    """The columns of each flow's last ``S`` in ``rung``, ``S_j_i_L``."""
    step_map = rung.step_map
    return np.flatnonzero((step_map.col_dem >= 0) & (step_map.col_step == step_map.step_count))


def _priced_bound(rung: LPProblem, y: np.ndarray) -> float:
    """Weak-duality lower bound on the whole relaxation ``rung`` is the
    first ``L`` steps of, from the rung's row duals ``y``: the whole
    relaxation's :func:`_dual_bound` under :func:`_extended_duals`, priced
    in closed form in O(flows) instead of on its matrix.

    With each flow's later ``cum_j_i_t_s`` rows at ``m = max(y_dem, 0)``
    and every other later row at 0:

    - each later ``X`` has reduced cost ``-y_fin * len_t`` at its upper
      bound 1, which cancels the rung's shorter ``fin`` right-hand side;
    - each later ``x`` has reduced cost ``m - y_dem >= 0``, each later
      ``xe`` 0, both at their lower bound 0;
    - the last ``S`` of the rung gains ``m`` in reduced cost, the later
      ``S`` cancel ``m`` between consecutive rows, and the last ``S`` of
      the whole relaxation has reduced cost ``-m`` at its upper bound 1.

    So each flow adds ``min(0, d + m) - min(0, d) - m`` to the rung's own
    bound, with ``d`` the rung's reduced cost of its last ``S``.
    """
    bound, d = _bound_and_reduced_costs(rung, y)
    last = _last_prefix_sums(rung)
    m = np.maximum(y[rung.step_map.col_dem[last]], 0.0)
    d = d[last]
    return bound + float(np.sum(np.minimum(0.0, d + m) - np.minimum(0.0, d) - m))


def _later_row_failures(rung: LPProblem, x: np.ndarray) -> list[str]:
    """:func:`check_solution`'s report on the whole relaxation's rows past
    ``rung`` for the rung's point ``x`` with every later column at its
    after-value (``X``, ``S`` at 1; ``x``, ``xe`` at 0).

    Only each flow's first later row, ``cum_j_i_{L+1}_s``, can fail: it
    reads ``S_{L+1} - x_{L+1} - S_L = 1 - S_L``. Every later ``cum``,
    ``cap`` and flow row is 0 at the after-values, and the whole ``fin``
    row differs from the rung's by the same later lengths on both sides.
    """
    last = _last_prefix_sums(rung)
    resid = np.abs(1.0 - x[last])
    failures = []
    for k in np.flatnonzero(~(resid <= TOLERANCE)):
        tag = rung.col_names[last[k]][2:].rsplit("_", 1)[0]
        step = rung.step_map.step_count + 1
        failures.append(f"row cum_{tag}_{step}_s violated by {resid[k]:.3e}")
    return failures


def _rung_failures(rung: LPProblem, solution: LPSolution) -> list[str]:
    """:func:`check_solution` on ``rung`` and :func:`_later_row_failures`."""
    return check_solution(rung, solution) + _later_row_failures(rung, solution.x)


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
    recomputed = float(problem.objective @ x)
    scale = max(1.0, abs(recomputed))
    if not abs(recomputed - solution.objective) <= tol * scale:  # NaN fails too
        failures.append(
            f"objective mismatch: reported {solution.objective!r}, recomputed {recomputed!r}"
        )
    return failures

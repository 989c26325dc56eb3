"""End-to-end solve pipeline: build, solve, round, compact, verify.

The pipeline refuses to hand back a schedule that fails verification;
callers (CLI, bench) map the dedicated exceptions to exit codes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lp import (
    FlowEdges,
    _padded_grid,
    build_interval_lp,
    build_time_indexed_lp,
    columns_per_slot,
    extract_fractional,
    extract_interval_solution,
    flow_edges,
    horizon_upper_bound,
)
from .model import (
    CompletionReport,
    FractionalSchedule,
    Instance,
    RateSchedule,
    as_fractional,
    check_instance,
)
from .rounding import StretchTrial, check_trials, expand_interval_schedule, lp_heuristic, run_stretch
from .solver import LPSolution, SolveOptions, SolveStatus, solve
from .verify import verify_schedule

STRATEGIES = ("stretch", "heuristic", "interval-stretch")

#: Most slot-level columns, ``horizon_upper_bound`` times
#: ``columns_per_slot``, for which the pipeline allocates anything that
#: grows with the horizon (the slot LP, or the interval schedule's
#: expansion to slots). Building the slot LP takes about 320 bytes per
#: column.
MAX_SLOT_COLUMNS = 2_000_000


class SolveFailure(RuntimeError):
    """The LP backend did not return an optimal solution."""

    def __init__(self, status: SolveStatus):
        self.status = status
        super().__init__(f"solver finished with status {status.value}")


class HorizonTooLarge(ValueError):
    """The horizon bound makes the slot-level model too large to build."""


class VerificationFailure(RuntimeError):
    """The rounded schedule failed independent verification."""

    def __init__(self, violations):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations[:5])
        super().__init__(f"{len(violations)} violation(s): {lines}")


@dataclass(frozen=True)
class PipelineResult:
    instance: Instance
    strategy: str
    epsilon: float | None
    lp_objective: float
    fractional: FractionalSchedule
    schedule: RateSchedule
    report: CompletionReport
    best_lambda: float | None
    average_objective: float | None
    trial_count: int
    #: ``horizon_upper_bound`` of the instance, in slots.
    horizon_bound: int
    #: LP steps (slots, or intervals for ``interval-stretch``) the solver
    #: solved: a certified prefix, or all of them (``LPSolution.steps``).
    lp_steps: int


def checked_horizon(instance: Instance, edges: FlowEdges) -> int:
    """``horizon_upper_bound(instance)``, or :class:`HorizonTooLarge` when
    that many slots times the columns per slot exceeds ``MAX_SLOT_COLUMNS``
    (free-path flows on ``edges``, from ``flow_edges``)."""
    horizon = horizon_upper_bound(instance)
    per_slot = columns_per_slot(instance, edges)
    if horizon * per_slot > MAX_SLOT_COLUMNS:
        raise HorizonTooLarge(
            f"horizon bound of {horizon:,} slots needs about {horizon * per_slot:,} LP columns "
            f"({per_slot:,} per slot), more than the limit of {MAX_SLOT_COLUMNS:,}"
        )
    return horizon


def solve_lp(
    instance: Instance,
    options: SolveOptions | None = None,
    horizon: int | None = None,
    edges: FlowEdges = None,
) -> tuple[FractionalSchedule, LPSolution]:
    """Build and solve the slot-indexed relaxation, returning the
    extracted fractional schedule alongside the raw solution. Without a
    ``horizon``, the checked horizon bound is used; without ``edges``,
    ``flow_edges(instance)``."""
    edges = edges if edges is not None else flow_edges(instance)
    horizon = horizon if horizon is not None else checked_horizon(instance, edges)
    problem = build_time_indexed_lp(instance, horizon, edges)
    solution = solve(problem, options)
    if solution.status is not SolveStatus.OPTIMAL:
        raise SolveFailure(solution.status)
    return extract_fractional(problem, solution.x, instance, horizon), solution


def run_pipeline(
    instance: Instance,
    strategy: str = "stretch",
    trials: int = 20,
    seed: int = 0,
    epsilon: float | None = None,
    options: SolveOptions | None = None,
) -> PipelineResult:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (one of {STRATEGIES})")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    check_trials(trials)
    check_instance(instance)
    # refuses the instance before anything that grows with the horizon exists;
    # the free-path usable edges serve the check and the LP build
    edges = flow_edges(instance)
    horizon = checked_horizon(instance, edges)

    if strategy == "interval-stretch":
        eps = 0.2 if epsilon is None else epsilon
        grid = _padded_grid(instance, horizon, eps)
        problem = build_interval_lp(instance, grid, edges)
        solution = solve(problem, options)
        if solution.status is not SolveStatus.OPTIMAL:
            raise SolveFailure(solution.status)
        interval = extract_interval_solution(problem, solution.x, instance, grid)
        fractional = as_fractional(expand_interval_schedule(interval, instance), instance)
        lp_objective = solution.objective
    else:
        eps = None
        fractional, solution = solve_lp(instance, options, horizon, edges)
        lp_objective = solution.objective

    if strategy == "heuristic":
        trial = lp_heuristic(instance, fractional)
        best_lambda = trial.lam.value
        average = None
        chosen: StretchTrial = trial
    else:
        result = run_stretch(instance, fractional, trials=trials, seed=seed)
        chosen = result.best
        best_lambda = chosen.lam.value
        average = result.average_objective

    violations = verify_schedule(chosen.schedule, instance)
    if violations:
        raise VerificationFailure(violations)
    return PipelineResult(
        instance=instance,
        strategy=strategy,
        epsilon=eps,
        lp_objective=lp_objective,
        fractional=fractional,
        schedule=chosen.schedule,
        report=chosen.report,
        best_lambda=best_lambda,
        average_objective=average,
        trial_count=1 if strategy == "heuristic" else trials,
        horizon_bound=horizon,
        lp_steps=solution.steps,
    )

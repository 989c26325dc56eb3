"""End-to-end solve pipeline: build, solve, round, compact, verify.

The relaxation is built and solved one prefix rung at a time
(:func:`coflownet.solver.solve_relaxation`): the LP over the whole
horizon bound is built only when no shorter prefix is certified optimal.
The fractional schedule still spans the whole horizon bound.

The pipeline refuses to hand back a schedule that fails verification;
callers (CLI, bench) map the dedicated exceptions to exit codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import (
    HorizonTooLarge,
    _padded_grid,
    checked_horizon,
    columns_per_slot,
    extract_fractional,
    extract_interval_solution,
    flow_edges,
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
from .solver import SolveOptions, SolveStatus, solve_relaxation
from .verify import verify_schedule

STRATEGIES = ("stretch", "heuristic", "interval-stretch")

class SolveFailure(RuntimeError):
    """The LP backend did not return an optimal solution."""

    def __init__(self, status: SolveStatus):
        self.status = status
        super().__init__(f"solver finished with status {status.value}")


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
        grid = _padded_grid(instance, horizon, eps, columns_per_slot(instance, edges))
        boundaries = grid.boundaries
    else:
        eps = None
        boundaries = np.arange(horizon + 1.0)
    problem, solution = solve_relaxation(instance, boundaries, edges, options)
    if solution.status is not SolveStatus.OPTIMAL:
        raise SolveFailure(solution.status)
    if strategy == "interval-stretch":
        interval = extract_interval_solution(problem, solution.x, instance, grid)
        fractional = as_fractional(expand_interval_schedule(interval, instance), instance)
    else:
        fractional = extract_fractional(problem, solution.x, instance, horizon)

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
        lp_objective=solution.objective,
        fractional=fractional,
        schedule=chosen.schedule,
        report=chosen.report,
        best_lambda=best_lambda,
        average_objective=average,
        trial_count=1 if strategy == "heuristic" else trials,
        horizon_bound=horizon,
        lp_steps=solution.steps,
    )

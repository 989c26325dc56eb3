"""End-to-end solve pipeline: build, solve, round, compact, verify.

The relaxation is built and solved one prefix rung at a time
(:func:`coflownet.solver.solve_relaxation`): the LP over the whole
horizon bound is built only when no shorter prefix is certified optimal.
The fractional schedule still spans the whole horizon bound.
:func:`write_relaxation` writes the whole relaxation, over the same step
boundaries, to an MPS file.

The pipeline refuses to hand back a schedule that fails verification;
callers (CLI, bench) map the dedicated exceptions to exit codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lp import (
    HorizonTooLarge,
    _assemble,
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
from .solver import SolveOptions, SolveStatus, save_mps, solve_relaxation
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


def _relaxation(instance: Instance, strategy: str, epsilon: float | None):
    """The free-path usable edges, the checked horizon bound, the interval
    grid (None for the slot LP) and the step boundaries of ``strategy``'s
    relaxation of the valid ``instance``; :class:`HorizonTooLarge` before
    anything that grows with the horizon exists."""
    edges = flow_edges(instance)
    horizon = checked_horizon(instance, edges)
    if strategy != "interval-stretch":
        return edges, horizon, None, np.arange(horizon + 1.0)
    eps = 0.2 if epsilon is None else epsilon
    grid = _padded_grid(instance, horizon, eps, columns_per_slot(instance, edges))
    return edges, horizon, grid, grid.boundaries


def write_relaxation(instance: Instance, strategy: str, epsilon: float | None, path: str | Path) -> None:
    """Write the whole relaxation :func:`run_pipeline` solves for
    ``strategy`` (at ``epsilon``) on the valid ``instance`` to ``path`` as
    MPS: every step, of which the pipeline's prefix rungs are the first.

    ValueError, before anything is built, unless ``path`` ends in
    ``.mps``: HiGHS picks the format from the suffix. OSError when the
    file cannot be written."""
    if Path(path).suffix != ".mps":
        raise ValueError(f"an LP file must end in .mps, got {str(path)!r}")
    edges, _, _, boundaries = _relaxation(instance, strategy, epsilon)
    save_mps(_assemble(instance, boundaries, edges), path)


def run_pipeline(
    instance: Instance,
    strategy: str = "stretch",
    trials: int = 20,
    seed: int = 0,
    epsilon: float | None = None,
    options: SolveOptions | None = None,
) -> PipelineResult:
    """Solve ``strategy``'s relaxation of ``instance``, round it and verify
    the schedule. ``options`` is not read (see
    :class:`~coflownet.solver.SolveOptions`)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (one of {STRATEGIES})")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    check_trials(trials)
    check_instance(instance)
    edges, horizon, grid, boundaries = _relaxation(instance, strategy, epsilon)
    problem, solution = solve_relaxation(instance, boundaries, edges)
    if solution.status is not SolveStatus.OPTIMAL:
        raise SolveFailure(solution.status)
    if grid is not None:
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
        epsilon=None if grid is None else grid.epsilon,
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

"""Coflow scheduling over general directed networks.

Builds slot-indexed and geometric-interval linear relaxations for
single-path and free-path routing, rounds them with randomized stretch,
and verifies/benchmarks the resulting schedules against exact
small-instance oracles.
"""

from .model import (
    AMOUNT_EPS,
    FEAS_TOL,
    Coflow,
    CompletionReport,
    Edge,
    Flow,
    FractionalSchedule,
    Instance,
    Network,
    RateSchedule,
    RoutingModel,
    as_fractional,
    completion_times,
    validate_instance,
    weighted_objective,
)
from .lp import (
    MAX_SLOT_COLUMNS,
    HorizonTooLarge,
    IntervalGrid,
    IntervalSolution,
    LPProblem,
    build_interval_lp,
    build_time_indexed_lp,
    checked_horizon,
    extract_fractional,
    extract_interval_solution,
    geometric_intervals,
    horizon_lower_bound,
    horizon_upper_bound,
    interval_grid_for,
)
from .solver import LPSolution, SolveOptions, SolveStatus, SolverError, solve
from .rounding import (
    Lambda,
    StretchResult,
    StretchTrial,
    compact_idle_slots,
    completion_ceilings,
    expand_interval_schedule,
    lambda_point,
    lp_heuristic,
    run_stretch,
    stretch_schedule,
)
from .verify import (
    InterpolationReport,
    Violation,
    continuous_interpolation_checks,
    verify_schedule,
)
from .openshop import (
    OpenShopInstance,
    check_lp_lower_bound,
    open_shop_optimal,
    permutation_objective,
    random_shop,
    reduce_open_shop,
)
from .pipeline import (
    PipelineResult,
    SolveFailure,
    VerificationFailure,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred.
"""

import math
import time

import numpy as np

import coflownet as cn
from coflownet.generate import demo_instance
from coflownet.solver import SolveOptions
from coflownet.verify import check_identity_on_vectors

from conftest import fuzz_instance
from helpers import demo_optimal_schedule


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def _solve_fractional(instance):
    horizon = cn.horizon_upper_bound(instance)
    problem = cn.build_time_indexed_lp(instance, horizon)
    solution = cn.solve(problem)
    return cn.extract_fractional(problem, solution.x, instance, horizon), solution


def test_criterion_1_golden_single_path():
    start = time.perf_counter()
    inst = demo_instance(cn.RoutingModel.SINGLE_PATH)
    fractional, solution = _solve_fractional(inst)
    ok = solution.objective <= 7.0 + 1e-6
    result = cn.run_stretch(inst, fractional, trials=20, seed=424242)
    feasible_floor = True
    for trial in result.trials:
        if cn.verify_schedule(trial.schedule, inst):
            feasible_floor = False
        if trial.report.objective < 7.0 - 1e-9:
            feasible_floor = False
    best = result.best.report.objective
    in_range = 7.0 - 1e-9 <= best <= 14.0 + 1e-9
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (golden single-path)",
        ok and feasible_floor and in_range and elapsed < 5.0,
        f"lp={solution.objective:.6f}<=7, best-of-20={best} in [7,14], "
        f"all 20 schedules feasible with objective>=7, {elapsed:.2f}s",
    )


def test_criterion_2_golden_free_path():
    start = time.perf_counter()
    inst = demo_instance(cn.RoutingModel.FREE_PATH)
    fractional, solution = _solve_fractional(inst)
    ok = solution.objective <= 5.0 + 1e-6
    hand_schedule_ok = cn.verify_schedule(demo_optimal_schedule(cn.RoutingModel.FREE_PATH), inst) == []
    result = cn.run_stretch(inst, fractional, trials=20, seed=424242)
    best = result.best.report.objective
    in_range = 5.0 - 1e-9 <= best <= 10.0 + 1e-9
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (golden free-path)",
        ok and hand_schedule_ok and in_range and elapsed < 5.0,
        f"lp={solution.objective:.6f}<=5, best-of-20={best} in [5,10], "
        f"hand-built optimal schedule verifies, {elapsed:.2f}s",
    )


def test_criterion_3_oracle_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    instances = 50
    worst_mean_ratio = 0.0
    worst_interval_ratio = 0.0
    for k in range(instances):
        shop = cn.random_shop(rng, max_jobs=6, max_machines=4, max_time=5, max_weight=10)
        inst = cn.reduce_open_shop(shop)
        fractional, solution = _solve_fractional(inst)
        exact, _ = cn.open_shop_optimal(shop)
        assert cn.check_lp_lower_bound(inst, solution.objective, exact) is None
        for epsilon in (0.2, 0.5436):
            interval = cn.solve(cn.build_interval_lp(inst, cn.interval_grid_for(inst, epsilon)))
            assert cn.check_lp_lower_bound(inst, interval.objective, exact) is None
            worst_interval_ratio = max(worst_interval_ratio, interval.objective / exact)
        result = cn.run_stretch(inst, fractional, trials=200, seed=1000 + k)
        assert result.best.report.objective >= exact - 1e-9
        mean_ratio = result.average_objective / solution.objective
        worst_mean_ratio = max(worst_mean_ratio, mean_ratio)
        assert result.average_objective <= 2.0 * solution.objective * 1.05
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (oracle sandwich)",
        elapsed < 120.0,
        f"{instances} reduced instances: lp <= exact <= best-lambda, "
        f"interval lp / exact <= {worst_interval_ratio:.3f} at eps 0.2 and 0.5436, "
        f"worst mean/lp ratio {worst_mean_ratio:.3f} <= 2.1, {elapsed:.1f}s < 2min",
    )


def test_criterion_4_per_trial_ceiling():
    checked = 0
    rng = np.random.default_rng(9)
    cases = [demo_instance(m) for m in cn.RoutingModel]
    shops = [cn.random_shop(rng, max_jobs=5, max_machines=3) for _ in range(10)]
    cases.extend(cn.reduce_open_shop(s) for s in shops)
    for inst in cases:
        fractional, _ = _solve_fractional(inst)
        result = cn.run_stretch(inst, fractional, trials=20, seed=31337)
        for trial in result.trials:
            bounds = cn.completion_ceilings(fractional, trial.lam)
            for got, bound in zip(trial.pre_compaction.completions, bounds):
                assert isinstance(got, int) and isinstance(bound, int)
                assert got <= bound
                checked += 1
    _report(
        "criterion 4 (per-trial completion ceilings)",
        checked > 0,
        f"{checked} integer comparisons of pre-compaction completion vs ceiling, all hold",
    )


def test_criterion_5_analysis_identities():
    rng = np.random.default_rng(20240817)
    worst_vec = check_identity_on_vectors(rng)
    worst_identity = 0.0
    worst_quadrature = 0.0
    worst_slack = math.inf
    for model in cn.RoutingModel:
        inst = demo_instance(model)
        fractional, _ = _solve_fractional(inst)
        for report in cn.continuous_interpolation_checks(fractional):
            worst_identity = max(worst_identity, report.identity_residual)
            worst_quadrature = max(worst_quadrature, report.quadrature_residual)
            worst_slack = min(worst_slack, report.completion_slack)
    _report(
        "criterion 5 (analysis identities)",
        worst_vec <= 1e-12 and worst_identity <= 1e-9 and worst_quadrature <= 1e-4 and worst_slack >= -1e-9,
        f"prefix-sum residual {worst_vec:.2e} <= 1e-12, trapezoid identity {worst_identity:.2e} <= 1e-9, "
        f"completion slack >= {worst_slack:.2e}, quadrature {worst_quadrature:.2e} <= 1e-4",
    )


def count_oracle(horizon, epsilon):
    value, k = 1.0, 0
    while value < horizon - 1e-9:
        value *= 1.0 + epsilon
        k += 1
    return 1 + k


def test_criterion_6_interval_variant():
    counts_ok = True
    for epsilon in (0.2, 0.5436):
        for horizon in (10, 100, 1000):
            grid = cn.geometric_intervals(horizon, epsilon)
            expected = 1 + math.ceil(round(math.log(horizon) / math.log1p(epsilon), 9))
            counts_ok = counts_ok and grid.interval_count == expected == count_oracle(horizon, epsilon)
    sandwich_ok = True
    verified = 0
    for model in cn.RoutingModel:
        inst = demo_instance(model)
        for epsilon in (0.2, 0.5436):
            grid = cn.interval_grid_for(inst, epsilon)
            problem = cn.build_interval_lp(inst, grid)
            solution = cn.solve(problem, SolveOptions(backend="highs"))
            interval = cn.extract_interval_solution(problem, solution.x, inst, grid)
            expanded = cn.expand_interval_schedule(interval, inst)
            if cn.verify_schedule(expanded, inst):
                sandwich_ok = False
            verified += 1
            fractional = cn.as_fractional(expanded, inst)
            result = cn.run_stretch(inst, fractional, trials=200, seed=77)
            bound = 2.0 * (1.0 + epsilon) * solution.objective * 1.05
            if result.average_objective > bound:
                sandwich_ok = False
    _report(
        "criterion 6 (interval variant)",
        counts_ok and sandwich_ok,
        f"grid counts exact for eps x horizon grid, {verified} expanded schedules verify, "
        f"mean stretch <= 2(1+eps) * interval-lp * 1.05 on both golden instances",
    )


def test_criterion_7_feasibility_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    per_model = 100
    for model in cn.RoutingModel:
        for k in range(per_model):
            inst = fuzz_instance(rng, model)
            assert cn.validate_instance(inst) == []
            result = cn.run_pipeline(
                inst, strategy="stretch", trials=3, seed=k, options=SolveOptions(backend="highs")
            )
            assert cn.verify_schedule(result.schedule, inst) == []
            trials = cn.run_stretch(inst, result.fractional, trials=3, seed=k)
            for trial in trials.trials:
                assert cn.verify_schedule(trial.schedule, inst) == []
                assert all(
                    post <= pre
                    for post, pre in zip(trial.report.completions, trial.pre_compaction.completions)
                )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7 (feasibility fuzz)",
        elapsed < 300.0,
        f"{2 * per_model} random instances: every pipeline output verifies, "
        f"compaction never delays any coflow, {elapsed:.1f}s < 5min",
    )

import math
from dataclasses import replace

import pytest

import coflownet as cn
from coflownet.bench import BenchConfig, CSV_HEADER, rows_to_csv, run_bench
from coflownet.generate import GenConfig, generate_instance
from coflownet.pipeline import SolveFailure, as_heuristic, run_pipeline
from coflownet.rounding import MAX_TRIALS
from coflownet.solver import LPSolution, SolveOptions, SolveStatus

from helpers import assert_bitwise_schedule


def test_reduced_instances_best_lambda_within_factor_two(rng):
    # ten reduced shop instances: best-of-20 stays within 2.05x of the bound
    for k in range(10):
        shop = cn.random_shop(rng, max_jobs=5, max_machines=3)
        inst = cn.reduce_open_shop(shop)
        result = run_pipeline(
            inst, strategy="stretch", trials=20, seed=k, options=SolveOptions(backend="highs")
        )
        ratio = result.report.objective / result.lp_objective
        assert ratio <= 2.0 + 0.05


def _interval_lp_value(inst, eps):
    grid = cn.interval_grid_for(inst, eps)
    sol = cn.solve(cn.build_interval_lp(inst, grid), SolveOptions(backend="highs"))
    return sol.objective


def test_epsilon_sweep_released_instances_monotone():
    # with trace-like releases, coarse grids quantize starts/finishes harder,
    # so the relaxation value drops as epsilon drops
    for seed in range(4):
        cfg = GenConfig(
            topology="swan-like",
            model=cn.RoutingModel.SINGLE_PATH,
            jobs=5,
            seed=seed,
            release_mean=5.0,
        )
        inst = generate_instance(cfg)
        assert _interval_lp_value(inst, 0.2) <= _interval_lp_value(inst, 0.5436) + 1e-6


def test_epsilon_sweep_release_free_instances_tighten():
    # without releases the finer grid relaxes less, so its value is larger
    for seed in range(4):
        cfg = GenConfig(
            topology="swan-like", model=cn.RoutingModel.SINGLE_PATH, jobs=5, seed=seed
        )
        inst = generate_instance(cfg)
        assert _interval_lp_value(inst, 0.2) >= _interval_lp_value(inst, 0.5436) - 1e-6


def test_run_bench_rows_and_ratio():
    config = BenchConfig(
        gen=GenConfig(topology="swan-like", model=cn.RoutingModel.FREE_PATH, jobs=3),
        instances=2,
        strategies=("stretch", "heuristic", "interval-stretch"),
        epsilons=(0.2, 0.5436),
        trials=4,
        seed=11,
    )
    rows = run_bench(config)
    assert len(rows) == 2 * (2 + 2)
    for row in rows:
        assert row.error is None
        assert row.ratio >= 1.0 - 1e-9
        if row.strategy == "interval-stretch":
            assert row.epsilon in (0.2, 0.5436)
        else:
            assert row.epsilon is None


def test_bench_records_row_failures_and_continues(monkeypatch):
    import coflownet.bench as bench_mod

    calls = {"n": 0}
    real = bench_mod.run_pipeline

    def flaky(instance, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic row failure")
        return real(instance, **kwargs)

    monkeypatch.setattr(bench_mod, "run_pipeline", flaky)
    config = BenchConfig(
        gen=GenConfig(topology="swan-like", model=cn.RoutingModel.FREE_PATH, jobs=2),
        instances=2,
        strategies=("heuristic",),
        trials=1,
        seed=5,
    )
    rows = run_bench(config)
    assert len(rows) == 2
    assert rows[0].error is not None and "synthetic" in rows[0].error
    assert rows[1].error is None
    csv_text = rows_to_csv(rows)
    lines = csv_text.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].split(",")[4] == ""  # failed row leaves lp_objective empty
    assert lines[1].split(",")[-1] == "RuntimeError: synthetic row failure"
    assert lines[2].split(",")[-1] == ""


def test_pipeline_surfaces_solver_failure(monkeypatch, demo_single):
    import coflownet.pipeline as pipe

    def fake_solve(instance, boundaries):
        return None, LPSolution(status=SolveStatus.ITERATION_LIMIT, objective=float("nan"), x=None)

    monkeypatch.setattr(pipe, "solve_relaxation", fake_solve)
    with pytest.raises(SolveFailure):
        pipe.run_pipeline(demo_single, strategy="heuristic")


def test_cli_exit_3_on_solver_failure(monkeypatch, tmp_path):
    import coflownet.pipeline as pipe
    from coflownet.cli import main
    from coflownet.serialize import save_instance
    from coflownet.generate import demo_instance

    def fake_solve(instance, boundaries):
        return None, LPSolution(status=SolveStatus.ITERATION_LIMIT, objective=float("nan"), x=None)

    monkeypatch.setattr(pipe, "solve_relaxation", fake_solve)
    path = tmp_path / "inst.json"
    save_instance(demo_instance(cn.RoutingModel.SINGLE_PATH), path)
    assert main(["solve", str(path), "--strategy", "heuristic"]) == 3


@pytest.mark.parametrize("strategy", ["stretch", "heuristic", "interval-stretch"])
def test_pipeline_refuses_a_negative_seed_before_any_lp(monkeypatch, demo_single, strategy):
    import coflownet.pipeline as pipe

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was built")

    monkeypatch.setattr(pipe, "solve_relaxation", no_lp)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        pipe.run_pipeline(demo_single, strategy=strategy, seed=-1)


@pytest.mark.parametrize("strategy", ["stretch", "heuristic", "interval-stretch"])
def test_pipeline_refuses_an_invalid_instance_before_any_lp(monkeypatch, unknown_path_edge, strategy):
    import coflownet.graphs as graphs
    import coflownet.pipeline as pipe

    def no_lp(*args, **kwargs):
        raise AssertionError("a flow was routed or an LP was built")

    # every routing fact the instance caches comes from these graph functions
    for name in ("usable_edges", "max_flow_value", "path_bottleneck"):
        monkeypatch.setattr(graphs, name, no_lp)
    monkeypatch.setattr(pipe, "solve_relaxation", no_lp)
    message = "^invalid instance: coflow 1 flow 1: path edge 'zz' not in network$"
    with pytest.raises(ValueError, match=message):
        pipe.run_pipeline(unknown_path_edge, strategy=strategy)


def _count_solves(monkeypatch):
    import coflownet.pipeline as pipe

    calls = []
    real = pipe.solve_relaxation

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipe, "solve_relaxation", counted)
    return calls


@pytest.mark.parametrize("strategy", ["stretch", "heuristic", "interval-stretch"])
@pytest.mark.parametrize(
    "trials, message",
    [(0, "need at least one trial"), (MAX_TRIALS + 1, f"at most {MAX_TRIALS:,} trials, got {MAX_TRIALS + 1:,}")],
    ids=["zero", "over-cap"],
)
def test_pipeline_refuses_a_trial_count_before_any_lp(monkeypatch, demo_single, strategy, trials, message):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_pipeline(demo_single, strategy=strategy, trials=trials)
    assert calls == []


@pytest.mark.parametrize("epsilon", [1e-9, 1e-300])
def test_tiny_epsilon_is_too_large_before_any_lp(monkeypatch, demo_free, epsilon):
    calls = _count_solves(monkeypatch)
    with pytest.raises(cn.HorizonTooLarge, match="per interval"):
        run_pipeline(demo_free, strategy="interval-stretch", epsilon=epsilon)
    assert calls == []
    # a sweep that asks for it stops, as solve does, instead of recording a row
    config = BenchConfig(strategies=("stretch", "interval-stretch"), epsilons=(epsilon,), trials=1)
    with pytest.raises(cn.HorizonTooLarge):
        run_bench(config)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, math.nan])
def test_non_finite_or_non_positive_epsilon_is_refused_before_any_lp(monkeypatch, demo_free, epsilon):
    calls = _count_solves(monkeypatch)
    message = "epsilon must be positive and finite"
    with pytest.raises(ValueError, match=message):
        run_pipeline(demo_free, strategy="interval-stretch", epsilon=epsilon)
    assert calls == []
    with pytest.raises(ValueError, match=message):
        cn.geometric_intervals(10, epsilon)
    with pytest.raises(ValueError, match=message):
        cn.IntervalGrid(epsilon=epsilon, boundaries=(0.0, 1.0))


# ---------------------------------------------------------------------------
# stretch and heuristic rows from one slot-LP solve

_SHARED = BenchConfig(
    gen=GenConfig(topology="gscale-like", model=cn.RoutingModel.FREE_PATH, jobs=6, release_mean=1.0),
    instances=3,
    trials=5,
    seed=2,
)


def _without_wall_ms(rows):
    return [replace(row, wall_ms=0.0) for row in rows]


@pytest.mark.parametrize(
    "strategies", [("stretch", "heuristic"), ("heuristic", "stretch")], ids=["stretch-heuristic", "heuristic-stretch"]
)
def test_stretch_and_heuristic_rows_share_one_solve_per_instance(monkeypatch, strategies):
    config = replace(_SHARED, strategies=strategies)
    calls = _count_solves(monkeypatch)
    rows = run_bench(config)
    assert len(calls) == config.instances
    assert [row.strategy for row in rows] == list(strategies) * config.instances
    assert all(row.error is None for row in rows)
    monkeypatch.undo()
    for strategy in strategies:
        alone = run_bench(replace(config, strategies=(strategy,)))
        assert _without_wall_ms(r for r in rows if r.strategy == strategy) == _without_wall_ms(alone)


def test_as_heuristic_is_the_heuristic_pipeline(demo_free):
    for inst in (demo_free, generate_instance(replace(_SHARED.gen, seed=4))):
        got = as_heuristic(run_pipeline(inst, "stretch", trials=7, seed=1))
        want = run_pipeline(inst, "heuristic")
        for name in ("strategy", "epsilon", "lp_objective", "report", "best_lambda", "average_objective",
                     "trial_count", "horizon_bound", "lp_steps"):
            assert getattr(got, name) == getattr(want, name), name
        assert_bitwise_schedule(got.schedule, want.schedule)
        assert got.unstretched.report == want.unstretched.report
    with pytest.raises(ValueError, match="need a stretch result"):
        as_heuristic(want)


def test_a_rejected_unstretched_schedule_makes_the_heuristic_row_an_error_row(monkeypatch):
    import coflownet.pipeline as pipe

    real = pipe.verify_schedule
    checks = []

    def rejects_the_second_check(schedule, instance):
        # per instance, the stretch row's schedule is checked first, then the factor-1 one
        checks.append(schedule)
        return ["synthetic violation"] if len(checks) % 2 == 0 else real(schedule, instance)

    monkeypatch.setattr(pipe, "verify_schedule", rejects_the_second_check)
    rows = run_bench(replace(_SHARED, strategies=("heuristic", "stretch")))
    assert len(checks) == 2 * _SHARED.instances
    for heuristic, stretch in zip(rows[::2], rows[1::2]):
        assert (heuristic.strategy, stretch.strategy) == ("heuristic", "stretch")
        assert heuristic.error == "VerificationFailure: 1 violation(s): synthetic violation"
        assert heuristic.lp_objective is heuristic.schedule_objective is None
        assert stretch.error is None and stretch.schedule_objective is not None


def test_a_failed_shared_solve_fails_both_rows_alike(monkeypatch):
    import coflownet.pipeline as pipe

    calls = []

    def fake_solve(instance, boundaries):
        calls.append(instance)
        return None, LPSolution(status=SolveStatus.ITERATION_LIMIT, objective=float("nan"), x=None)

    monkeypatch.setattr(pipe, "solve_relaxation", fake_solve)
    rows = run_bench(replace(_SHARED, strategies=("stretch", "heuristic")))
    assert len(calls) == _SHARED.instances
    assert {row.error for row in rows} == {"SolveFailure: solver finished with status iteration_limit"}

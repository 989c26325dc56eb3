import bisect
import math
from types import SimpleNamespace

import numpy as np
import pytest

from coflownet import (
    Coflow,
    Edge,
    Flow,
    FractionalSchedule,
    Instance,
    IntervalGrid,
    IntervalSolution,
    Lambda,
    Network,
    RateSchedule,
    RoutingModel,
    compact_idle_slots,
    completion_ceilings,
    completion_times,
    expand_interval_schedule,
    geometric_intervals,
    lambda_point,
    lp_heuristic,
    run_stretch,
    stretch_schedule,
    verify_schedule,
)
import coflownet.rounding as rounding
from coflownet.csr import CSR
from coflownet.model import AMOUNT_EPS, CompletionReport, weighted_objective
from coflownet.rounding import MAX_TRIALS, StretchBoundError, StretchResult, StretchTrial, _overlap, _taps

from helpers import as_scipy, assert_bitwise_schedule, demo_optimal_schedule


def single_flow_fractional(slot_values, release=0):
    horizon = len(slot_values)
    series = np.array(slot_values, dtype=float)
    net = Network(("a", "b"), (Edge("e1", "a", "b", 1.0),))
    inst = Instance(
        network=net,
        coflows=(Coflow((Flow("a", "b", 1.0, release, ("e1",)),), 1.0),),
        model=RoutingModel.SINGLE_PATH,
    )
    frac = FractionalSchedule(
        slot_count=horizon,
        fractions=((series,),),
        cumulative=(np.cumsum(series),),
    )
    return inst, frac


# ---------------------------------------------------------------------------
# lambda sampling


def test_factor_draw_maps_uniforms_through_the_inverse_cdf(monkeypatch):
    # u = 0 gives 1, u = 0.75 gives sqrt(0.25), and u next to 1 falls under the floor 1/(10 * 4)
    uniforms = SimpleNamespace(random=lambda n: np.array([0.0, 0.75, 1.0 - 1e-9])[:n])
    monkeypatch.setattr(rounding.np.random, "default_rng", lambda seed: uniforms)
    np.testing.assert_array_equal(rounding._draw_factors(3, seed=0, slot_count=4), [1.0, 0.5, 1.0 / 40.0])


def test_factor_draws_are_one_stream_fixed_by_the_seed():
    draw = rounding._draw_factors
    np.testing.assert_array_equal(draw(200, 5, 10), draw(200, 5, 10))
    # more trials extend the same stream
    np.testing.assert_array_equal(draw(200, 5, 10)[:20], draw(20, 5, 10))
    assert not np.array_equal(draw(20, 5, 10), draw(20, 6, 10))


def test_drawn_factors_follow_the_density():
    slot_count = 1000
    factors = rounding._draw_factors(100_000, seed=3, slot_count=slot_count)
    assert factors.min() >= 1.0 / (10.0 * slot_count) and factors.max() <= 1.0
    # the density 2v has mean 2/3
    assert abs(factors.mean() - 2.0 / 3.0) < 1e-3


def test_run_stretch_builds_one_generator_per_call(monkeypatch, solved_free, demo_free):
    _, _, frac = solved_free
    real = np.random.default_rng
    made = []

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rounding.np.random, "default_rng", counting)
    result = run_stretch(demo_free, frac, trials=200, seed=4)
    assert made == [(4,)]
    assert len(result.trials) == 200


def test_lambda_type_rejects_out_of_range():
    for bad in (0.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            Lambda(bad)


# ---------------------------------------------------------------------------
# stretching


def test_stretch_series_overlap_arithmetic():
    raw = np.array([1.0]) @ _overlap(np.arange(2) / 0.5, 2)
    np.testing.assert_allclose(raw, [1.0, 1.0])
    raw = np.array([0.6, 0.4]) @ _overlap(np.arange(3) / 0.5, 4)
    np.testing.assert_allclose(raw, [0.6, 0.6, 0.4, 0.4])


@pytest.mark.parametrize("horizon", [1, 2, 7, 40])
def test_overlap_nonzeros_stay_linear_at_the_lambda_floor(horizon):
    lam = 1.0 / (10.0 * horizon)
    out_slots = int(math.ceil(horizon / lam - 1e-12))
    dilate = _overlap(np.arange(horizon + 1) / lam, out_slots)
    assert dilate.nnz <= horizon + out_slots
    np.testing.assert_allclose(as_scipy(dilate).sum(axis=1), 1.0 / lam)
    # geometric intervals shorter than a slot share it, with the same bound
    grid = geometric_intervals(horizon, 0.05)
    out_slots = int(math.ceil(grid.horizon - 1e-9))
    spread = _overlap(np.array(grid.boundaries), out_slots)
    assert spread.nnz <= grid.interval_count + out_slots
    np.testing.assert_allclose(np.ravel(as_scipy(spread).sum(axis=1)), grid.lengths)


@pytest.mark.parametrize("horizon", [1, 2, 7, 40])
def test_taps_reproduce_the_overlap_product(horizon):
    rates = np.random.default_rng(horizon).random((3, horizon))
    values = np.array([1.0, 0.999, 0.8, 0.5, 0.37, 1.0 / (10.0 * horizon)])
    taps, sizes = _taps(horizon, values)
    per_factor = zip(*(np.split(x, np.cumsum(sizes)[:-1]) for x in taps))
    for value, size, (t0, w0, t1, w1) in zip(values, sizes, per_factor, strict=True):
        out_slots = int(math.ceil(horizon / value - 1e-12))
        assert size == t0.size == out_slots
        want = rates @ _overlap(np.arange(horizon + 1) / value, out_slots)
        np.testing.assert_array_equal(rates[:, t0] * w0 + rates[:, t1] * w1, want)
        assert np.all(t1 - t0 <= 1) and np.all(w0 > 0.0) and np.all(w1 >= 0.0)


def test_stretch_single_slot_flow_truncates_to_first_slot():
    inst, frac = single_flow_fractional([1.0])
    sched = stretch_schedule(frac, Lambda(0.5), inst)
    np.testing.assert_allclose(sched.amounts[0][0], [1.0, 0.0])
    assert completion_times(sched, inst).completions == (1,)


def test_stretch_two_slot_flow_truncates_mid_raw():
    inst, frac = single_flow_fractional([0.6, 0.4])
    sched = stretch_schedule(frac, Lambda(0.5), inst)
    np.testing.assert_allclose(sched.amounts[0][0], [0.6, 0.4, 0.0, 0.0], atol=1e-15)
    assert completion_times(sched, inst).completions == (2,)
    # the bound with the half point at 5/6 is ceil((5/6)/0.5) = 2, met exactly
    assert lambda_point(frac, 0, 0.5) == pytest.approx(5.0 / 6.0)
    assert completion_ceilings(frac, Lambda(0.5)) == (2,)


def test_stretch_identity_at_lambda_one(solved_free, demo_free):
    _, _, frac = solved_free
    sched = stretch_schedule(frac, Lambda(1.0), demo_free)
    assert sched.slot_count == frac.slot_count
    for j in range(len(frac.fractions)):
        for i in range(len(frac.fractions[j])):
            np.testing.assert_allclose(
                sched.amounts[j][i], frac.fractions[j][i], atol=1e-12
            )


def test_stretch_rejects_tiny_lambda():
    inst, frac = single_flow_fractional([1.0, 0.0])
    with pytest.raises(ValueError, match="memory guard"):
        stretch_schedule(frac, Lambda(1.0 / 100.0), inst)


def test_stretch_feasible_for_many_lambdas(solved_single, demo_single, solved_free, demo_free, rng):
    for inst, (_, _, frac) in ((demo_single, solved_single), (demo_free, solved_free)):
        for lam in (1.0, 0.9, 0.75, 0.5, 0.31, 0.125):
            sched = stretch_schedule(frac, Lambda(lam), inst)
            assert verify_schedule(sched, inst) == []


def test_stretch_respects_release():
    inst, frac = single_flow_fractional([0.0, 0.0, 1.0], release=2)
    for lam in (1.0, 0.7, 0.5, 0.3):
        sched = stretch_schedule(frac, Lambda(lam), inst)
        assert verify_schedule(sched, inst) == []


# ---------------------------------------------------------------------------
# compaction


def _schedule(inst, mapping, slots):
    series = np.zeros(slots)
    for t, v in mapping.items():
        series[t - 1] = v
    return RateSchedule(slots, ((series,),))


def test_compact_moves_to_smallest_idle_slot():
    inst, _ = single_flow_fractional([1.0, 0.0, 0.0])
    sched = _schedule(inst, {3: 1.0}, 3)
    out = compact_idle_slots(sched, inst)
    assert completion_times(out, inst).completions == (1,)


def test_compact_release_tie_does_not_move():
    # released at 2 means slot 3 is the earliest legal slot; the idle slot 2
    # fails the strict "released before" rule, so the content stays put
    inst, _ = single_flow_fractional([0.0, 0.0, 1.0], release=2)
    sched = _schedule(inst, {3: 1.0}, 3)
    out = compact_idle_slots(sched, inst)
    assert completion_times(out, inst).completions == (3,)


def test_compact_dense_schedule_is_fixpoint(demo_single):
    sched = demo_optimal_schedule(RoutingModel.SINGLE_PATH)
    out = compact_idle_slots(sched, demo_single)
    for j in range(4):
        np.testing.assert_allclose(out.amounts[j][0], sched.amounts[j][0][: out.slot_count])
    assert completion_times(out, demo_single) == completion_times(sched, demo_single)


def test_compact_never_delays_and_stays_feasible(solved_single, demo_single, rng):
    _, _, frac = solved_single
    for lam in (0.9, 0.6, 0.35):
        sched = stretch_schedule(frac, Lambda(lam), demo_single)
        before = completion_times(sched, demo_single)
        out = compact_idle_slots(sched, demo_single)
        after = completion_times(out, demo_single)
        assert verify_schedule(out, demo_single) == []
        assert all(a <= b for a, b in zip(after.completions, before.completions))
        assert after.objective <= before.objective + 1e-12


def test_compact_frees_slots_for_later_content():
    inst, _ = single_flow_fractional([0.0] * 5)
    # two busy slots 2 and 4: slot 2 moves to 1, then slot 4 into freed 2
    series = np.zeros(5)
    series[1] = 0.5
    series[3] = 0.5
    sched = RateSchedule(5, ((series,),))
    out = compact_idle_slots(sched, inst)
    np.testing.assert_allclose(out.amounts[0][0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# interval expansion


def test_expand_uniform_split():
    inst, _ = single_flow_fractional([1.0])
    grid = IntervalGrid(epsilon=1.0, boundaries=(0.0, 1.0, 2.0, 4.0))
    sol = IntervalSolution(
        grid=grid,
        fractions=((np.array([0.0, 0.5, 0.5]),),),
        edge_fractions=None,
    )
    sched = expand_interval_schedule(sol, inst)
    np.testing.assert_allclose(sched.amounts[0][0], [0.0, 0.5, 0.25, 0.25])


def test_expand_unit_interval():
    inst, _ = single_flow_fractional([1.0])
    grid = IntervalGrid(epsilon=0.2, boundaries=(0.0, 1.0))
    sol = IntervalSolution(
        grid=grid,
        fractions=((np.array([1.0]),),),
        edge_fractions=None,
    )
    sched = expand_interval_schedule(sol, inst)
    np.testing.assert_allclose(sched.amounts[0][0], [1.0])


def test_expand_demo_free_path_verifies(demo_free):
    from coflownet import build_interval_lp, extract_interval_solution, interval_grid_for, solve

    grid = interval_grid_for(demo_free, 0.2)
    problem = build_interval_lp(demo_free, grid)
    sol = solve(problem)
    interval = extract_interval_solution(problem, sol.x, demo_free, grid)
    sched = expand_interval_schedule(interval, demo_free)
    assert verify_schedule(sched, demo_free) == []


# ---------------------------------------------------------------------------
# trial protocols


def test_run_stretch_deterministic(demo_single, solved_single):
    _, _, frac = solved_single
    a = run_stretch(demo_single, frac, trials=8, seed=11)
    b = run_stretch(demo_single, frac, trials=8, seed=11)
    assert [t.lam.value for t in a.trials] == [t.lam.value for t in b.trials]
    assert [t.report.objective for t in a.trials] == [t.report.objective for t in b.trials]
    assert a.unstretched.report == b.unstretched.report and a.unstretched.lam.value == 1.0
    assert a.listed.report == b.listed.report and a.listed.lam is None
    assert_bitwise_schedule(a.listed.schedule, b.listed.schedule)
    candidates = (*a.trials, a.unstretched, a.listed)
    assert a.best.report.objective == min(t.report.objective for t in candidates)
    assert a.average_objective == pytest.approx(
        np.mean([t.report.objective for t in a.trials])
    )
    c = run_stretch(demo_single, frac, trials=8, seed=12)
    assert [t.lam.value for t in a.trials] != [t.lam.value for t in c.trials]


def test_run_stretch_caps_trials(demo_single, solved_single):
    _, _, frac = solved_single
    with pytest.raises(ValueError, match="at most"):
        run_stretch(demo_single, frac, trials=MAX_TRIALS + 1, seed=0)


def test_too_tight_ceiling_raises(monkeypatch, demo_free, solved_free):
    _, _, frac = solved_free
    def zero_ceilings(fractional, values):
        return np.zeros((values.size, len(fractional.cumulative)), dtype=np.int64)

    monkeypatch.setattr(rounding, "_ceilings", zero_ceilings)
    with pytest.raises(StretchBoundError, match="ceiling 0"):
        run_stretch(demo_free, frac, trials=3, seed=1)
    with pytest.raises(StretchBoundError):
        lp_heuristic(demo_free, frac)


def test_ceiling_error_names_the_first_violation_in_trial_order(monkeypatch, demo_free, solved_free):
    _, _, frac = solved_free
    lams = [t.lam.value for t in run_stretch(demo_free, frac, trials=4, seed=1).trials]
    real = rounding._ceilings

    def tight_from_trial_1(fractional, values):
        ceilings = real(fractional, values)
        ceilings[1:] = 0
        return ceilings

    monkeypatch.setattr(rounding, "_ceilings", tight_from_trial_1)
    with pytest.raises(StretchBoundError, match=rf"^coflow 1 finished .* at lambda {lams[1]}$"):
        run_stretch(demo_free, frac, trials=4, seed=1)


def test_run_stretch_reports_release_bound_compaction():
    # one flow released at 2: compaction cannot pull its traffic before
    # slot 3, which packing the busy slots to the front would do
    inst, frac = single_flow_fractional([0.0, 0.0, 0.6, 0.4], release=2)
    result = run_stretch(inst, frac, trials=30, seed=4)
    for trial in result.trials:
        assert trial.report.completions[0] >= 4
        assert trial.report == completion_times(trial.schedule, inst)
        rebuilt = compact_idle_slots(stretch_schedule(frac, trial.lam, inst), inst)
        assert trial.report == completion_times(rebuilt, inst)


def test_run_stretch_builds_no_sparse_matrix_per_trial(monkeypatch, demo_free, solved_free):
    built = []
    real = CSR.__post_init__

    def counting(self):
        built.append(self.shape)
        real(self)

    monkeypatch.setattr(CSR, "__post_init__", counting)
    _, _, frac = solved_free
    counts = []
    for trials in (1, 25):
        built.clear()
        run_stretch(demo_free, frac, trials=trials, seed=3)
        counts.append(len(built))
    assert counts[0] == counts[1], counts


def test_completion_times_of_an_empty_coflow_is_zero():
    inst, _ = single_flow_fractional([1.0])
    inst = Instance(inst.network, (Coflow((), 2.0),) + inst.coflows + (Coflow((), 3.0),), inst.model)
    sched = RateSchedule(3, ((), (np.array([0.0, 0.5, 0.5]),), ()))
    assert completion_times(sched, inst) == CompletionReport((0, 3, 0), 3.0)
    with pytest.raises(ValueError, match="slot_count"):
        completion_times(RateSchedule(2, ((), (np.array([0.0, 0.5, 0.5]),), ())), inst)


def test_lambda_one_trial_equals_heuristic(demo_free, solved_free):
    _, _, frac = solved_free
    heur = lp_heuristic(demo_free, frac)
    assert heur.lam.value == 1.0
    manual = compact_idle_slots(stretch_schedule(frac, Lambda(1.0), demo_free), demo_free)
    assert completion_times(manual, demo_free) == heur.report


def test_heuristic_on_pathological_tail():
    # 90% in slot 1 and 10% in slot 10: mean completion 1.9 but the raw
    # schedule only finishes in slot 10
    values = [0.9] + [0.0] * 8 + [0.1]
    inst, frac = single_flow_fractional(values)
    trial = lp_heuristic(inst, frac)
    assert trial.pre_compaction.completions == (10,)
    mean_slot = sum((t + 1) * v for t, v in enumerate(values))
    assert mean_slot == pytest.approx(1.9)
    # compaction pulls the tail into the idle gap
    assert trial.report.completions == (2,)


def test_trial_ceiling_bound_holds_everywhere(demo_single, demo_free, solved_single, solved_free):
    for inst, (_, _, frac) in ((demo_single, solved_single), (demo_free, solved_free)):
        result = run_stretch(inst, frac, trials=60, seed=5)
        for trial in result.trials:
            bounds = completion_ceilings(frac, trial.lam)
            for got, bound in zip(trial.pre_compaction.completions, bounds):
                assert got <= bound


def test_sample_mean_within_slack_adjusted_factor_two(demo_single, demo_free, solved_single, solved_free):
    # in expectation the rounded objective is at most twice the relaxation;
    # a finite sample gets 1 + 3/sqrt(N) of slack
    for inst, (_, sol, frac) in ((demo_single, solved_single), (demo_free, solved_free)):
        for trials in (20, 50):
            result = run_stretch(inst, frac, trials=trials, seed=99)
            bound = 2.0 * sol.objective * (1.0 + 3.0 / np.sqrt(trials))
            assert result.average_objective <= bound


def test_lambda_point_examples():
    _, frac = single_flow_fractional([0.9] + [0.0] * 8 + [0.1])
    assert lambda_point(frac, 0, 0.45) == pytest.approx(0.5)
    assert lambda_point(frac, 0, 0.9) == pytest.approx(1.0)
    assert lambda_point(frac, 0, 0.95) == pytest.approx(9.5)
    assert lambda_point(frac, 0, 1.0) == pytest.approx(10.0)


@pytest.mark.parametrize("model", list(RoutingModel))
def test_lambda_table_is_lambda_point_per_coflow(model):
    # the factors of run_stretch, 1/2 for the list order, and each level itself (ties)
    from dataclasses import replace

    rng = np.random.default_rng(33)
    checked = 0
    for inst, frac in _fuzz_solved(model, True, count=6, seed=929):
        levels = np.unique(np.concatenate(frac.cumulative))
        values = np.concatenate([
            rounding._draw_factors(20, 3, frac.slot_count), [1.0, 0.5],
            levels[(levels > 0) & (levels <= 1)], rng.uniform(1e-9, 1.0, 5),
        ])
        got = rounding._lambda_table(frac, values)
        want = [[lambda_point(frac, j, v) for v in values.tolist()] for j in range(len(frac.cumulative))]
        assert got.tobytes() == np.array(want).tobytes()
        # coflows short of a fraction: the first of them, and its first such fraction, are named
        first, last = min(1, len(frac.cumulative) - 1), len(frac.cumulative) - 1
        short = replace(frac, cumulative=tuple(
            c * 0.9 if j in (first, last) else c for j, c in enumerate(frac.cumulative)
        ))
        with pytest.raises(ValueError) as per_coflow:
            for j in range(len(short.cumulative)):
                rounding._lambda_points(short, j, values)
        with pytest.raises(ValueError, match=f"^coflow {first + 1} never reaches fraction") as table:
            rounding._lambda_table(short, values)
        assert str(table.value) == str(per_coflow.value)
        checked += 1
    assert checked == 6


def test_stretch_feasible_on_random_instances(rng):
    from conftest import fuzz_instance

    from coflownet import build_time_indexed_lp, extract_fractional, horizon_upper_bound, solve
    from coflownet.solver import SolveOptions

    for model in RoutingModel:
        for _ in range(4):
            inst = fuzz_instance(rng, model)
            horizon = horizon_upper_bound(inst)
            problem = build_time_indexed_lp(inst, horizon)
            sol = solve(problem, SolveOptions(backend="highs"))
            frac = extract_fractional(problem, sol.x, inst, horizon)
            for lam in (0.8, 0.45):
                assert verify_schedule(stretch_schedule(frac, Lambda(lam), inst), inst) == []


def test_stretch_then_verify_via_pipeline_strategies(demo_single, demo_free):
    from coflownet.pipeline import run_pipeline

    for inst in (demo_single, demo_free):
        for strategy in ("stretch", "heuristic", "interval-stretch"):
            result = run_pipeline(inst, strategy=strategy, trials=5, seed=2, epsilon=0.2)
            assert verify_schedule(result.schedule, inst) == []
            assert result.report.objective >= result.lp_objective - 1e-9


# ---------------------------------------------------------------------------
# the stacked rounding against a per-slot reference


def _reference_spread(out, a, bnd, rate, out_slots):
    """Add ``rate`` per unit time over [a, bnd] onto the 1-based slot
    grid, one interval at a time."""
    first = int(math.floor(a)) + 1
    last = min(int(math.ceil(bnd)), out_slots)
    if last < first:
        return
    ks = np.arange(first, last + 1, dtype=float)
    overlap = np.minimum(ks, bnd) - np.maximum(ks - 1.0, a)
    np.clip(overlap, 0.0, None, out=overlap)
    out[first - 1 : last] += rate * overlap


def _reference_dilate(series, lam, out_slots):
    out = np.zeros(out_slots)
    for t in np.nonzero(series > AMOUNT_EPS)[0]:
        _reference_spread(out, t / lam, (t + 1) / lam, series[t], out_slots)
    return out


def reference_stretch(fractional, lam, instance):
    """Stretch one flow and one slot at a time: dilate, then walk the
    slots in order taking what is left of the demand."""
    out_slots = int(math.ceil(fractional.slot_count / lam.value - 1e-12))
    amounts, edge_amounts = [], []
    for j, cf in enumerate(instance.coflows):
        flow_amounts, flow_edges = [], []
        for i in range(len(cf.flows)):
            raw = _reference_dilate(fractional.fractions[j][i], lam.value, out_slots)
            taken, factors = np.zeros(out_slots), np.zeros(out_slots)
            remaining = 1.0
            for k in np.nonzero(raw > AMOUNT_EPS)[0]:
                if remaining <= AMOUNT_EPS:
                    break
                taken[k] = min(raw[k], remaining)
                factors[k] = taken[k] / raw[k]
                remaining -= taken[k]
            flow_amounts.append(taken)
            if fractional.edge_fractions is not None:
                edges = {}
                for eid, series in fractional.edge_fractions[j][i].items():
                    scaled = _reference_dilate(series, lam.value, out_slots) * factors
                    if np.any(scaled > AMOUNT_EPS):
                        edges[eid] = scaled
                flow_edges.append(edges)
        amounts.append(tuple(flow_amounts))
        edge_amounts.append(tuple(flow_edges))
    has_edges = fractional.edge_fractions is not None
    return RateSchedule(out_slots, tuple(amounts), tuple(edge_amounts) if has_edges else None)


def reference_expand(solution, instance):
    grid = solution.grid
    out_slots = int(math.ceil(grid.horizon - 1e-9))

    def spread(series):
        out = np.zeros(out_slots)
        for k in np.nonzero(series > AMOUNT_EPS)[0]:
            a, bnd = grid.boundaries[k], grid.boundaries[k + 1]
            _reference_spread(out, a, bnd, series[k] / (bnd - a), out_slots)
        return out

    amounts = tuple(tuple(spread(s) for s in flows) for flows in solution.fractions)
    edges = None
    if solution.edge_fractions is not None:
        edges = tuple(
            tuple({eid: spread(s) for eid, s in flow.items()} for flow in flows)
            for flows in solution.edge_fractions
        )
    return RateSchedule(out_slots, amounts, edges)


def reference_compact(schedule, instance):
    """Compaction that moves only the series of the flows busy in a slot."""
    amounts = [[a.copy() for a in flows] for flows in schedule.amounts]
    edges = None
    if schedule.edge_amounts is not None:
        edges = [[{e: s.copy() for e, s in f.items()} for f in flows] for flows in schedule.edge_amounts]
    users_by_slot = {}
    for j, flows in enumerate(amounts):
        for i, series in enumerate(flows):
            for t in np.nonzero(series > AMOUNT_EPS)[0]:
                users_by_slot.setdefault(int(t) + 1, []).append((j, i))
    idle = [t for t in range(1, schedule.slot_count + 1) if t not in users_by_slot]
    for t in sorted(users_by_slot):
        users = users_by_slot[t]
        min_slot = 1 + max(instance.coflows[j].flows[i].release for j, i in users)
        pos = bisect.bisect_left(idle, min_slot)
        if pos >= len(idle) or idle[pos] >= t:
            continue
        target = idle.pop(pos)
        for j, i in users:
            for series in [amounts[j][i], *(edges[j][i].values() if edges else ())]:
                series[target - 1], series[t - 1] = series[t - 1], 0.0
        bisect.insort(idle, t)
    last = max([1] + [int(np.nonzero(s > AMOUNT_EPS)[0][-1]) + 1 for f in amounts for s in f if np.any(s > AMOUNT_EPS)])
    return RateSchedule(
        last,
        tuple(tuple(s[:last] for s in flows) for flows in amounts),
        None if edges is None else tuple(
            tuple({e: s[:last] for e, s in f.items()} for f in flows) for flows in edges
        ),
    )


def assert_same_schedule(got, want, instance):
    assert got.slot_count == want.slot_count
    for flows_got, flows_want in zip(got.amounts, want.amounts, strict=True):
        for a, b in zip(flows_got, flows_want, strict=True):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    assert (got.edge_amounts is None) == (want.edge_amounts is None)
    if got.edge_amounts is not None:
        for flows_got, flows_want in zip(got.edge_amounts, want.edge_amounts, strict=True):
            for a, b in zip(flows_got, flows_want, strict=True):
                assert list(a) == list(b)
                for eid in a:
                    np.testing.assert_allclose(a[eid], b[eid], rtol=0, atol=1e-12)
    assert completion_times(got, instance) == completion_times(want, instance)


@pytest.mark.parametrize("model", list(RoutingModel))
def test_stacked_rounding_matches_per_slot_reference(model):
    from conftest import fuzz_instance

    from coflownet import (
        build_interval_lp,
        build_time_indexed_lp,
        extract_fractional,
        extract_interval_solution,
        horizon_upper_bound,
        interval_grid_for,
        solve,
    )

    rng = np.random.default_rng(2024)
    for _ in range(6):
        inst = fuzz_instance(rng, model)
        horizon = horizon_upper_bound(inst)
        problem = build_time_indexed_lp(inst, horizon)
        frac = extract_fractional(problem, solve(problem).x, inst, horizon)
        for value in (1.0, 0.8, 0.45, 0.1, 1.0 / (10.0 * horizon)):
            lam = Lambda(value)
            got = stretch_schedule(frac, lam, inst)
            assert_same_schedule(got, reference_stretch(frac, lam, inst), inst)
            assert_same_schedule(compact_idle_slots(got, inst), reference_compact(got, inst), inst)

        grid = interval_grid_for(inst, 0.2)
        problem = build_interval_lp(inst, grid)
        interval = extract_interval_solution(problem, solve(problem).x, inst, grid)
        want = reference_expand(interval, inst)
        assert_same_schedule(expand_interval_schedule(interval, inst), want, inst)


# ---------------------------------------------------------------------------
# run_stretch against a trial-by-trial reference


def reference_completion_times(schedule, instance):
    """The last slot each flow sends more than AMOUNT_EPS, one flow at a time."""
    completions = []
    for flows in schedule.amounts:
        last = 0
        for amounts in flows:
            pos = np.nonzero(amounts > AMOUNT_EPS)[0]
            if pos.size:
                last = max(last, int(pos[-1]) + 1)
        completions.append(last)
    weights = [cf.weight for cf in instance.coflows]
    return CompletionReport(tuple(completions), weighted_objective(completions, weights))


def reference_list_schedule(fractional, instance):
    """The alpha-point list schedule one flow and one slot at a time, and
    its slot bound: coflows by their lambda point at 1/2 (ties by index),
    each flow's edge shares its path or its summed, dust-filtered LP edge
    split, and each slot filled in that order from a dict of residual
    capacities."""
    caps = {e.id: e.cap for e in instance.network.edges}
    order = sorted(range(len(instance.coflows)), key=lambda j: (lambda_point(fractional, j, 0.5), j))
    shares, flows = {}, []
    for j in order:
        for i, fl in enumerate(instance.coflows[j].flows):
            if fractional.edge_fractions is None:
                share = {eid: 1.0 for eid in fl.path}
            else:
                split = fractional.edge_fractions[j][i].items()
                share = {eid: float(np.where(s > AMOUNT_EPS, s, 0.0).sum()) for eid, s in split}
            shares[j, i] = {eid: v for eid, v in share.items() if v > 0.0}
            flows.append((j, i, fl))
    bound = instance.max_release + sum(
        math.ceil(1.0 / min(caps[e] / (fl.demand * v) for e, v in shares[j, i].items())) for j, i, fl in flows
    )
    remaining = {(j, i): 1.0 for j, i, _ in flows}
    sent = {(j, i): [] for j, i, _ in flows}
    slot = 0
    while any(left > rounding._DONE_EPS for left in remaining.values()):
        slot += 1
        assert slot <= bound
        residual = dict(caps)
        for j, i, fl in flows:
            amount = 0.0
            if fl.release < slot and remaining[j, i] > rounding._DONE_EPS:
                rooms = [residual[e] / (fl.demand * v) for e, v in shares[j, i].items()]
                amount = max(min([remaining[j, i], *rooms]), 0.0)
                for e, v in shares[j, i].items():
                    residual[e] -= amount * (fl.demand * v)
                remaining[j, i] -= amount
            sent[j, i].append(amount)
    slots = max(slot, 1)
    amounts = tuple(
        tuple(np.array(sent[j, i] + [0.0] * (slots - slot)) for i in range(len(cf.flows)))
        for j, cf in enumerate(instance.coflows)
    )
    edges = None
    if fractional.edge_fractions is not None:
        edges = tuple(
            tuple({e: amounts[j][i] * v for e, v in shares[j, i].items()} for i in range(len(cf.flows)))
            for j, cf in enumerate(instance.coflows)
        )
    return RateSchedule(slots, amounts, edges), bound


def reference_run_stretch(instance, fractional, trials, seed):
    """``run_stretch`` one trial at a time: the same draws followed by the
    factor 1, the per-slot references and a per-flow completion loop; the
    factor-1 trial is chosen only when it strictly beats the best draw,
    and the list schedule only when it strictly beats both."""
    out = []
    for value in rounding._draw_factors(trials, seed, fractional.slot_count).tolist() + [1.0]:
        lam = Lambda(value)
        stretched = reference_stretch(fractional, lam, instance)
        pre = reference_completion_times(stretched, instance)
        assert all(got <= bound for got, bound in zip(pre.completions, completion_ceilings(fractional, lam)))
        compacted = reference_compact(stretched, instance)
        report = reference_completion_times(compacted, instance)
        out.append(StretchTrial(lam, report, pre, build=lambda schedule=compacted: schedule))
    *out, unstretched = out
    best = out[min(range(trials), key=lambda k: (out[k].report.objective, k))]
    if unstretched.report.objective < best.report.objective:
        best = unstretched
    schedule, _ = reference_list_schedule(fractional, instance)
    report = reference_completion_times(schedule, instance)
    listed = StretchTrial(None, report, report, build=lambda: schedule)
    if listed.report.objective < best.report.objective:
        best = listed
    average = float(np.mean([t.report.objective for t in out]))
    return StretchResult(
        best=best, average_objective=average, unstretched=unstretched, listed=listed,
        build_trials=lambda: tuple(out),
    )


@pytest.mark.parametrize("model", list(RoutingModel))
def test_run_stretch_matches_trial_by_trial_reference(monkeypatch, model):
    from conftest import fuzz_instance

    from coflownet import build_time_indexed_lp, extract_fractional, horizon_upper_bound, solve

    # every factor below sqrt(0.1) is moved to the floor, so that some trials run at it
    real = rounding._draw_factors

    def forced(trials, seed, slot_count):
        factors = real(trials, seed, slot_count)
        return np.where(factors < math.sqrt(0.1), 1.0 / (10.0 * slot_count), factors)

    monkeypatch.setattr(rounding, "_draw_factors", forced)
    rng = np.random.default_rng(77)
    at_floor = unstretched_won = listed_won = 0
    for k in range(8):
        inst = fuzz_instance(rng, model)
        horizon = horizon_upper_bound(inst)
        problem = build_time_indexed_lp(inst, horizon)
        frac = extract_fractional(problem, solve(problem).x, inst, horizon)
        got = run_stretch(inst, frac, trials=10, seed=k)
        want = reference_run_stretch(inst, frac, trials=10, seed=k)
        # run_stretch built the best trial's schedule and no other
        every = (*got.trials, got.unstretched, got.listed)
        assert ["schedule" in vars(t) for t in every] == [t is got.best for t in every]
        for a, b in zip(every, (*want.trials, want.unstretched, want.listed), strict=True):
            assert a.lam == b.lam
            assert a.pre_compaction == b.pre_compaction and a.report == b.report
            if a is not got.best and a.lam is not None:
                rebuilt = compact_idle_slots(stretch_schedule(frac, a.lam, inst), inst)
                assert_same_schedule(rebuilt, b.schedule, inst)
            # the best trial's schedule as run_stretch built it, any other built on this read
            assert_same_schedule(a.schedule, b.schedule, inst)
        assert_bitwise_schedule(got.listed.schedule, want.listed.schedule)
        at_floor += sum(t.lam.value == 1.0 / (10.0 * horizon) for t in got.trials)
        assert [t is got.best for t in every] == [
            t is want.best for t in (*want.trials, want.unstretched, want.listed)
        ]
        assert got.average_objective == want.average_objective
        unstretched_won += got.best is got.unstretched
        listed_won += got.best is got.listed
    assert at_floor > 0 and unstretched_won > 0 and listed_won > 0


# ---------------------------------------------------------------------------
# batched trials: compaction as one gather, invariances, memory


def _without_releases(instance):
    from dataclasses import replace

    coflows = tuple(
        Coflow(tuple(replace(fl, release=0) for fl in cf.flows), cf.weight) for cf in instance.coflows
    )
    return Instance(instance.network, coflows, instance.model)


def _fuzz_solved(model, releases, count, seed):
    """``count`` fuzz instances of ``model`` (releases kept or zeroed),
    each with its slot-LP fractional schedule."""
    from conftest import fuzz_instance

    from coflownet import build_time_indexed_lp, extract_fractional, horizon_upper_bound, solve

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        inst = fuzz_instance(rng, model)
        if not releases:
            inst = _without_releases(inst)
        elif not any(fl.release for _, _, _, fl in inst.iter_flows()):
            continue
        horizon = horizon_upper_bound(inst)
        problem = build_time_indexed_lp(inst, horizon)
        out.append((inst, extract_fractional(problem, solve(problem).x, inst, horizon)))
    return out


def assert_same_result(got, want):
    """Two ``StretchResult``s agree bit for bit: every factor and report,
    the factor-1 and list candidates, the best trial, the average and the
    best schedule."""
    assert [t.lam for t in got.trials] == [t.lam for t in want.trials]
    assert [(t.report, t.pre_compaction) for t in got.trials] == [
        (t.report, t.pre_compaction) for t in want.trials
    ]
    assert [t is got.best for t in got.trials] == [t is want.best for t in want.trials]
    assert (got.unstretched.report, got.unstretched.pre_compaction) == (
        want.unstretched.report, want.unstretched.pre_compaction
    )
    assert (got.best is got.unstretched) == (want.best is want.unstretched)
    assert (got.listed.report, got.listed.pre_compaction) == (want.listed.report, want.listed.pre_compaction)
    assert (got.best is got.listed) == (want.best is want.listed)
    assert got.average_objective == want.average_objective
    assert_bitwise_schedule(got.best.schedule, want.best.schedule)


@pytest.mark.parametrize("releases", [True, False], ids=["releases", "no-releases"])
@pytest.mark.parametrize("model", list(RoutingModel))
def test_compaction_matches_reference_bitwise(monkeypatch, model, releases):
    if not releases:
        # without releases compaction is one gather and runs no bisect plan
        monkeypatch.setattr(rounding, "bisect", None)
    for inst, frac in _fuzz_solved(model, releases, count=6, seed=515):
        for value in (1.0, 0.7, 0.45, 0.2):
            stretched = stretch_schedule(frac, Lambda(value), inst)
            assert_bitwise_schedule(compact_idle_slots(stretched, inst), reference_compact(stretched, inst))
        trial = lp_heuristic(inst, frac)
        stretched = stretch_schedule(frac, Lambda(1.0), inst)
        assert_bitwise_schedule(trial.schedule, reference_compact(stretched, inst))


def _padded(frac, extra):
    """``frac`` with ``extra`` all-zero slots appended."""

    def pad(series):
        return np.concatenate([series, np.zeros(extra)])

    edges = None
    if frac.edge_fractions is not None:
        edges = tuple(
            tuple({eid: pad(s) for eid, s in by_edge.items()} for by_edge in flows)
            for flows in frac.edge_fractions
        )
    return FractionalSchedule(
        slot_count=frac.slot_count + extra,
        fractions=tuple(tuple(pad(s) for s in flows) for flows in frac.fractions),
        cumulative=tuple(np.concatenate([c, np.full(extra, c[-1])]) for c in frac.cumulative),
        lp_completion=frac.lp_completion,
        edge_fractions=edges,
    )


@pytest.mark.parametrize("releases", [True, False], ids=["releases", "no-releases"])
@pytest.mark.parametrize("model", list(RoutingModel))
def test_trailing_zero_slots_change_no_trial(model, releases):
    for k, (inst, frac) in enumerate(_fuzz_solved(model, releases, count=4, seed=616)):
        floor = 1.0 / (10.0 * frac.slot_count)
        got = run_stretch(inst, _padded(frac, 3 * frac.slot_count), trials=20, seed=k)
        want = run_stretch(inst, frac, trials=20, seed=k)
        for a, b in zip(got.trials, want.trials, strict=True):
            if b.lam.value > floor:
                assert a.lam == b.lam
                assert a.report == b.report and a.pre_compaction == b.pre_compaction
        # the list schedule reads only the lambda points and the summed edge splits
        assert got.listed.report == want.listed.report
        assert want.best.lam is None or want.best.lam.value > floor
        assert got.best.lam == want.best.lam
        assert_bitwise_schedule(got.best.schedule, want.best.schedule)


@pytest.mark.parametrize("releases", [True, False], ids=["releases", "no-releases"])
@pytest.mark.parametrize("model", list(RoutingModel))
def test_one_trial_per_batch_gives_the_same_result(monkeypatch, model, releases):
    cases = _fuzz_solved(model, releases, count=4, seed=717)
    want = [run_stretch(inst, frac, trials=25, seed=k) for k, (inst, frac) in enumerate(cases)]
    monkeypatch.setattr(rounding, "_BATCH_CELLS", 1)
    for k, (inst, frac) in enumerate(cases):
        assert_same_result(run_stretch(inst, frac, trials=25, seed=k), want[k])


def test_max_trials_run_in_bounded_memory():
    import tracemalloc

    (inst, frac), = _fuzz_solved(RoutingModel.FREE_PATH, True, count=1, seed=1)
    tracemalloc.start()
    try:
        result = run_stretch(inst, frac, trials=MAX_TRIALS, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.trials) == MAX_TRIALS
    built = (*result.trials, result.unstretched, result.listed)
    assert ["schedule" in vars(t) for t in built].count(True) == 1
    # a batch of at most _BATCH_CELLS cells needs a few arrays of 2 MB each
    # and sets the peak (13 MB); the result holds every trial's completion
    # rows (1.1 MB), and the trial objects made when ``trials`` is first
    # read add 0.9 kB a trial; keeping every trial's schedule took 113 MB
    assert peak < 24e6, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# the factor-1 and list candidates


def assert_candidates(instance, fractional, trials, seed):
    """Check the factor-1 trial of one ``run_stretch`` call against
    ``lp_heuristic``, its list schedule against the reference (it
    verifies, fits its slot bound, needs no compaction and comes out the
    same on a second call), and the strict-win rules. Returns whether the
    factor-1 trial tied and beat the best sampled trial, and whether the
    list schedule tied and beat the trial chosen among those."""
    result = run_stretch(instance, fractional, trials=trials, seed=seed)
    sampled = [t.report.objective for t in result.trials]
    first_best = result.trials[int(np.argmin(sampled))]
    heuristic = lp_heuristic(instance, fractional)
    unstretched = result.unstretched
    assert unstretched.lam.value == 1.0
    assert (unstretched.report, unstretched.pre_compaction) == (heuristic.report, heuristic.pre_compaction)
    assert_bitwise_schedule(unstretched.schedule, heuristic.schedule)

    listed = result.listed
    want, bound = reference_list_schedule(fractional, instance)
    assert listed.lam is None and listed.pre_compaction == listed.report
    assert_bitwise_schedule(listed.schedule, want)
    assert verify_schedule(listed.schedule, instance) == []
    assert listed.schedule.slot_count <= bound
    assert listed.report == completion_times(listed.schedule, instance)
    assert_bitwise_schedule(compact_idle_slots(listed.schedule, instance), listed.schedule)
    again = run_stretch(instance, fractional, trials=trials, seed=seed).listed
    assert again.report == listed.report
    assert_bitwise_schedule(again.schedule, listed.schedule)

    assert result.best.report.objective <= min(unstretched.report.objective, listed.report.objective, *sampled)
    # a tie keeps the first sampled trial of least objective, and the list schedule only strictly wins
    wins = unstretched.report.objective < first_best.report.objective
    chosen = unstretched if wins else first_best
    list_wins = listed.report.objective < chosen.report.objective
    assert result.best is (listed if list_wins else chosen)
    assert len(result.trials) == trials
    assert result.average_objective == float(np.mean(sampled))
    return (
        unstretched.report.objective == first_best.report.objective,
        wins,
        listed.report.objective == chosen.report.objective,
        list_wins,
    )


def test_unstretched_candidate_on_the_feasibility_fuzz():
    from conftest import fuzz_instance

    from coflownet import run_pipeline

    # the 200 instances of acceptance criterion 7
    rng = np.random.default_rng(7)
    counts = np.zeros(4, dtype=int)
    for model in RoutingModel:
        for k in range(100):
            inst = fuzz_instance(rng, model)
            result = run_pipeline(inst, "stretch", trials=20, seed=k)
            outcome = assert_candidates(inst, result.fractional, 20, k)
            counts += outcome
            assert result.report.objective <= result.unstretched.report.objective
            assert result.report.objective <= result.listed.report.objective
            # no factor makes the list schedule
            assert (result.best_lambda is None) == outcome[3]
    assert counts.all(), counts


def test_unstretched_candidate_on_the_benchmark_corpora(workloads):
    from coflownet import run_pipeline

    for workload in workloads.WORKLOADS.values():
        item = workloads.requests(workload, 1)[0]
        for call in workload.calls:
            result = run_pipeline(
                item.instance, call.strategy, trials=call.trials, seed=item.trial_seed, epsilon=call.epsilon
            )
            assert_candidates(item.instance, result.fractional, call.trials, item.trial_seed)


@pytest.mark.parametrize("model", list(RoutingModel))
def test_list_candidate_on_interval_relaxations(model):
    from conftest import fuzz_instance

    from coflownet import run_pipeline

    rng = np.random.default_rng(8)
    counts = np.zeros(4, dtype=int)
    for k in range(25):
        inst = fuzz_instance(rng, model)
        result = run_pipeline(inst, "interval-stretch", trials=10, seed=k, epsilon=0.2)
        counts += assert_candidates(inst, result.fractional, 10, k)
    assert counts[3] > 0, counts


def test_list_candidate_never_beats_the_open_shop_optimum():
    from coflownet import open_shop_optimal, random_shop, reduce_open_shop, run_pipeline

    # the shop distribution of acceptance criterion 3
    rng = np.random.default_rng(42)
    list_wins = 0
    for k in range(30):
        shop = random_shop(rng, max_jobs=6, max_machines=4, max_time=5, max_weight=10)
        inst = reduce_open_shop(shop)
        exact, _ = open_shop_optimal(shop)
        result = run_pipeline(inst, "stretch", trials=20, seed=k)
        assert result.listed.report.objective >= exact - 1e-9
        assert result.report.objective >= exact - 1e-9
        list_wins += assert_candidates(inst, result.fractional, 20, k)[3]
    assert list_wins > 0


def test_a_tie_keeps_the_sampled_trial():
    # the whole demand in one slot: every factor finishes in slot 1
    inst, frac = single_flow_fractional([1.0])
    result = run_stretch(inst, frac, trials=5, seed=3)
    assert {t.report.objective for t in (*result.trials, result.unstretched)} == {1.0}
    assert result.best is result.trials[0]
    assert "schedule" not in vars(result.unstretched)


def test_the_ceiling_covers_the_unstretched_trial(monkeypatch, demo_free, solved_free):
    _, _, frac = solved_free
    real = rounding._ceilings

    def tight_at_one(fractional, values):
        ceilings = real(fractional, values)
        ceilings[values == 1.0] = 0
        return ceilings

    monkeypatch.setattr(rounding, "_ceilings", tight_at_one)
    with pytest.raises(StretchBoundError, match=r"^coflow 1 finished .* at lambda 1\.0$"):
        run_stretch(demo_free, frac, trials=4, seed=1)

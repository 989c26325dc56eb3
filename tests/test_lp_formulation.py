import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import fuzz_instance
from helpers import as_scipy, from_rows

from coflownet import (
    Coflow,
    Edge,
    Flow,
    HorizonTooLarge,
    Instance,
    Network,
    RateSchedule,
    RoutingModel,
    SolveStatus,
    build_interval_lp,
    build_time_indexed_lp,
    extract_fractional,
    extract_interval_solution,
    geometric_intervals,
    horizon_lower_bound,
    horizon_upper_bound,
    interval_grid_for,
    solve,
    verify_schedule,
)
from coflownet.generate import demo_instance
from coflownet.graphs import max_flow_value, path_bottleneck, usable_edges
import coflownet.lp
from coflownet.lp import ColumnLayout, _assemble
from coflownet.serialize import instance_from_dict
from coflownet.solver import _time_axis


def sequential_schedule(instance):
    """Oracle: run flows one at a time at bottleneck rate after the last
    release; always feasible, finishing by the horizon bound."""
    start = instance.max_release
    horizon = horizon_upper_bound(instance)
    amounts = [[np.zeros(horizon) for _ in cf.flows] for cf in instance.coflows]
    edge_amounts = None
    if instance.model is RoutingModel.FREE_PATH:
        raise NotImplementedError("oracle used for single-path instances")
    for j, i, _, fl in instance.iter_flows():
        rate = path_bottleneck(instance.network, fl.path)
        remaining = 1.0
        t = start
        while remaining > 1e-12:
            t += 1
            step = min(rate / fl.demand, remaining)
            amounts[j][i][t - 1] = step
            remaining -= step
        start = t
    sched = RateSchedule(horizon, tuple(tuple(f) for f in amounts), edge_amounts)
    return sched, start


def test_horizon_single_path_matches_sequential_oracle(demo_single):
    sched, finish = sequential_schedule(demo_single)
    assert verify_schedule(sched, demo_single) == []
    assert finish == horizon_upper_bound(demo_single) == 6


def test_horizon_arithmetic_with_release():
    net = Network(("a", "b"), (Edge("e1", "a", "b", 1.0),))
    inst = Instance(
        network=net,
        coflows=(Coflow((Flow("a", "b", 5.0, 3, ("e1",)),), 1.0),),
        model=RoutingModel.SINGLE_PATH,
    )
    assert horizon_upper_bound(inst) == 8


def test_horizon_free_path_uses_max_flow(demo_free):
    assert max_flow_value(demo_free.network, "s", "t") == pytest.approx(3.0)
    assert horizon_upper_bound(demo_free) == 4


def test_horizon_unroutable_free_path():
    net = Network(("a", "b", "c"), (Edge("e1", "a", "b", 1.0),))
    inst = Instance(
        network=net,
        coflows=(Coflow((Flow("a", "c", 1.0),), 1.0),),
        model=RoutingModel.FREE_PATH,
    )
    with pytest.raises(ValueError, match="unroutable"):
        horizon_upper_bound(inst)
    with pytest.raises(ValueError, match="unroutable"):
        horizon_lower_bound(inst)


@pytest.mark.parametrize("model", list(RoutingModel))
def test_horizon_lower_bound_below_the_last_slot_the_lp_uses(model):
    rng = np.random.default_rng(515)
    for _ in range(15):
        inst = fuzz_instance(rng, model)
        horizon = horizon_upper_bound(inst)
        problem = build_time_indexed_lp(inst, horizon)
        # the full LP, not a prefix: a problem without a first prefix is solved whole
        sol = solve(replace(problem, first_prefix=None))
        sent = np.diff(sol.x[problem.layout.S], axis=1, prepend=0.0)
        used = max(int(np.flatnonzero(row > 1e-9)[-1]) + 1 for row in sent)
        assert horizon_lower_bound(inst) <= used <= horizon


def test_free_path_lp_one_slot_below_the_lower_bound_is_infeasible():
    rng = np.random.default_rng(919)
    checked = 0
    for _ in range(40):
        inst = fuzz_instance(rng, RoutingModel.FREE_PATH)
        bound = horizon_lower_bound(inst)
        if bound - 1 > inst.max_release:
            problem = build_time_indexed_lp(inst, bound - 1)
            assert solve(replace(problem, first_prefix=None)).status is SolveStatus.INFEASIBLE
            checked += 1
    assert checked >= 10


def _step_of(name: str) -> int:
    """The step a column or row name carries."""
    parts = name.split("_")
    position = {"X": 2, "S": 3, "xe": 3, "cum": 3, "src": 3, "snk": 3, "bal": 3}
    return int(parts[-1] if parts[0] == "cap" else parts[position[parts[0]]])


@pytest.mark.parametrize("model", list(RoutingModel))
def test_the_time_axis_read_off_the_layout_matches_the_names(model):
    rng = np.random.default_rng(5)
    instances = [fuzz_instance(rng, model) for _ in range(4)]
    assert any(fl.release for inst in instances for _, _, _, fl in inst.iter_flows())
    checked = 0
    for inst in instances:
        slots = np.arange(horizon_upper_bound(inst) + 1.0)
        grid = np.asarray(interval_grid_for(inst, 0.5).boundaries)
        for boundaries in (slots, grid):
            whole = _assemble(inst, boundaries)
            rungs = sorted({whole.first_prefix, len(boundaries) - 2} & set(range(1, len(boundaries) - 1)))
            for problem in [whole, *(_assemble(inst, boundaries, L) for L in rungs)]:
                col_step, after, row_step = _time_axis(problem)
                assert col_step.tolist() == [_step_of(n) for n in problem.col_names]
                assert row_step.tolist() == [_step_of(n) for n in problem.row_names]
                assert after.tolist() == [float(n[0] in "XS") for n in problem.col_names]
                # a prefix's rows hold only its own columns, and a later row
                # only the previous step's: each row's entries lie at its
                # step or the step before
                entry_step = col_step[problem.A.indices]
                row_of_entry = np.repeat(row_step, np.diff(problem.A.indptr))
                assert np.isin(row_of_entry - entry_step, [0, 1]).all()
                T = problem.layout.S.shape[1]
                flows = [f"{j + 1}_{i + 1}" for j, i, _, _ in inst.iter_flows()]
                last = [problem.col_names[c] for c in problem.layout.S[:, -1]]
                assert last == [f"S_{tag}_{T}" for tag in flows]
                # every flow is done by the last step, and by no other
                assert (problem.col_lower[problem.layout.S[:, -1]] == 1.0).all()
                assert np.count_nonzero(problem.col_lower) == len(flows)
                assert problem.first_prefix == whole.first_prefix >= 1
                checked += 1
    assert checked >= 16


@pytest.mark.parametrize("model", list(RoutingModel))
def test_builder_names_are_unique(model):
    rng = np.random.default_rng(313)
    for k in range(10):
        inst = fuzz_instance(rng, model)
        for problem in (
            build_time_indexed_lp(inst, horizon_upper_bound(inst)),
            build_interval_lp(inst, interval_grid_for(inst, (0.2, 0.5436)[k % 2])),
        ):
            assert len(set(problem.col_names)) == problem.num_cols
            assert len(set(problem.row_names)) == problem.num_rows


def _tiny_instance():
    net = Network(("a", "b"), (Edge("e1", "a", "b", 1.0),))
    return Instance(
        network=net,
        coflows=(Coflow((Flow("a", "b", 1.0, 0, ("e1",)),), 1.0),),
        model=RoutingModel.SINGLE_PATH,
    )


def test_trivial_lp_only_feasible_point():
    inst = _tiny_instance()
    problem = build_time_indexed_lp(inst, 1)
    sol = solve(problem)
    assert sol.status.value == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert sol.x[problem.col_names.index("S_1_1_1")] == pytest.approx(1.0)
    assert sol.x[problem.col_names.index("X_1_1")] == pytest.approx(1.0)


@pytest.mark.parametrize("model", list(RoutingModel))
def test_lp_completions_add_up_to_the_objective(model):
    # the objective is sum_j w_j * (1 + sum_t len_t * (1 - X_j_t)), the
    # extracted completion bound per coflow, on slot and interval steps
    rng = np.random.default_rng(31)
    for k in range(6):
        inst = fuzz_instance(rng, model)
        weights = [cf.weight for cf in inst.coflows]
        horizon = horizon_upper_bound(inst)
        problem = build_time_indexed_lp(inst, horizon)
        sol = solve(problem)
        completion = extract_fractional(problem, sol.x, inst, horizon).lp_completion
        assert sol.objective == pytest.approx(math.fsum(map(math.prod, zip(weights, completion))), rel=1e-9)
        grid = interval_grid_for(inst, (0.2, 0.5436)[k % 2])
        problem = build_interval_lp(inst, grid)
        sol = solve(problem)
        short = np.diff(grid.boundaries) * (1.0 - sol.x[problem.layout.X])
        completion = [math.fsum([1.0, *row]) for row in short.tolist()]
        assert sol.objective == pytest.approx(math.fsum(map(math.prod, zip(weights, completion))), rel=1e-9)


def test_golden_lp_objectives(solved_single, solved_free):
    _, single, _ = solved_single
    _, free, _ = solved_free
    assert single.objective <= 7.0 + 1e-6
    assert single.objective >= 5.0 - 1e-6
    assert free.objective <= 5.0 + 1e-6
    # frozen regression values
    assert single.objective == pytest.approx(6.0, abs=1e-7)
    assert free.objective == pytest.approx(5.0, abs=1e-7)


def test_release_respected_in_solution():
    net = Network(("a", "b"), (Edge("e1", "a", "b", 1.0),))
    inst = Instance(
        network=net,
        coflows=(
            Coflow((Flow("a", "b", 1.0, 2, ("e1",)),), 1.0),
            Coflow((Flow("a", "b", 1.0, 0, ("e1",)),), 1.0),
        ),
        model=RoutingModel.SINGLE_PATH,
    )
    horizon = horizon_upper_bound(inst)
    problem = build_time_indexed_lp(inst, horizon)
    sol = solve(problem)
    for t in (1, 2):
        assert sol.x[problem.col_names.index(f"S_1_1_{t}")] == pytest.approx(0.0, abs=1e-12)


def test_fractional_release_rounds_up():
    # released at 1.5, the flow may transmit only from slot 3 on
    inst = instance_from_dict({
        "format": 1,
        "model": "single_path",
        "nodes": ["a", "b"],
        "edges": [{"id": "e1", "src": "a", "dst": "b", "cap": 1.0}],
        "coflows": [
            {"weight": 1.0, "flows": [{"src": "a", "dst": "b", "demand": 1.0, "release": 1.5, "path": ["e1"]}]},
            {"weight": 1.0, "flows": [{"src": "a", "dst": "b", "demand": 1.0, "release": 0, "path": ["e1"]}]},
        ],
    })
    assert inst.coflows[0].flows[0].release == 2
    horizon = horizon_upper_bound(inst)
    problem = build_time_indexed_lp(inst, horizon)
    sol = solve(problem)
    for t in (1, 2):
        assert sol.x[problem.col_names.index(f"S_1_1_{t}")] == pytest.approx(0.0, abs=1e-12)


def test_infeasible_horizon_flagged_before_solve():
    net = Network(("a", "b"), (Edge("e1", "a", "b", 1.0),))
    inst = Instance(
        network=net,
        coflows=(Coflow((Flow("a", "b", 1.0, 3, ("e1",)),), 1.0),),
        model=RoutingModel.SINGLE_PATH,
    )
    with pytest.raises(ValueError, match="release"):
        build_time_indexed_lp(inst, 3)


def test_free_path_lp_below_single_path_lp(demo_single):
    # free routing relaxes the declared paths, so its value cannot exceed
    free_variant = Instance(demo_single.network, demo_single.coflows, RoutingModel.FREE_PATH)
    t_single = horizon_upper_bound(demo_single)
    single = solve(build_time_indexed_lp(demo_single, t_single))
    free = solve(build_time_indexed_lp(free_variant, t_single))
    assert free.objective <= single.objective + 1e-6


def test_weight_scaling_scales_objective(demo_single):
    scaled = Instance(
        demo_single.network,
        tuple(Coflow(cf.flows, cf.weight * 3.5) for cf in demo_single.coflows),
        demo_single.model,
    )
    horizon = horizon_upper_bound(demo_single)
    base = solve(build_time_indexed_lp(demo_single, horizon))
    big = solve(build_time_indexed_lp(scaled, horizon))
    assert big.objective == pytest.approx(3.5 * base.objective, rel=1e-9)


def test_prefix_sum_identity_on_random_vectors(rng):
    # sum_t t*x(t) == 1 + sum_{t<T} (1 - prefix(t)) for any unit vector
    for _ in range(100):
        n = int(rng.integers(1, 30))
        x = rng.random(n)
        x /= x.sum()
        prefix = np.cumsum(x)
        lhs = float(np.sum((np.arange(n) + 1) * x))
        rhs = 1.0 + float(np.sum(1.0 - prefix[:-1]))
        assert abs(lhs - rhs) <= 1e-12


def test_variable_naming_convention(solved_single, solved_free):
    p_single, _, _ = solved_single
    p_free, _, _ = solved_free
    assert "X_4_3" in p_single.col_names
    assert "S_4_1_2" in p_single.col_names
    assert "xe_4_1_2_s-v1" in p_free.col_names
    # one cumulative column per flow-step: no completion or per-step amount columns
    for p in (p_single, p_free):
        assert {n.split("_")[0] for n in p.col_names} <= {"X", "S", "xe"}
        assert {n.split("_")[0] for n in p.row_names} <= {"cum", "cap", "src", "snk", "bal"}


# ---------------------------------------------------------------------------
# geometric intervals


def interval_count_oracle(horizon, epsilon):
    """Independent count: smallest k with (1+eps)^k >= horizon, plus one,
    computed by repeated multiplication."""
    if horizon <= 1:
        return 1
    value, k = 1.0, 0
    while value < horizon - 1e-9:
        value *= 1.0 + epsilon
        k += 1
    return 1 + k


def test_geometric_interval_examples():
    assert geometric_intervals(1, 0.7).boundaries == (0.0, 1.0)
    grid = geometric_intervals(4, 1.0)
    assert grid.boundaries == (0.0, 1.0, 2.0, 4.0)
    assert geometric_intervals(10, 0.2).interval_count == 14
    assert geometric_intervals(100, 0.5436).interval_count == 12
    with pytest.raises(ValueError):
        geometric_intervals(10, 0.0)


def test_geometric_interval_count_is_bounded_before_the_grid_is_built():
    # 1 + ceil(log 2 / log1p 1e-5) = 69,317 intervals: 28 columns each fit the budget, 29 do not
    assert geometric_intervals(2, 1e-5, per_step=28).interval_count == 69_317
    with pytest.raises(HorizonTooLarge, match="29 per interval"):
        geometric_intervals(2, 1e-5, per_step=29)
    # 1 + 1e-300 rounds to 1, and log1p(5e-324) / log(2) overflows the count to infinity
    for epsilon in (1e-9, 1e-300, 5e-324):
        with pytest.raises(HorizonTooLarge):
            geometric_intervals(10, epsilon)
    with pytest.raises(HorizonTooLarge):
        interval_grid_for(demo_instance(RoutingModel.FREE_PATH), 1e-9)


def test_geometric_interval_counts_match_oracle():
    for epsilon in (0.2, 0.5436, 1.0, 0.05):
        for horizon in (1, 2, 3, 4, 7, 10, 53, 100, 997, 1000):
            grid = geometric_intervals(horizon, epsilon)
            assert grid.interval_count == interval_count_oracle(horizon, epsilon)
            assert grid.horizon >= horizon - 1e-9
            assert all(b > a for a, b in zip(grid.boundaries, grid.boundaries[1:]))


def test_interval_lp_equals_slot_lp_when_grids_coincide():
    inst = _tiny_instance()
    slot = solve(build_time_indexed_lp(inst, 1))
    grid = geometric_intervals(1, 0.2)
    interval = solve(build_interval_lp(inst, grid))
    assert interval.objective == pytest.approx(slot.objective, abs=1e-9)


def test_interval_lp_close_to_slot_lp_on_demo(demo_free):
    slot = solve(build_time_indexed_lp(demo_free, horizon_upper_bound(demo_free)))
    grid = interval_grid_for(demo_free, 0.2)
    interval = solve(build_interval_lp(demo_free, grid))
    n_coflows = len(demo_free.coflows)
    assert interval.objective <= 1.2 * slot.objective + n_coflows * 1.0 + 1e-6


def test_interval_release_blocks_straddled_intervals():
    net = Network(("a", "b"), (Edge("e1", "a", "b", 1.0),))
    inst = Instance(
        network=net,
        coflows=(Coflow((Flow("a", "b", 1.0, 2, ("e1",)),), 1.0),),
        model=RoutingModel.SINGLE_PATH,
    )
    grid = interval_grid_for(inst, 0.2)
    problem = build_interval_lp(inst, grid)
    sol = solve(problem)
    fractional = extract_fractional(problem, sol.x, inst, grid.interval_count)
    for k in range(grid.interval_count):
        if grid.boundaries[k] < 2 - 1e-9:  # interval starts before the release
            assert fractional.fractions[0][0][k] == pytest.approx(0.0, abs=1e-12)


def test_interval_grid_padding_keeps_lp_feasible():
    net = Network(("a", "b"), (Edge("e1", "a", "b", 1.0),))
    inst = Instance(
        network=net,
        coflows=(Coflow((Flow("a", "b", 6.0, 7, ("e1",)),), 1.0),),
        model=RoutingModel.SINGLE_PATH,
    )
    grid = interval_grid_for(inst, 0.5436)
    sol = solve(build_interval_lp(inst, grid))
    assert sol.status.value == "optimal"


def test_interval_pipeline_bounds_the_horizon_once(demo_free, monkeypatch):
    # the max-flow behind each free-path flow's horizon term runs once per
    # source-sink pair, though the horizon bound is read more than once
    import coflownet.graphs
    import coflownet.pipeline

    fresh = demo_instance(RoutingModel.FREE_PATH)  # the fixture's facts may be cached
    calls = []

    def counted(network, src, dst):
        calls.append((src, dst))
        return max_flow_value(network, src, dst)

    monkeypatch.setattr(coflownet.graphs, "max_flow_value", counted)
    result = coflownet.pipeline.run_pipeline(fresh, "interval-stretch", trials=2, epsilon=0.2)
    assert sorted(calls) == sorted({(fl.src, fl.dst) for _, _, _, fl in fresh.iter_flows()})
    assert result.fractional.slot_count == math.ceil(interval_grid_for(demo_free, 0.2).horizon - 1e-9)


# ---------------------------------------------------------------------------
# cum rows: cumulative columns against the textbook formulation


def textbook_reference(instance, lengths, allowed):
    """The relaxation as the paper writes it, one row at a time: columns
    ``C_j``, ``X_j_t``, the per-step amounts ``x_j_i_t`` (and free-path
    ``xe``); rows ``dem`` (each flow's amounts sum to 1), the quadratic
    ``X_j_t - sum_{l <= t} x_j_i_l <= 0`` per (coflow, flow, step),
    ``fin`` (``C_j + sum_t len_t X_j_t >= 1 + sum_t len_t``), and the
    ``cap`` and flow rows on the amounts."""
    steps = range(1, len(lengths) + 1)
    obj, upper, names, rows = [], [], [], []

    def col(name, cost=0.0, ub=1.0):
        names.append(name)
        obj.append(cost)
        upper.append(ub)
        return len(names) - 1

    def row(name, plus, minus, rel, rhs, vals=None):
        rows.append((name, plus + minus, vals or [1.0] * len(plus) + [-1.0] * len(minus), rel, rhs))

    C = [col(f"C_{j + 1}", cf.weight, math.inf) for j, cf in enumerate(instance.coflows)]
    X = {(j, t): col(f"X_{j + 1}_{t}") for j in range(len(C)) for t in steps}
    users = {}  # edge id -> [(column per step, demand)]
    for f, (j, _, _, fl) in enumerate(instance.iter_flows()):
        x = {t: col(f"x_{f}_{t}", ub=float(allowed(fl, t))) for t in steps}
        row(f"dem_{f}", list(x.values()), [], "=", 1.0)
        for t in steps:
            row(f"cum_{f}_{t}", [X[j, t]], [x[l] for l in range(1, t + 1)], "<=", 0.0)
        if instance.model is RoutingModel.SINGLE_PATH:
            for eid in fl.path:
                users.setdefault(eid, []).append(([x[t] for t in steps], fl.demand))
            continue
        edges = usable_edges(instance.network, fl.src, fl.dst)
        xe = {(t, e.id): col(f"xe_{f}_{t}_{e.id}", ub=math.inf) for t in steps for e in edges}
        for e in edges:
            users.setdefault(e.id, []).append(([xe[t, e.id] for t in steps], fl.demand))
        interior = sorted(({e.src for e in edges} | {e.dst for e in edges}) - {fl.src, fl.dst})
        for t in steps:
            def on(keep):
                return [xe[t, e.id] for e in edges if keep(e)]

            row(f"src_{f}_{t}", on(lambda e: e.src == fl.src), [x[t]], "=", 0.0)
            row(f"snk_{f}_{t}", on(lambda e: e.dst == fl.dst), [x[t]], "=", 0.0)
            for v in interior:
                row(f"bal_{f}_{t}_{v}", on(lambda e: e.dst == v), on(lambda e: e.src == v), "=", 0.0)
    for j in range(len(C)):
        cols = [C[j]] + [X[j, t] for t in steps]
        row(f"fin_{j + 1}", cols, [], ">=", 1.0 + math.fsum(lengths), [1.0] + list(lengths))
    for e in instance.network.edges:
        for t in steps if e.id in users else ():
            cols = [c[t - 1] for c, _ in users[e.id]]
            row(f"cap_{e.id}_{t}", cols, [], "<=", lengths[t - 1] * e.cap, [d for _, d in users[e.id]])
    return from_rows(obj, [0.0] * len(names), upper, names, rows)


def _step_rules(instance, grid=None):
    """Step lengths of the slot LP over the horizon bound (``grid`` None)
    or of the interval LP on ``grid``, and whether a flow may send in
    step t (1-based)."""
    if grid is None:
        return [1.0] * horizon_upper_bound(instance), lambda fl, t: t > fl.release
    lengths = np.diff(grid.boundaries).tolist()
    return lengths, lambda fl, t: grid.boundaries[t - 1] >= fl.release - 1e-9


@pytest.mark.parametrize("model", list(RoutingModel))
def test_prefix_cum_rows_match_quadratic_reference(model):
    rng = np.random.default_rng(2027)
    for k in range(10):
        inst = fuzz_instance(rng, model)
        grid = interval_grid_for(inst, (0.2, 0.5436)[k % 2])
        for problem, rules in (
            (build_time_indexed_lp(inst, horizon_upper_bound(inst)), _step_rules(inst)),
            (build_interval_lp(inst, grid), _step_rules(inst, grid)),
        ):
            got, want = solve(problem), solve(textbook_reference(inst, *rules))
            assert got.status.value == want.status.value == "optimal"
            assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=0)


def _cum_nnz(problem):
    return sum(
        cols.size for name, cols in zip(problem.row_names, problem.row_cols)
        if name.startswith("cum_")
    )


def test_cum_nonzeros_grow_linearly_in_the_horizon(demo_single):
    # two per X - S row, per (flow, step), and two per S_t - S_{t-1} row, per (flow, step > 1)
    flows = demo_single.flow_count
    for horizon in (4 * horizon_upper_bound(demo_single), 8 * horizon_upper_bound(demo_single)):
        problem = build_time_indexed_lp(demo_single, horizon)
        assert _cum_nnz(problem) == 2 * flows * horizon + 2 * flows * (horizon - 1)


# ---------------------------------------------------------------------------
# block assembly against a row-at-a-time reference


def reference_assembly(instance, lengths, allowed):
    """The relaxation written one column and one row at a time, in the
    documented order, and assembled by ``helpers.from_rows``."""
    steps = range(1, len(lengths) + 1)
    flows = list(instance.iter_flows())
    obj, lower, upper, names, rows = [], [], [], [], []

    def col(name, cost=0.0, lb=0.0, ub=1.0):
        names.append(name)
        obj.append(cost)
        lower.append(lb)
        upper.append(ub)
        return len(names) - 1

    def row(name, plus, minus, rel, rhs, vals=None):
        vals = vals or [1.0] * len(plus) + [-1.0] * len(minus)
        rows.append((name, plus + minus, vals, rel, rhs))

    weights = [cf.weight for cf in instance.coflows]
    X = {
        (j, t): col(f"X_{j + 1}_{t}", -w * lengths[t - 1])
        for j, w in enumerate(weights) for t in steps
    }
    tags = [f"{j + 1}_{i + 1}" for j, i, _, _ in flows]
    S = {
        (f, t): col(f"S_{tags[f]}_{t}", lb=float(t == len(lengths)), ub=float(allowed(fl, t)))
        for f, (_, _, _, fl) in enumerate(flows) for t in steps
    }
    for f, (j, _, _, _) in enumerate(flows):
        for t in steps:
            row(f"cum_{tags[f]}_{t}", [X[j, t]], [S[f, t]], "<=", 0.0)

    def sent(f, t):
        """The step's amount S_t - S_{t-1} as (+1 columns, -1 columns)."""
        return [S[f, t]], [S[f, t - 1]] if t > 1 else []

    users = {}  # edge id -> [(columns of step t, values of step t) per step]
    xe = None
    if instance.model is RoutingModel.SINGLE_PATH:
        for f, (_, _, _, fl) in enumerate(flows):
            for eid in fl.path:
                entries = [
                    (plus + minus, [fl.demand] * len(plus) + [-fl.demand] * len(minus))
                    for plus, minus in (sent(f, t) for t in steps)
                ]
                users.setdefault(eid, []).append(entries)
    else:
        xe = []
        for f, (_, _, _, fl) in enumerate(flows):
            edges = usable_edges(instance.network, fl.src, fl.dst)
            cols = {
                (t, e.id): col(
                    f"xe_{tags[f]}_{t}_{e.id}",
                    ub=lengths[t - 1] * e.cap / fl.demand if allowed(fl, t) else 0.0,
                )
                for t in steps for e in edges
            }
            xe.append({e.id: np.array([cols[t, e.id] for t in steps]) for e in edges})
            for e in edges:
                users.setdefault(e.id, []).append([([cols[t, e.id]], [fl.demand]) for t in steps])
            nodes = {e.src for e in edges} | {e.dst for e in edges}
            for t in steps:
                def on(keep):
                    return [cols[t, e.id] for e in edges if keep(e)]

                plus, minus = sent(f, t)
                row(f"src_{tags[f]}_{t}", on(lambda e: e.src == fl.src) + minus, plus, "=", 0.0)
                row(f"snk_{tags[f]}_{t}", on(lambda e: e.dst == fl.dst) + minus, plus, "=", 0.0)
                for v in sorted(nodes - {fl.src, fl.dst}):
                    ins, outs = on(lambda e: e.dst == v), on(lambda e: e.src == v)
                    row(f"bal_{tags[f]}_{t}_{v}", ins, outs, "=", 0.0)
        xe = tuple(xe)
    for e in instance.network.edges:
        for t in steps if e.id in users else ():
            entries = [user[t - 1] for user in users[e.id]]
            cols = [c for cs, _ in entries for c in cs]
            vals = [v for _, vs in entries for v in vs]
            row(f"cap_{e.id}_{t}", cols, [], "<=", lengths[t - 1] * e.cap, vals)
    for f in range(len(flows)):
        for t in steps[1:]:
            row(f"cum_{tags[f]}_{t}_s", [S[f, t]], [S[f, t - 1]], ">=", 0.0)
    layout = ColumnLayout(
        X=np.array([[X[j, t] for t in steps] for j in range(len(weights))]),
        S=np.array([[S[f, t] for t in steps] for f in range(len(flows))]),
        xe=xe,
    )
    problem = from_rows(obj, lower, upper, names, rows, layout=layout)
    return replace(problem, offset=math.fsum(np.array(weights) * (1.0 + math.fsum(lengths))))


def assert_same_problem(got, want):
    """Bit for bit: names, bounds, objective and its offset, CSR arrays and
    layout. The builder's names are built here, on first read."""
    assert "col_names" not in vars(got) and "row_names" not in vars(got)
    assert got.col_names == want.col_names
    assert got.row_names == want.row_names
    assert got.offset.hex() == want.offset.hex()
    pairs = [
        (getattr(got, k), getattr(want, k))
        for k in ("objective", "col_lower", "col_upper", "row_lower", "row_upper")
    ]
    pairs += [(getattr(got.A, k), getattr(want.A, k)) for k in ("indptr", "indices", "data")]
    pairs += [(got.layout.X, want.layout.X), (got.layout.S, want.layout.S)]
    assert (got.layout.xe is None) == (want.layout.xe is None)
    for a, b in zip(got.layout.xe or (), want.layout.xe or (), strict=True):
        assert list(a) == list(b)
        pairs += [(a[eid], b[eid]) for eid in a]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model", list(RoutingModel))
def test_block_assembly_matches_row_reference(model):
    rng = np.random.default_rng(4242)
    for k in range(12):
        inst = fuzz_instance(rng, model)
        horizon = horizon_upper_bound(inst)
        slot = reference_assembly(inst, *_step_rules(inst))
        assert_same_problem(build_time_indexed_lp(inst, horizon), slot)
        grid = interval_grid_for(inst, (0.2, 0.5436)[k % 2])
        interval = reference_assembly(inst, *_step_rules(inst, grid))
        assert_same_problem(build_interval_lp(inst, grid), interval)


@pytest.mark.parametrize("model", list(RoutingModel))
def test_pipeline_builds_no_lp_name(monkeypatch, model):
    def named(naming):
        raise AssertionError("an LP name was built")

    monkeypatch.setattr(coflownet.lp, "_names", named)
    inst = demo_instance(model)
    for strategy in coflownet.pipeline.STRATEGIES:
        coflownet.pipeline.run_pipeline(inst, strategy=strategy, trials=2)


@pytest.mark.parametrize("strategy", ["stretch", "interval-stretch"])
def test_pipeline_finds_each_flows_usable_edges_once(monkeypatch, strategy):
    fresh = demo_instance(RoutingModel.FREE_PATH)
    calls = []

    def counted(network, src, dst):
        calls.append((src, dst))
        return usable_edges(network, src, dst)

    monkeypatch.setattr(coflownet.graphs, "usable_edges", counted)
    coflownet.pipeline.run_pipeline(fresh, strategy=strategy, trials=2)
    assert sorted(calls) == sorted({(fl.src, fl.dst) for _, _, _, fl in fresh.iter_flows()})


def _released_free_instance():
    """A free-path instance whose flows share source-sink pairs and have
    releases."""
    net = demo_instance(RoutingModel.FREE_PATH).network
    pairs = [("s", "t", 0), ("s", "t", 2), ("v1", "t", 1), ("s", "t", 1), ("v1", "t", 0), ("t", "v3", 3)]
    coflows = tuple(
        Coflow((Flow(src, dst, 1.5, release), Flow("s", "v2", 0.5, release)), 1.0 + k)
        for k, (src, dst, release) in enumerate(pairs)
    )
    return Instance(network=net, coflows=coflows, model=RoutingModel.FREE_PATH)


def test_routing_facts_are_worked_out_once_per_pair_across_pipeline_calls(monkeypatch):
    import coflownet.graphs

    inst = _released_free_instance()
    pairs = {(fl.src, fl.dst) for _, _, _, fl in inst.iter_flows()}
    assert len(pairs) < inst.flow_count
    calls = {"usable_edges": [], "max_flow_value": []}
    for name, real in (("usable_edges", usable_edges), ("max_flow_value", max_flow_value)):
        def counted(network, src, dst, name=name, real=real):
            calls[name].append((src, dst))
            return real(network, src, dst)

        monkeypatch.setattr(coflownet.graphs, name, counted)
    coflownet.pipeline.run_pipeline(inst, "stretch", trials=2)
    coflownet.pipeline.run_pipeline(inst, "interval-stretch", trials=2)
    for name, seen in calls.items():
        assert sorted(seen) == sorted(pairs), name
    # an instance made by dataclasses.replace works its facts out afresh
    for seen in calls.values():
        seen.clear()
    fewer = replace(inst, coflows=inst.coflows[:2])
    assert fewer.solo_rates == inst.solo_rates[:4]
    assert fewer.flow_edges == inst.flow_edges[:4]
    want = sorted({(fl.src, fl.dst) for _, _, _, fl in fewer.iter_flows()})
    assert sorted(calls["max_flow_value"]) == sorted(calls["usable_edges"]) == want


def test_routing_facts_match_the_graph_functions_per_flow():
    for inst in (_released_free_instance(), demo_instance(RoutingModel.SINGLE_PATH)):
        flows = [fl for _, _, _, fl in inst.iter_flows()]
        if inst.model is RoutingModel.FREE_PATH:
            assert inst.flow_edges == tuple(usable_edges(inst.network, fl.src, fl.dst) for fl in flows)
            want = [max_flow_value(inst.network, fl.src, fl.dst) for fl in flows]
        else:
            assert inst.flow_edges is None
            want = [path_bottleneck(inst.network, fl.path) for fl in flows]
        assert inst.solo_rates == tuple(want)


def _cut_into(instance, node, cap=0.0):
    """``instance`` with every edge into ``node`` at capacity ``cap``."""
    edges = tuple(replace(e, cap=cap) if e.dst == node else e for e in instance.network.edges)
    return replace(instance, network=replace(instance.network, edges=edges))


@pytest.mark.parametrize("model", list(RoutingModel))
@pytest.mark.parametrize("cap", [0.0, -1.0, math.nan])
def test_a_flow_with_no_positive_rate_is_unroutable(model, cap):
    inst = _cut_into(demo_instance(model), "t", cap)
    message = "^unroutable flow: coflow 1 flow 1$"
    with pytest.raises(ValueError, match=message):
        inst.solo_rates
    for build in (
        horizon_upper_bound,
        horizon_lower_bound,
        lambda i: interval_grid_for(i, 0.2),
        lambda i: build_time_indexed_lp(i, 10),
    ):
        with pytest.raises(ValueError, match=message):
            build(inst)


def test_an_unreachable_free_path_sink_is_unroutable():
    # node x only sends, to s: the source s has out-edges, but none leads to x
    net = demo_instance(RoutingModel.FREE_PATH).network
    net = Network(nodes=(*net.nodes, "x"), edges=(*net.edges, Edge("x-s", "x", "s", 1.0)))
    inst = Instance(
        network=net,
        coflows=(Coflow((Flow("s", "t", 1.0),), 1.0), Coflow((Flow("s", "x", 1.0),), 1.0)),
        model=RoutingModel.FREE_PATH,
    )
    message = "^unroutable flow: coflow 2 flow 1$"
    for fact in ("flow_edges", "solo_rates"):
        with pytest.raises(ValueError, match=message):
            getattr(inst, fact)
    for build in (
        horizon_upper_bound,
        horizon_lower_bound,
        lambda i: interval_grid_for(i, 0.2),
        lambda i: build_time_indexed_lp(i, 10),
    ):
        with pytest.raises(ValueError, match=message):
            build(inst)


def test_edge_splits_match_per_edge_reference():
    rng = np.random.default_rng(77)
    for _ in range(6):
        inst = fuzz_instance(rng, RoutingModel.FREE_PATH)
        horizon = horizon_upper_bound(inst)
        problem = build_time_indexed_lp(inst, horizon)
        x = solve(problem).x
        x = x + np.where(rng.random(len(x)) < 0.2, -1e-10, 0.0)  # solver dust to clip
        got = extract_fractional(problem, x, inst, horizon).edge_fractions
        for f, (j, i, _, _) in enumerate(inst.iter_flows()):
            total = np.clip(np.diff(x[problem.layout.S[f]], prepend=0.0), 0.0, None).sum()
            splits = {
                eid: np.clip(x[cols], 0.0, None) / total
                for eid, cols in problem.layout.xe[f].items()
            }
            want = {eid: v for eid, v in splits.items() if np.any(v > 0)}
            assert list(got[j][i]) == list(want)
            for eid, v in want.items():
                assert got[j][i][eid].tobytes() == v.tobytes()

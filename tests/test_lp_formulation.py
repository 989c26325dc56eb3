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
from coflownet.lp import ColumnLayout
from coflownet.serialize import instance_from_dict


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
        # the full LP, not a prefix: a problem without a step map is solved whole
        sol = solve(replace(problem, step_map=None))
        used = max(int(np.flatnonzero(sol.x[cols] > 1e-9)[-1]) + 1 for cols in problem.layout.x)
        assert horizon_lower_bound(inst) <= used <= horizon


def test_free_path_lp_one_slot_below_the_lower_bound_is_infeasible():
    rng = np.random.default_rng(919)
    checked = 0
    for _ in range(40):
        inst = fuzz_instance(rng, RoutingModel.FREE_PATH)
        bound = horizon_lower_bound(inst)
        if bound - 1 > inst.max_release:
            problem = build_time_indexed_lp(inst, bound - 1)
            assert solve(replace(problem, step_map=None)).status is SolveStatus.INFEASIBLE
            checked += 1
    assert checked >= 10


def _step_of(name: str) -> int:
    """The step a column or row name carries (0 for C, dem and fin)."""
    parts = name.split("_")
    position = {"X": 2, "x": 3, "S": 3, "xe": 3, "cum": 3, "src": 3, "snk": 3, "bal": 3}
    if parts[0] in ("C", "dem", "fin"):
        return 0
    return int(parts[-1] if parts[0] == "cap" else parts[position[parts[0]]])


@pytest.mark.parametrize("model", list(RoutingModel))
def test_step_map_matches_the_names(model):
    inst = fuzz_instance(np.random.default_rng(5), model)
    for problem in (
        build_time_indexed_lp(inst, horizon_upper_bound(inst)),
        build_interval_lp(inst, interval_grid_for(inst, 0.5)),
    ):
        m = problem.step_map
        assert m.col_step.tolist() == [_step_of(n) for n in problem.col_names]
        assert m.row_step.tolist() == [_step_of(n) for n in problem.row_names]
        after = [float(n.split("_")[0] in ("X", "S")) for n in problem.col_names]
        assert m.col_after.tolist() == after
        dems = {
            problem.row_names[r]: problem.row_names[d] for r, d in enumerate(m.row_dem) if d >= 0
        }
        defs = [n for n in problem.row_names if n.startswith("cum_") and n.endswith("_s")]
        assert dems == {name: "dem_{}_{}".format(*name.split("_")[1:3]) for name in defs}
        assert m.step_count == len(problem.layout.x[0])
        assert 1 <= m.first_prefix


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
    assert sol.x[problem.col_names.index("x_1_1_1")] == pytest.approx(1.0)


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
        assert sol.x[problem.col_names.index(f"x_1_1_{t}")] == pytest.approx(0.0, abs=1e-12)


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
        assert sol.x[problem.col_names.index(f"x_1_1_{t}")] == pytest.approx(0.0, abs=1e-12)


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
    assert "C_1" in p_single.col_names
    assert "X_4_3" in p_single.col_names
    assert "x_4_1_2" in p_single.col_names
    assert "S_4_1_2" in p_single.col_names
    assert "xe_4_1_2_s-v1" in p_free.col_names


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
    import coflownet.lp
    import coflownet.pipeline

    calls = []

    def counted(instance):
        calls.append(instance)
        return horizon_upper_bound(instance)

    monkeypatch.setattr(coflownet.lp, "horizon_upper_bound", counted)
    result = coflownet.pipeline.run_pipeline(demo_free, "interval-stretch", trials=2, epsilon=0.2)
    assert len(calls) == 1
    assert result.fractional.slot_count == math.ceil(interval_grid_for(demo_free, 0.2).horizon - 1e-9)


# ---------------------------------------------------------------------------
# cum rows: prefix formulation against the quadratic one


def quadratic_cum_reference(instance, problem):
    """``problem`` with its prefix columns ``S`` and ``cum`` rows replaced
    by the textbook rows ``X_j_t - sum_{l <= t} x_j_i_l <= 0``, one per
    (coflow, flow, step)."""
    keep = [k for k, name in enumerate(problem.col_names) if not name.startswith("S_")]
    new_index = np.full(problem.num_cols, -1)
    new_index[keep] = np.arange(len(keep))
    matrix = as_scipy(problem.A)
    rows = []
    for r, name in enumerate(problem.row_names):
        if name.startswith("cum_"):
            continue
        lo, hi = problem.row_lower[r], problem.row_upper[r]
        rel, rhs = ("=", lo) if lo == hi else ("<=", hi) if math.isinf(lo) else (">=", lo)
        row = matrix.getrow(r)
        rows.append((name, new_index[row.indices].tolist(), row.data.tolist(), rel, rhs))
    steps = problem.layout.x.shape[1]
    for f, (j, i, _, _) in enumerate(instance.iter_flows()):
        for t in range(1, steps + 1):
            progress = new_index[problem.col_names.index(f"X_{j + 1}_{t}")]
            cols = [progress] + new_index[problem.layout.x[f, :t]].tolist()
            rows.append((f"cum_{j + 1}_{i + 1}_{t}", cols, [1.0] + [-1.0] * t, "<=", 0.0))
    return from_rows(
        problem.objective[keep],
        problem.col_lower[keep],
        problem.col_upper[keep],
        [problem.col_names[k] for k in keep],
        rows,
    )


@pytest.mark.parametrize("model", list(RoutingModel))
def test_prefix_cum_rows_match_quadratic_reference(model):
    rng = np.random.default_rng(2027)
    for k in range(10):
        inst = fuzz_instance(rng, model)
        epsilon = (0.2, 0.5436)[k % 2]
        for problem in (
            build_time_indexed_lp(inst, horizon_upper_bound(inst)),
            build_interval_lp(inst, interval_grid_for(inst, epsilon)),
        ):
            got, want = solve(problem), solve(quadratic_cum_reference(inst, problem))
            assert got.status.value == want.status.value == "optimal"
            assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=0)


def _cum_nnz(problem):
    return sum(
        cols.size for name, cols in zip(problem.row_names, problem.row_cols)
        if name.startswith("cum_")
    )


def test_cum_nonzeros_grow_linearly_in_the_horizon(demo_single):
    horizon = 4 * horizon_upper_bound(demo_single)
    small = _cum_nnz(build_time_indexed_lp(demo_single, horizon))
    large = _cum_nnz(build_time_indexed_lp(demo_single, 2 * horizon))
    assert large <= 2 * small + demo_single.flow_count


# ---------------------------------------------------------------------------
# block assembly against a row-at-a-time reference


def reference_assembly(instance, lengths, allowed, completion_ub):
    """The relaxation written one column and one row at a time, in the
    documented order, and assembled by ``helpers.from_rows``."""
    steps = range(1, len(lengths) + 1)
    flows = list(instance.iter_flows())
    obj, upper, names, rows = [], [], [], []

    def col(name, cost=0.0, ub=1.0):
        names.append(name)
        obj.append(cost)
        upper.append(ub)
        return len(names) - 1

    def row(name, plus, minus, rel, rhs, vals=None):
        vals = vals or [1.0] * len(plus) + [-1.0] * len(minus)
        rows.append((name, plus + minus, vals, rel, rhs))

    C = [col(f"C_{j + 1}", cf.weight, completion_ub) for j, cf in enumerate(instance.coflows)]
    X = {(j, t): col(f"X_{j + 1}_{t}") for j in range(len(C)) for t in steps}
    tags = [f"{j + 1}_{i + 1}" for j, i, _, _ in flows]
    x = {
        (f, t): col(f"x_{tags[f]}_{t}", ub=float(allowed(fl, t)))
        for f, (_, _, _, fl) in enumerate(flows) for t in steps
    }
    S = {(f, t): col(f"S_{tags[f]}_{t}") for f in range(len(flows)) for t in steps}
    for f in range(len(flows)):
        row(f"dem_{tags[f]}", [x[f, t] for t in steps], [], "=", 1.0)
    for f, (j, _, _, _) in enumerate(flows):
        for t in steps:
            prev = [S[f, t - 1]] if t > 1 else []
            row(f"cum_{tags[f]}_{t}_s", [S[f, t]], [x[f, t]] + prev, "=", 0.0)
            row(f"cum_{tags[f]}_{t}", [X[j, t]], [S[f, t]], "<=", 0.0)
    for j in range(len(C)):
        cols = [C[j]] + [X[j, t] for t in steps]
        row(f"fin_{j + 1}", cols, [], ">=", 1.0 + math.fsum(lengths), [1.0] + list(lengths))
    users = {}  # edge id -> [(column per step, demand)]
    xe = None
    if instance.model is RoutingModel.SINGLE_PATH:
        for f, (_, _, _, fl) in enumerate(flows):
            for eid in fl.path:
                users.setdefault(eid, []).append(([x[f, t] for t in steps], fl.demand))
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
                users.setdefault(e.id, []).append(([cols[t, e.id] for t in steps], fl.demand))
            nodes = {e.src for e in edges} | {e.dst for e in edges}
            for t in steps:
                def on(keep):
                    return [cols[t, e.id] for e in edges if keep(e)]

                row(f"src_{tags[f]}_{t}", on(lambda e: e.src == fl.src), [x[f, t]], "=", 0.0)
                row(f"snk_{tags[f]}_{t}", on(lambda e: e.dst == fl.dst), [x[f, t]], "=", 0.0)
                for v in sorted(nodes - {fl.src, fl.dst}):
                    ins, outs = on(lambda e: e.dst == v), on(lambda e: e.src == v)
                    row(f"bal_{tags[f]}_{t}_{v}", ins, outs, "=", 0.0)
        xe = tuple(xe)
    for e in instance.network.edges:
        for t in steps if e.id in users else ():
            cols = [c[t - 1] for c, _ in users[e.id]]
            rhs = lengths[t - 1] * e.cap
            row(f"cap_{e.id}_{t}", cols, [], "<=", rhs, [d for _, d in users[e.id]])
    layout = ColumnLayout(
        completion=np.array(C),
        x=np.array([[x[f, t] for t in steps] for f in range(len(flows))]),
        xe=xe,
    )
    return from_rows(obj, [0.0] * len(names), upper, names, rows, layout=layout)


def assert_same_problem(got, want):
    """Bit for bit: names, bounds, objective, CSR arrays and layout. The
    builder's names are built here, on first read."""
    assert "col_names" not in vars(got) and "row_names" not in vars(got)
    assert got.col_names == want.col_names
    assert got.row_names == want.row_names
    pairs = [
        (getattr(got, k), getattr(want, k))
        for k in ("objective", "col_lower", "col_upper", "row_lower", "row_upper")
    ]
    pairs += [(getattr(got.A, k), getattr(want.A, k)) for k in ("indptr", "indices", "data")]
    pairs += [(got.layout.completion, want.layout.completion), (got.layout.x, want.layout.x)]
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
        slot = reference_assembly(
            inst, [1.0] * horizon, lambda fl, t: t > fl.release, horizon + 1.0
        )
        assert_same_problem(build_time_indexed_lp(inst, horizon), slot)
        grid = interval_grid_for(inst, (0.2, 0.5436)[k % 2])
        interval = reference_assembly(
            inst,
            list(grid.lengths),
            lambda fl, t: grid.boundaries[t - 1] >= fl.release - 1e-9,
            grid.horizon + 1.0,
        )
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
def test_pipeline_finds_each_flows_usable_edges_once(demo_free, monkeypatch, strategy):
    calls = []

    def counted(network, src, dst):
        calls.append((src, dst))
        return usable_edges(network, src, dst)

    monkeypatch.setattr(coflownet.lp, "usable_edges", counted)
    coflownet.pipeline.run_pipeline(demo_free, strategy=strategy, trials=2)
    assert len(calls) == demo_free.flow_count


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
            total = np.clip(x[problem.layout.x[f]], 0.0, None).sum()
            splits = {
                eid: np.clip(x[cols], 0.0, None) / total
                for eid, cols in problem.layout.xe[f].items()
            }
            want = {eid: v for eid, v in splits.items() if np.any(v > 0)}
            assert list(got[j][i]) == list(want)
            for eid, v in want.items():
                assert got[j][i][eid].tobytes() == v.tobytes()

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize._highspy._core import (
    HighsModelStatus,
    HighsStatus,
    MatrixFormat,
    ObjSense,
    _Highs,
)

from conftest import fuzz_instance
from helpers import as_scipy, from_rows, load_mps, permuted_rows

from coflownet import (
    Coflow,
    Edge,
    Flow,
    Instance,
    Network,
    RoutingModel,
    SolveOptions,
    SolveStatus,
    build_interval_lp,
    build_time_indexed_lp,
    horizon_lower_bound,
    horizon_upper_bound,
    interval_grid_for,
    random_shop,
    reduce_open_shop,
    run_pipeline,
    solve,
    verify_schedule,
)
import coflownet.solver
from coflownet.csr import CSR
from coflownet.lp import _assemble, _first_prefix
from coflownet.generate import GenConfig, demo_instance, generate_instance
from coflownet.solver import (
    PREFIX_GROWTH,
    LPSolution,
    _bound_and_reduced_costs,
    _priced_bound,
    _solve_whole,
    _time_axis,
    check_solution,
    save_mps,
)


def problem(objective, rows, lower=None, upper=None, names=None):
    n = len(objective)
    return from_rows(
        objective,
        lower if lower is not None else [0.0] * n,
        upper if upper is not None else [math.inf] * n,
        names if names is not None else [f"v{k}" for k in range(n)],
        [(f"r{k}", *row) for k, row in enumerate(rows)],
    )


@pytest.fixture(params=["highs", "mps"])
def solve_as(request, tmp_path):
    """HiGHS on a problem in memory, and on the problem ``save_mps`` writes,
    read back: the exported file holds the same LP."""
    if request.param == "highs":
        return solve

    def through_file(p):
        save_mps(p, tmp_path / "p.mps")
        return solve(load_mps(tmp_path / "p.mps"))

    return through_file


def test_minimize_with_lower_bound_row(solve_as):
    p = problem([1.0], [([0], [1.0], ">=", 3.0)])
    sol = solve_as(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_objective_is_the_contract_not_the_vertex(solve_as):
    p = problem(
        [1.0, 1.0],
        [([0, 1], [1.0, 1.0], ">=", 2.0)],
        upper=[0.5, math.inf],
    )
    sol = solve_as(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_infeasible_reported_as_status(solve_as):
    p = problem([1.0], [([0], [1.0], ">=", 2.0)], upper=[1.0])
    sol = solve_as(p)
    assert sol.status is SolveStatus.INFEASIBLE


def test_unbounded_reported_as_status(solve_as):
    p = problem([-1.0], [([0], [1.0], ">=", 0.0)])
    sol = solve_as(p)
    assert sol.status is SolveStatus.UNBOUNDED


def test_equality_and_mixed_rows(solve_as):
    # min 2x + y  s.t.  x + y = 1, x - y <= 0.2, y <= 0.8
    p = problem(
        [2.0, 1.0],
        [
            ([0, 1], [1.0, 1.0], "=", 1.0),
            ([0, 1], [1.0, -1.0], "<=", 0.2),
        ],
        upper=[math.inf, 0.8],
    )
    sol = solve_as(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.2, abs=1e-9)
    assert sol.x[0] == pytest.approx(0.2, abs=1e-9)


def test_iteration_limit_reported_as_status(monkeypatch, solved_free):
    # HiGHS stops without a primal point when the limit cuts it short
    p, _, _ = solved_free
    monkeypatch.setattr(coflownet.solver, "ITERATION_LIMIT", 1)
    sol = solve(p)
    assert sol.status is SolveStatus.ITERATION_LIMIT
    assert sol.x is None or sol.x.shape == (p.num_cols,)


def test_numerical_failure_reported_as_status(monkeypatch):
    p = problem([1.0], [([0], [1.0], ">=", 3.0)])

    class Failing(_Highs):
        def getModelStatus(self):
            return HighsModelStatus.kSolveError

    monkeypatch.setattr(coflownet.solver, "_Highs", Failing)
    sol = solve(p)
    assert sol.status is SolveStatus.NUMERICAL
    assert sol.x is None


@pytest.mark.parametrize(
    "option", ["output_flag", "simplex_iteration_limit", "ipm_iteration_limit", "presolve"]
)
def test_refused_highs_option_raises(monkeypatch, option):
    # HiGHS keeps the old value of an option it refuses, so a renamed
    # option would otherwise go unnoticed
    class Refusing(_Highs):
        def setOptionValue(self, name, value):
            return super().setOptionValue(name, "no such value" if name == option else value)

    monkeypatch.setattr(coflownet.solver, "_Highs", Refusing)
    with pytest.raises(coflownet.solver.SolverError, match=f"HiGHS refused option {option}="):
        solve(problem([1.0], [([0], [1.0], ">=", 3.0)]))


def test_scipy_ships_the_highs_binding_the_solver_uses():
    # private to scipy: the names the solver imports (above), and the members
    # it uses; ``_direct`` below calls the row-form ``passModel``, ``save_mps``
    # has HiGHS write the LP, and the tests' ``load_mps`` reads it back
    assert {"kOptimal", "kInfeasible", "kUnbounded", "kIterationLimit"} <= set(
        HighsModelStatus.__members__
    )
    assert "kRowwise" in MatrixFormat.__members__ and "kMinimize" in ObjSense.__members__
    assert "kError" in HighsStatus.__members__
    for member in (
        "passModel", "passColName", "passRowName", "writeModel", "readModel", "ensureRowwise", "getLp",
    ):
        assert callable(getattr(_Highs, member)), member


def _direct(p):
    """The status of ``p`` handed to HiGHS as it is, with no prefix or pinning."""
    status, _, x, duals = coflownet.solver._highs(
        p.objective, p.A, p.row_lower, p.row_upper, p.col_lower, p.col_upper,
    )
    assert (x is None) == (duals is None) == (status is not SolveStatus.OPTIMAL)
    return status


def test_highs_model_statuses_map_to_solve_statuses(monkeypatch, solved_free):
    infeasible = problem([1.0], [([0], [1.0], ">=", 2.0)], upper=[1.0])
    unbounded = problem([-1.0, 0.0], [([0, 1], [1.0, -1.0], "<=", 1.0)])
    assert _direct(infeasible) is SolveStatus.INFEASIBLE
    assert _direct(unbounded) is SolveStatus.UNBOUNDED
    assert _direct(solved_free[0]) is SolveStatus.OPTIMAL
    inst = _free_corpus(0)
    corpus = build_time_indexed_lp(inst, horizon_upper_bound(inst))
    monkeypatch.setattr(coflownet.solver, "ITERATION_LIMIT", 1)
    assert _direct(corpus) is SolveStatus.ITERATION_LIMIT


def test_highs_deterministic(solved_free):
    p, _, _ = solved_free
    a = solve(p)
    b = solve(p)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective


def test_row_permutation_invariance(solve_as, solved_free, rng):
    p, base, _ = solved_free
    for _ in range(3):
        perm = rng.permutation(p.num_rows)
        sol = solve_as(permuted_rows(p, perm))
        assert sol.objective == pytest.approx(base.objective, abs=1e-9)


@pytest.mark.parametrize("name", ["builtin", "glpk", "mps:"])
def test_unknown_backend_lists_accepted_values(name):
    # HiGHS in memory is the one backend: the former MPS read-back
    # (``mps:<path>``) is refused too, rather than solved in memory
    with pytest.raises(ValueError, match=r"expected highs\)$"):
        SolveOptions(backend=name)
    with pytest.raises(ValueError, match="expected highs"):
        SolveOptions(backend="mps:x.mps")


def test_check_solution_catches_corruption(solved_single):
    p, sol, _ = solved_single
    assert check_solution(p, sol) == []
    bad = sol.x.copy()
    bad[p.col_names.index("X_1_1")] += 0.5
    failures = check_solution(p, LPSolution(sol.status, sol.objective, bad))
    assert failures
    assert check_solution(p, LPSolution(sol.status, math.nan, sol.x))


def test_from_rows_rejects_duplicate_names(tmp_path):
    with pytest.raises(ValueError, match="column names are not unique"):
        problem([1.0, 1.0], [([0, 1], [1.0, 1.0], ">=", 1.0)], names=["v", "v"])
    with pytest.raises(ValueError, match="row names are not unique"):
        from_rows([1.0], [0.0], [1.0], ["v"], [("r", [0], [1.0], ">=", 0.5)] * 2)
    # an MPS file that names a row twice, and one that starts column v0 twice
    path = tmp_path / "p.mps"
    save_mps(problem([1.0, 2.0], [([0, 1], [1.0, 1.0], ">=", 0.5)]), path)
    lines = path.read_text().splitlines(keepends=True)
    row = next(k for k, line in enumerate(lines) if line.split() == ["G", "r0"])
    twice = tmp_path / "rows.mps"
    twice.write_text("".join(lines[: row + 1] + lines[row:]))
    with pytest.raises(ValueError, match="row names are not unique"):
        load_mps(twice)
    v0 = next(line for line in lines if line.split()[:2] == ["v0", "r0"])
    twice.write_text("".join(lines).replace("ENDATA", "").replace("RHS\n", v0 + "RHS\n") + "ENDATA\n")
    with pytest.raises(ValueError, match="column names are not unique"):
        load_mps(twice)


def test_arrays_that_do_not_match_the_matrix_or_hold_nan_are_refused():
    with pytest.raises(ValueError, match="objective and column bounds must have 1 entries"):
        from_rows([1.0, 2.0], [0.0], [1.0], ["v"], [("r", [0], [1.0], ">=", 0.5)])
    p = problem([1.0], [([0], [1.0], ">=", 0.5)])
    with pytest.raises(ValueError, match="row bounds must have 1 entries"):
        replace(p, row_lower=np.zeros(2))
    with pytest.raises(ValueError, match="must not be NaN"):
        problem([1.0], [([0], [1.0], ">=", math.nan)])
    with pytest.raises(ValueError, match="must not be NaN"):
        problem([math.nan], [([0], [1.0], ">=", 0.5)])
    with pytest.raises(ValueError, match="objective coefficients must be finite"):
        problem([-math.inf], [([0], [1.0], ">=", 0.5)])


def test_row_cols_view_matches_matrix(solved_free, tmp_path):
    p, _, _ = solved_free
    assert len(p.row_cols) == p.num_rows
    assert sum(cols.size for cols in p.row_cols) == p.A.nnz
    first = as_scipy(p.A).getrow(0).indices
    np.testing.assert_array_equal(p.row_cols[0], first)
    assert not p.row_cols[0].flags.writeable
    save_mps(problem([1.0, 2.0], []), tmp_path / "empty.mps")
    empty = load_mps(tmp_path / "empty.mps")
    assert empty.num_rows == 0 and empty.row_cols == ()


# ---------------------------------------------------------------------------
# MPS export round trip


def _assert_close(got, want, rtol=1e-13):
    """``|got - want| / max(1, |want|) <= rtol`` on the finite entries of
    ``want``; infinite entries must match exactly."""
    finite = np.isfinite(want)
    np.testing.assert_array_equal(got[~finite], want[~finite])
    error = np.abs(got[finite] - want[finite]) / np.maximum(1.0, np.abs(want[finite]))
    assert error.max(initial=0.0) <= rtol


def test_mps_round_trip_preserves_problem(solved_free, tmp_path):
    # the slot LP of the free-path demo, and a free-path interval LP: its
    # geometric lengths are not short decimals, and its names are longer
    # than fixed-layout MPS allows
    interval_instance = generate_instance(GenConfig(
        topology="gscale-like", model=RoutingModel.FREE_PATH, jobs=3, release_mean=1.0, seed=0
    ))
    interval = build_interval_lp(interval_instance, interval_grid_for(interval_instance, 0.2))
    assert max(map(len, interval.col_names)) > 8
    for p in (solved_free[0], interval):
        save_mps(p, tmp_path / "p.mps")
        back = load_mps(tmp_path / "p.mps")
        assert back.col_names == p.col_names
        assert back.row_names == p.row_names
        got, want = as_scipy(back.A).sorted_indices(), as_scipy(p.A).sorted_indices()
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        _assert_close(got.data, want.data)
        for name in ("objective", "col_lower", "col_upper", "row_lower", "row_upper"):
            _assert_close(getattr(back, name), getattr(p, name))
        assert p.offset > 0
        _assert_close(np.array([back.offset]), np.array([p.offset]))


def test_mps_backend_matches_in_memory_highs(demo_free, tmp_path):
    # dual route: builder + in-memory HiGHS vs exported MPS + HiGHS
    p = build_time_indexed_lp(demo_free, horizon_upper_bound(demo_free))
    in_memory = solve(p)
    save_mps(p, tmp_path / "golden.mps")
    external = solve(load_mps(tmp_path / "golden.mps"))
    assert external.status is SolveStatus.OPTIMAL
    assert external.objective <= 5.0 + 1e-6
    assert in_memory.objective == pytest.approx(external.objective, abs=1e-6)



def test_fixed_column_is_substituted_into_the_rows():
    # x2 fixed at 1.5: min x0 + 2 x1 + 4.5 with x0 + x1 >= 2.5, x0 <= 3.5;
    # the last row only holds x2 and is dropped with dual 0
    rows = [([0, 1, 2], [1.0, 1.0, 1.0], ">=", 4.0), ([0, 2], [1.0, -1.0], "<=", 2.0),
            ([2], [1.0], "<=", 2.0)]
    fixed = problem([1.0, 2.0, 3.0], rows, upper=[math.inf, math.inf, 1.5], lower=[0.0, 0.0, 1.5])
    substituted = problem([1.0, 2.0], [([0, 1], [1.0, 1.0], ">=", 2.5), ([0], [1.0], "<=", 3.5)])
    got, want = solve(fixed), solve(substituted)
    assert got.objective == want.objective + 4.5
    assert got.x.tolist() == [*want.x, 1.5]
    _, _, _, duals = _raw_linprog(fixed)
    _, _, _, want_duals = _raw_linprog(substituted)
    assert duals.tolist() == [*want_duals, 0.0]


def _raw_linprog(p):
    return coflownet.solver._linprog(
        p.objective, p.A, p.row_lower, p.row_upper, p.col_lower, p.col_upper
    )


def _no_highs(monkeypatch):
    def called(*args, **kwargs):
        raise AssertionError("HiGHS was called")

    monkeypatch.setattr(coflownet.solver, "_Highs", called)


def test_emptied_row_that_excludes_the_fixed_activity_is_infeasible(monkeypatch):
    # x1 fixed at 1 leaves the second row 1 >= 2 with no free column
    p = problem([1.0, 1.0], [([0, 1], [1.0, 1.0], ">=", 1.0), ([1], [1.0], ">=", 2.0)],
                lower=[0.0, 1.0], upper=[math.inf, 1.0])
    _no_highs(monkeypatch)
    assert solve(p).status is SolveStatus.INFEASIBLE


def test_all_fixed_problem_is_solved_without_highs(monkeypatch):
    p = problem([2.0, -1.0], [([0, 1], [1.0, 1.0], "=", 3.0), ([0], [1.0], "<=", 4.0)],
                lower=[1.0, 2.0], upper=[1.0, 2.0])
    _no_highs(monkeypatch)
    got = solve(p)
    assert got.status is SolveStatus.OPTIMAL
    assert got.objective == 0.0
    assert got.x.tolist() == [1.0, 2.0]


# ---------------------------------------------------------------------------
# certified prefix solve


@pytest.mark.parametrize("model", list(RoutingModel))
def test_prefix_solve_matches_full_solve(model):
    rng = np.random.default_rng(808)
    prefixes = 0
    for _ in range(12):
        inst = fuzz_instance(rng, model)
        slot = build_time_indexed_lp(inst, horizon_upper_bound(inst))
        interval = build_interval_lp(inst, interval_grid_for(inst, 0.5))
        for p in (slot, interval):
            got, want = solve(p), _solve_whole(p)
            assert want.steps == p.layout.S.shape[1]
            assert got.status is want.status is SolveStatus.OPTIMAL
            assert got.objective == pytest.approx(want.objective, rel=1e-9)
            assert check_solution(p, got) == []
            assert 1 <= got.steps <= want.steps
            prefixes += got.steps < want.steps
    assert prefixes > 0


def _rungs(p):
    prefix, out = _first_prefix(*p.relaxation), []
    while prefix < p.layout.S.shape[1]:
        out.append(prefix)
        prefix = max(prefix + 1, math.ceil(prefix * PREFIX_GROWTH))
    return out


def _count_linprog(monkeypatch):
    """Record (columns, status) of every HiGHS call the solver makes."""
    calls = []
    inner = coflownet.solver._linprog

    def counted(objective, *args):
        out = inner(objective, *args)
        calls.append((len(objective), out[0]))
        return out

    monkeypatch.setattr(coflownet.solver, "_linprog", counted)
    return calls


def _highs_calls(monkeypatch):
    """Record the arrays of every problem HiGHS gets: objective, matrix,
    row bounds and column bounds."""
    calls = []
    inner = coflownet.solver._highs

    def spy(*args):
        calls.append(args[:6])
        return inner(*args)

    monkeypatch.setattr(coflownet.solver, "_highs", spy)
    return calls


@pytest.mark.parametrize("model", list(RoutingModel))
def test_uncertified_prefixes_fall_back_to_the_full_solve(monkeypatch, model):
    inst = demo_instance(model)
    p = build_time_indexed_lp(inst, horizon_upper_bound(inst))
    want = _solve_whole(p)
    # a bound that certifies nothing
    monkeypatch.setattr(coflownet.solver, "_priced_bound", lambda rung, y: -math.inf)
    calls = _highs_calls(monkeypatch)
    got = solve(p)
    rungs = _rungs(p)
    assert rungs
    free = p.col_lower < p.col_upper
    col_step, _ = _time_axis(p)
    # a rung also pins each flow's S at its last step
    assert [len(objective) for objective, *_ in calls] == [
        *(
            np.count_nonzero(free & (col_step <= prefix))
            - np.count_nonzero(free[p.layout.S[:, prefix - 1]])
            for prefix in rungs
        ),
        np.count_nonzero(free),
    ]
    assert got.steps == p.layout.S.shape[1]
    assert got.objective == want.objective


def _presolve_settings(monkeypatch):
    """Record the ``presolve`` option of every HiGHS run."""
    settings = []

    class Spy(_Highs):
        def run(self):
            settings.append(self.getOptionValue("presolve")[1])
            return super().run()

    monkeypatch.setattr(coflownet.solver, "_Highs", Spy)
    return settings


class _Presolving(_Highs):
    """HiGHS with its presolve on, whatever the solver asks for."""

    def setOptionValue(self, name, value):
        return super().setOptionValue(name, "on" if name == "presolve" else value)


def _presolved(p):
    """``p``'s optimum from HiGHS with presolve on, its offset added."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coflownet.solver, "_Highs", _Presolving)
        status, objective, _, _ = coflownet.solver._highs(
            p.objective, p.A, p.row_lower, p.row_upper, p.col_lower, p.col_upper
        )
    assert status is SolveStatus.OPTIMAL
    return objective + p.offset


@pytest.mark.parametrize("model", list(RoutingModel))
def test_every_lp_goes_to_highs_with_presolve_off(monkeypatch, model):
    # every prefix rung and the whole-problem fallback, of both relaxations
    monkeypatch.setattr(coflownet.solver, "_priced_bound", lambda rung, y: -math.inf)
    settings = _presolve_settings(monkeypatch)
    inst = demo_instance(model)
    for p in (
        build_time_indexed_lp(inst, horizon_upper_bound(inst)),
        build_interval_lp(inst, interval_grid_for(inst, 0.5)),
    ):
        settings.clear()
        got = solve(p)
        assert got.status is SolveStatus.OPTIMAL
        assert settings == ["off"] * (len(_rungs(p)) + 1)
        assert got.objective == pytest.approx(_presolved(p), rel=1e-9)
    # open-shop reductions are single-path LPs
    settings.clear()
    shop = random_shop(np.random.default_rng(3), max_jobs=4, max_machines=3, max_time=5)
    reduced = reduce_open_shop(shop)
    p = build_time_indexed_lp(reduced, horizon_upper_bound(reduced))
    assert solve(p).objective == pytest.approx(_presolved(p), rel=1e-9)
    assert settings and set(settings) == {"off"}


def test_free_path_lps_without_presolve_match_presolved_highs():
    checked = 0
    for seed in (606, 919):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            inst = fuzz_instance(rng, RoutingModel.FREE_PATH)
            for p in (
                build_time_indexed_lp(inst, horizon_upper_bound(inst)),
                build_interval_lp(inst, interval_grid_for(inst, 0.5)),
            ):
                got = solve(p)
                assert got.status is SolveStatus.OPTIMAL
                assert got.objective == pytest.approx(_presolved(p), rel=1e-9)
                checked += 1
            for strategy in ("stretch", "interval-stretch"):
                result = run_pipeline(inst, strategy, trials=3, seed=0)
                assert verify_schedule(result.schedule, inst) == []
    assert checked == 24


def _row_steps(p):
    """Each row's step: the latest step of its columns."""
    col_step, _ = _time_axis(p)
    return np.maximum.reduceat(col_step[p.A.indices], p.A.indptr[:-1])


def reference_prefix_arrays(p, prefix):
    """The arrays a prefix rung of the whole relaxation ``p`` hands
    ``_linprog``, sliced from ``p``, before pinned columns go through its
    substitution: the prefix's rows (:func:`_row_steps`) and columns,
    without each flow's ``S`` at step ``prefix``, which is pinned at 1; the
    row bounds shifted by the pinned and later columns' values; and the
    objective constant, the offset plus the later columns' terms
    (``math.fsum``). ``scipy.sparse`` slices and multiplies the matrix."""
    col_step, after = _time_axis(p)
    row_step = _row_steps(p)
    kept = col_step <= prefix
    kept[p.layout.S[:, prefix - 1]] = False
    cols = np.flatnonzero(kept)
    rows = np.flatnonzero(row_step <= prefix)
    tail = np.where(kept, 0.0, after)
    head = as_scipy(p.A)[rows]
    shift = head @ tail
    sliced = head[:, cols]
    terms = p.objective * tail
    return (
        p.objective[cols], CSR(sliced.indptr, sliced.indices, sliced.data, sliced.shape),
        p.row_lower[rows] - shift, p.row_upper[rows] - shift, p.col_lower[cols], p.col_upper[cols],
        math.fsum([p.offset, *terms[terms != 0.0]]),
    )


def _linprog_objectives(monkeypatch):
    """Record the objective of every ``_linprog`` call."""
    objectives = []
    inner = coflownet.solver._linprog

    def spy(*args):
        out = inner(*args)
        objectives.append(out[1])
        return out

    monkeypatch.setattr(coflownet.solver, "_linprog", spy)
    return objectives


def _bits(array):
    """dtype, shape and bytes of a dense array, or of a CSR matrix's parts."""
    if isinstance(array, CSR):
        return [array.shape, *map(_bits, (array.indptr, array.indices, array.data))]
    return [array.dtype, array.shape, array.tobytes()]


def _rung_instances(workloads, model=None):
    """Fuzz instances with releases on both routing models (or on
    ``model``), then instance 0 of each of the benchmark's seed-1 corpora."""
    out = []
    for m in [model] if model else list(RoutingModel):
        rng = np.random.default_rng(606)
        out += [fuzz_instance(rng, m) for _ in range(6)]
    assert any(fl.release for inst in out for _, _, _, fl in inst.iter_flows())
    out += [w.make(0).instance for w in workloads.WORKLOADS.values()]
    return out


def _both_relaxations(inst):
    """The slot LP over the horizon bound and the interval LP at eps 0.2,
    built whole, with their step boundaries."""
    horizon = horizon_upper_bound(inst)
    grid = interval_grid_for(inst, 0.2)
    return [
        (build_time_indexed_lp(inst, horizon), np.arange(horizon + 1.0)),
        (build_interval_lp(inst, grid), np.asarray(grid.boundaries)),
    ]


def test_built_rungs_hand_highs_the_sliced_reference_arrays(monkeypatch, workloads):
    handed = []

    def spy(*args):
        handed.append(args)  # what HiGHS would get, without solving it
        rows, cols = args[1].shape
        return SolveStatus.OPTIMAL, 0.0, np.zeros(cols), np.zeros(rows)

    monkeypatch.setattr(coflownet.solver, "_highs", spy)
    # with HiGHS's objective at 0, each is the objective constant alone
    constants = _linprog_objectives(monkeypatch)
    rungs = 0
    for inst in _rung_instances(workloads):
        for p, boundaries in _both_relaxations(inst):
            for prefix in _rungs(p):
                handed.clear()
                coflownet.solver._solve_rung(_assemble(inst, boundaries, prefix))
                got = list(handed)
                handed.clear()
                coflownet.solver._linprog(*reference_prefix_arrays(p, prefix))
                assert len(got) == len(handed) == 1
                assert list(map(_bits, got[0])) == list(map(_bits, handed[0]))
                assert constants[-2].hex() == constants[-1].hex()
                rungs += 1
    assert rungs >= 40


def _same_fractional(got, want):
    assert got.slot_count == want.slot_count
    assert got.lp_completion == want.lp_completion
    assert list(map(_bits, got.cumulative)) == list(map(_bits, want.cumulative))
    for a, b in zip(got.fractions, want.fractions):
        assert list(map(_bits, a)) == list(map(_bits, b))
    if want.edge_fractions is None:
        assert got.edge_fractions is None
        return
    for a, b in zip(
        (d for flows in got.edge_fractions for d in flows),
        (d for flows in want.edge_fractions for d in flows),
    ):
        assert list(a) == list(b)
        assert all(_bits(a[e]) == _bits(b[e]) for e in a)


def test_run_pipeline_is_bitwise_the_whole_relaxation_solved_and_rounded(workloads):
    from coflownet import as_fractional, extract_fractional, extract_interval_solution, run_stretch
    from coflownet.rounding import expand_interval_schedule

    for inst in _rung_instances(workloads):
        (slot, _), (interval, _) = _both_relaxations(inst)
        for strategy, p in [("stretch", slot), ("interval-stretch", interval)]:
            got = run_pipeline(inst, strategy, trials=5, seed=3, epsilon=0.2)
            solution = solve(p)
            if strategy == "stretch":
                want = extract_fractional(p, solution.x, inst, got.horizon_bound)
            else:
                grid = interval_grid_for(inst, 0.2)
                expanded = expand_interval_schedule(
                    extract_interval_solution(p, solution.x, inst, grid), inst
                )
                want = as_fractional(expanded, inst)
            best = run_stretch(inst, want, trials=5, seed=3).best
            assert (got.lp_objective, got.lp_steps) == (solution.objective, solution.steps)
            _same_fractional(got.fractional, want)
            assert got.report == best.report
            assert got.best_lambda == (None if best.lam is None else best.lam.value)


@pytest.mark.parametrize("model", list(RoutingModel))
def test_closed_form_pricing_is_the_whole_relaxations_dual_bound(monkeypatch, workloads, model):
    # every rung the ladder tries, certified or not, on slot and interval boundaries
    priced = []
    inner = coflownet.solver._priced_bound

    def spy(rung, y):
        priced.append((rung.layout.S.shape[1], y))
        return inner(rung, y)

    monkeypatch.setattr(coflownet.solver, "_priced_bound", spy)
    rng = np.random.default_rng(5)
    rungs = above = uncertified = 0
    # with an instance whose first rung is optimal but not certified
    blocked = _blocked_instance() if model is RoutingModel.SINGLE_PATH else _free_corpus(8)
    for inst in [*_rung_instances(workloads, model), blocked]:
        for p, boundaries in _both_relaxations(inst):
            priced.clear()
            problem, solution = coflownet.solver.solve_relaxation(inst, boundaries)
            uncertified += len(priced) - (problem.layout.S.shape[1] < p.layout.S.shape[1])
            row_step = _row_steps(p)
            for prefix, y in priced:
                rung = _assemble(inst, boundaries, prefix)
                rows = np.flatnonzero(row_step <= prefix)
                # an identity for any duals: HiGHS's, and random ones, under
                # which some last S of the rung also has a positive reduced cost
                for duals in (y, rng.normal(0.0, np.abs(y).max(initial=1.0), len(y))):
                    padded = np.zeros(p.num_rows)
                    padded[rows] = duals
                    want = _bound_and_reduced_costs(p, padded)[0]
                    got = inner(rung, duals)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
                    own = _bound_and_reduced_costs(rung, duals)[0]
                    above += not math.isclose(got, own, rel_tol=1e-9)
                rungs += 1
    assert rungs >= 10 and above >= 5 and uncertified >= 1


def _blocked_instance():
    """Slot 5 fits everything (e1 and e2 each carry 5 slots of demand), but
    only with the light flow on e1 and e2 in slot 1: H2 (released at 1)
    needs e2 in slots 2-5, so the heavy H1 sends until slot 5. Letting
    the light flow go in slot 6 lets H1 finish in slot 4."""
    net = Network(("a", "b", "c"), (Edge("e1", "a", "b", 1.0), Edge("e2", "b", "c", 1.0)))
    return Instance(
        net,
        (
            Coflow((Flow("a", "b", 4.0, 0, ("e1",)),), 100.0),
            Coflow((Flow("b", "c", 4.0, 1, ("e2",)),), 1.0),
            Coflow((Flow("a", "c", 1.0, 0, ("e1", "e2")),), 1.0),
        ),
        RoutingModel.SINGLE_PATH,
    )


def test_a_positive_reduced_cost_of_a_last_s_blocks_the_certificate(monkeypatch):
    inst = _blocked_instance()
    boundaries = np.arange(horizon_upper_bound(inst) + 1.0)
    rung = _assemble(inst, boundaries, 5)
    assert _first_prefix(inst, boundaries) == 5
    status, objective, x, y = coflownet.solver._linprog(
        rung.objective, rung.A, rung.row_lower, rung.row_upper,
        rung.col_lower, rung.col_upper, rung.offset,
    )
    assert status is SolveStatus.OPTIMAL
    d = rung.objective - y @ rung.A
    assert d[rung.layout.S[2, -1]] > 1.0  # the light flow's S_5: pinned at 1, worth lowering
    assert _priced_bound(rung, y) < objective - 1.0
    # H1 sends in slot 5, so the rung is binding: the ladder tries 6 next, not ceil(1.25 * 5)
    assert x[rung.layout.S[0, 3]] < 1.0 - 1e-6
    tried = []
    inner = coflownet.solver._solve_rung

    def spy(rung):
        tried.append(rung.layout.S.shape[1])
        return inner(rung)

    monkeypatch.setattr(coflownet.solver, "_solve_rung", spy)
    problem, solution = coflownet.solver.solve_relaxation(inst, boundaries)
    assert tried == [5, 6]
    assert solution.steps == problem.layout.S.shape[1] == 6
    assert solution.objective < objective - 1.0
    whole = build_time_indexed_lp(inst, horizon_upper_bound(inst))
    assert solution.objective == pytest.approx(_solve_whole(whole).objective, rel=1e-9)


def test_a_rung_point_short_of_a_whole_flow_fails_its_column_bound():
    # each flow's last S of the rung is pinned at 1, so the later rows hold
    # at the later columns' after-values, and check_solution sees a shortfall
    inst = generate_instance(GenConfig(topology="gscale-like", jobs=40, seed=0))
    boundaries = np.arange(horizon_upper_bound(inst) + 1.0)
    rung = _assemble(inst, boundaries, 15)
    status, solution, _ = coflownet.solver._solve_rung(rung)
    assert status is SolveStatus.OPTIMAL and solution is not None
    last = rung.layout.S[:, -1]
    assert len(last) == inst.flow_count and (solution.x[last] == 1.0).all()
    x = solution.x.copy()
    x[last[3]] = 1.0 - 1e-6
    name = rung.col_names[last[3]]
    assert name.endswith("_15")
    failures = check_solution(rung, replace(solution, x=x))
    assert failures[0] == f"column {name} below lower bound by 1.000e-06"


def test_run_pipeline_builds_no_step_it_does_not_solve(monkeypatch, workloads):
    built = []
    inner = coflownet.solver._assemble

    def counted(instance, boundaries, steps=None):
        built.append(len(boundaries) - 1 if steps is None else steps)
        return inner(instance, boundaries, steps)

    monkeypatch.setattr(coflownet.solver, "_assemble", counted)
    calls = 0
    for workload in workloads.WORKLOADS.values():
        for item in workloads.requests(workload, 1):
            for call in workload.calls:
                built.clear()
                result = run_pipeline(item.instance, call.strategy, trials=1, epsilon=call.epsilon)
                assert built and max(built) <= result.lp_steps
                calls += 1
    assert calls == 12 + 24 + 50


def test_run_pipeline_reproduces_the_benchmark_reference_objectives(workloads):
    # corpus instances 0 and 1 of every workload, every configured call, to
    # the tolerance the benchmark gates each request's LP objective with
    reference = json.loads((Path(workloads.__file__).parent / "reference.json").read_text())
    checked = 0
    for name, workload in workloads.WORKLOADS.items():
        expected = reference["objectives"][name]
        for seed in (0, 1):
            item = workload.make(seed)
            for call, want in zip(workload.calls, expected[str(seed)], strict=True):
                result = run_pipeline(
                    item.instance, call.strategy, trials=call.trials, seed=seed, epsilon=call.epsilon
                )
                assert result.lp_objective == pytest.approx(want, rel=1e-6, abs=0)
                checked += 1
    assert checked == 2 * sum(len(w.calls) for w in workloads.WORKLOADS.values()) == 8


def test_run_pipeline_never_holds_the_whole_slot_lp_at_once():
    # instance 0 of the single-path benchmark corpus: 15 of 184 slots solved;
    # building the slot LP over all 184 slots took the peak to 9.8 MB
    inst = generate_instance(GenConfig(topology="gscale-like", jobs=40, seed=0))
    tracemalloc.start()
    try:
        result = run_pipeline(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.lp_steps, result.horizon_bound) == (15, 184)
    assert peak < 5_000_000


def test_infeasible_prefix_moves_on_to_the_next_rung(monkeypatch):
    # two flows released at 2 share a unit edge: slot 3 alone cannot carry both
    edges = [Edge("e0", "a", "b", 1.0)] + [Edge(f"e{k}", "a", f"v{k}", 1.0) for k in (1, 2, 3, 4)]
    late = [Flow("a", "b", 1.0, 2, ("e0",)), Flow("a", "b", 1.0, 2, ("e0",))]
    early = [Flow("a", f"v{k}", 1.0, 0, (f"e{k}",)) for k in (1, 2, 3, 4)]
    inst = Instance(
        Network(("a", "b", "v1", "v2", "v3", "v4"), tuple(edges)),
        (Coflow(tuple(late), 2.0), Coflow(tuple(early), 1.0)),
        RoutingModel.SINGLE_PATH,
    )
    p = build_time_indexed_lp(inst, horizon_upper_bound(inst))
    assert (_first_prefix(*p.relaxation), p.layout.S.shape[1]) == (3, 8)
    calls = _count_linprog(monkeypatch)
    got = solve(p)
    assert [status for _, status in calls] == [SolveStatus.INFEASIBLE, SolveStatus.OPTIMAL]
    assert got.steps == 4
    assert got.objective == pytest.approx(_solve_whole(p).objective, rel=1e-9)


def test_released_demand_through_a_cut_sets_the_first_prefix(monkeypatch):
    # a's only out-edge carries both flows, neither before slot 3: 2 + 2 slots
    net = Network(("a", "b", "c", "d"), (Edge("ab", "a", "b", 1.0), Edge("cd", "c", "d", 1.0)))
    late = Coflow((Flow("a", "b", 1.0, 2), Flow("a", "b", 1.0, 2)), 1.0)
    inst = Instance(net, (late, Coflow((Flow("c", "d", 1.0, 0),), 1.0)), RoutingModel.FREE_PATH)
    assert horizon_lower_bound(inst) == 4
    p = build_time_indexed_lp(inst, horizon_upper_bound(inst))
    assert (_first_prefix(*p.relaxation), p.layout.S.shape[1]) == (4, 5)
    calls = _count_linprog(monkeypatch)
    got = solve(p)
    assert [status for _, status in calls] == [SolveStatus.OPTIMAL]
    assert got.steps == 4
    assert got.objective == pytest.approx(_solve_whole(p).objective, rel=1e-9)


def _free_corpus(seed):
    """Instance ``seed`` of the benchmark's free-path corpus."""
    return generate_instance(GenConfig(
        topology="gscale-like", model=RoutingModel.FREE_PATH, jobs=20, release_mean=1.0, seed=seed
    ))


@pytest.mark.parametrize(
    "fail, limit, status",
    [
        (True, None, SolveStatus.NUMERICAL),
        (False, 1, SolveStatus.ITERATION_LIMIT),
    ],
    ids=["numerical", "iteration-limit"],
)
def test_failed_prefix_goes_straight_to_the_whole_problem(monkeypatch, fail, limit, status):
    # instance 0 of the single-path benchmark corpus: a ladder of 11 rungs
    inst = generate_instance(GenConfig(topology="gscale-like", jobs=40, seed=0))
    p = build_time_indexed_lp(inst, horizon_upper_bound(inst))
    assert (_first_prefix(*p.relaxation), p.layout.S.shape[1]) == (15, 184)
    assert len(_rungs(p)) == 11
    runs = []

    class Counted(_Highs):
        # with ``fail``, every run reports kSolveError without solving
        def run(self):
            runs.append(1)
            return HighsStatus.kError if fail else super().run()

        def getModelStatus(self):
            return HighsModelStatus.kSolveError if fail else super().getModelStatus()

    monkeypatch.setattr(coflownet.solver, "_Highs", Counted)
    if limit is not None:
        monkeypatch.setattr(coflownet.solver, "ITERATION_LIMIT", limit)
    got = solve(p)
    assert len(runs) == 2  # the first rung, then the whole problem
    assert got.status is status and got.steps == p.layout.S.shape[1]


def test_free_corpus_lps_certify_at_their_first_prefix(monkeypatch):
    # seeds 1, 5 and 9 need the cut term for a feasible first prefix; on 2,
    # 4 and 6 the reduced LP's duals certify under the per-flow dem extension
    # but not when each later cum row copies the previous step's dual
    problems = []
    for seed in (1, 4, 5, 6, 9):
        inst = _free_corpus(seed)
        problems.append(build_time_indexed_lp(inst, horizon_upper_bound(inst)))
    inst = _free_corpus(2)
    problems.append(build_interval_lp(inst, interval_grid_for(inst, 0.2)))
    calls = _count_linprog(monkeypatch)
    for p in problems:
        calls.clear()
        got = solve(p)
        assert [status for _, status in calls] == [SolveStatus.OPTIMAL]
        assert got.steps == _first_prefix(*p.relaxation) < p.layout.S.shape[1]


def test_binding_uncertified_prefix_grows_by_one_step(monkeypatch):
    # instance 8's slot LP uses 31 slots; its first prefix of 30 is optimal
    # and uses slot 30, but does not certify, so 31 is tried next (not 38)
    inst = _free_corpus(8)
    p = build_time_indexed_lp(inst, horizon_upper_bound(inst))
    assert _first_prefix(*p.relaxation) == 30
    calls = _count_linprog(monkeypatch)
    got = solve(p)
    assert [status for _, status in calls] == [SolveStatus.OPTIMAL] * 2
    assert got.steps == 31
    assert got.objective == pytest.approx(_solve_whole(p).objective, rel=1e-9)


def test_edited_copies_of_a_relaxation_are_solved_as_given(solved_free, rng, tmp_path):
    # a copy does not keep what the relaxation was built from, so it is
    # solved whole, as it is, and not on rungs rebuilt from the instance
    p, _, _ = solved_free
    want = solve(p)
    assert p.relaxation is not None and want.steps < p.layout.S.shape[1]
    permuted = permuted_rows(p, rng.permutation(p.num_rows))
    # coflow 1's X at the last step is 1 in every optimum, and only its
    # upper bound holds it: at 0.5, it adds half its cost back
    last = p.layout.X[0, -1]
    upper = p.col_upper.copy()
    upper[last] = 0.5
    lowered = replace(p, col_upper=upper)
    assert permuted.relaxation is None and lowered.relaxation is None
    got = solve(permuted)
    assert got.steps == p.layout.S.shape[1]
    assert got.objective == pytest.approx(want.objective, rel=1e-9)
    assert check_solution(permuted, got) == []
    got = solve(lowered)
    assert got.objective == _solve_whole(lowered).objective
    assert got.objective == pytest.approx(want.objective - 0.5 * p.objective[last], rel=1e-9)
    assert got.objective > want.objective + 0.1
    save_mps(p, tmp_path / "p.mps")
    assert load_mps(tmp_path / "p.mps").relaxation is None
    # and the relaxation itself cannot be edited in place
    for array in (p.objective, p.col_upper, p.row_upper, p.A.data):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_solve_runs_the_pipelines_rungs_on_a_relaxation_built_whole(workloads):
    # instances 0 and 1 of each seed-1 benchmark corpus: single-path slot
    # LPs, and free-path slot and interval LPs
    certified = 0
    for workload in workloads.WORKLOADS.values():
        for item in workloads.requests(workload, 1)[:2]:
            inst = item.instance
            for call in workload.calls:
                result = run_pipeline(inst, call.strategy, trials=1, epsilon=call.epsilon)
                if call.strategy == "interval-stretch":
                    grid = interval_grid_for(inst, call.epsilon)
                    boundaries, p = np.asarray(grid.boundaries), build_interval_lp(inst, grid)
                else:
                    boundaries = np.arange(horizon_upper_bound(inst) + 1.0)
                    p = build_time_indexed_lp(inst, horizon_upper_bound(inst))
                got = solve(p)
                assert got.objective.hex() == result.lp_objective.hex()
                rung, solution = coflownet.solver.solve_relaxation(inst, boundaries)
                assert got.steps == solution.steps == rung.layout.S.shape[1] == result.lp_steps
                # the rung point, padded by name: later X and S at 1, xe at 0
                at = dict(zip(rung.col_names, solution.x.tolist()))
                padded = [at.get(name, float(name[0] in "XS")) for name in p.col_names]
                assert got.x.tolist() == padded
                certified += got.steps < p.layout.S.shape[1]
    assert certified == 8

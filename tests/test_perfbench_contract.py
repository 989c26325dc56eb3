"""The library API that the pipeline benchmark under ``perfbench/`` reads.

The benchmark is kept byte-for-byte stable between library changes, so
these checks run its own tracing and LP-counting code against the
library instead of restating what it expects.
"""

from pathlib import Path

import pytest

import coflownet as cn
from coflownet.generate import demo_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness
    import tracing
    import workloads

    return harness, tracing, workloads


@pytest.mark.parametrize("model", list(cn.RoutingModel))
def test_lp_counts_match_the_problem(perfbench, model):
    harness, tracing, workloads = perfbench
    instance = demo_instance(model)
    spans = tracing.Spans()
    with spans.span("pipeline.request", 0) as root:
        traced = tracing.traced_call(
            spans, 0, root, instance, workloads.Call("stretch", trials=3), 1, workloads.OPTIONS
        )
    problem = traced.problem
    assert harness.check_solution(problem, traced.solution, workloads.OPTIONS.tolerance) == []
    counts = harness.lp_counts([traced])
    assert counts["lp.rows"] == problem.num_rows
    assert counts["lp.cols"] == problem.num_cols
    assert counts["lp.nnz"] == problem.A.nnz
    families = sum(counts[f"lp.nnz.{family}"] for family in harness.NNZ_FAMILIES)
    assert families == counts["lp.nnz"]
    assert (counts["lp.nnz.flow"] > 0) == (model is cn.RoutingModel.FREE_PATH)
    assert 0 < counts["lp.horizon_used"] <= counts["lp.horizon_bound"]


@pytest.mark.parametrize(
    "model, strategy",
    [
        (cn.RoutingModel.SINGLE_PATH, "stretch"),
        (cn.RoutingModel.FREE_PATH, "stretch"),
        (cn.RoutingModel.FREE_PATH, "interval-stretch"),
    ],
)
def test_traced_replica_reproduces_run_pipeline(perfbench, model, strategy):
    _, tracing, workloads = perfbench
    instance = demo_instance(model)
    call = workloads.Call(strategy, trials=3, epsilon=0.2 if strategy == "interval-stretch" else None)
    result = cn.run_pipeline(
        instance, strategy, trials=call.trials, seed=1, epsilon=call.epsilon, options=workloads.OPTIONS
    )
    spans = tracing.Spans()
    with spans.span("pipeline.request", 0) as root:
        traced = tracing.traced_call(spans, 0, root, instance, call, 1, workloads.OPTIONS)
    assert (traced.solution.objective, traced.stretch.best.report.objective) == (
        result.lp_objective, result.report.objective
    )

import math
import subprocess
import sys
import warnings
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import coflownet
from coflownet import (
    Coflow,
    Edge,
    Flow,
    FractionalSchedule,
    Instance,
    Network,
    RateSchedule,
    RoutingModel,
    continuous_interpolation_checks,
    run_pipeline,
    verify_schedule,
)
from coflownet.generate import GenConfig, demo_instance, generate_instance
from coflownet.verify import Violation, check_identity_on_vectors

from conftest import _solved, fuzz_instance
from helpers import demo_optimal_schedule


def test_demo_schedules_verify(demo_single, demo_free):
    assert verify_schedule(demo_optimal_schedule(RoutingModel.SINGLE_PATH), demo_single) == []
    assert verify_schedule(demo_optimal_schedule(RoutingModel.FREE_PATH), demo_free) == []


def test_overdelivery_flagged(demo_single):
    sched = demo_optimal_schedule(RoutingModel.SINGLE_PATH)
    doubled = tuple(
        (flows[0].copy(),) for flows in sched.amounts
    )
    doubled[3][0][3] *= 2.0  # double the big flow's last-slot amount
    bad = RateSchedule(sched.slot_count, doubled)
    kinds = {v.kind for v in verify_schedule(bad, demo_single)}
    assert "demand" in kinds


def test_capacity_violation_flagged(demo_single):
    sched = demo_optimal_schedule(RoutingModel.SINGLE_PATH)
    amounts = tuple((flows[0].copy(),) for flows in sched.amounts)
    amounts[3][0][0] = 1.0 / 3.0  # big flow also transmits in slot 1 on the shared edge
    amounts[3][0][3] = 0.0
    bad = RateSchedule(sched.slot_count, amounts)
    violations = verify_schedule(bad, demo_single)
    assert any(v.kind == "capacity" and v.slot == 1 for v in violations)


def test_an_edge_load_beyond_the_float_range_is_a_capacity_violation_without_a_warning(demo_free):
    """3 x 1e308 overflows to an infinite load: reported, not warned about."""
    sched = demo_optimal_schedule(RoutingModel.FREE_PATH)
    edge_amounts = [[dict(d) for d in flows] for flows in sched.edge_amounts]
    edge_amounts[3][0]["s-v1"] = np.array([0.0, 1e308])
    bad = RateSchedule(sched.slot_count, sched.amounts, tuple(map(tuple, edge_amounts)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        violations = verify_schedule(bad, demo_free)
    assert any(
        v.kind == "capacity" and v.subject == "edge s-v1 overloaded" and v.magnitude == math.inf
        for v in violations
    )


def test_release_violation_flagged():
    net = Network(("a", "b"), (Edge("e1", "a", "b", 1.0),))
    inst = Instance(
        network=net,
        coflows=(Coflow((Flow("a", "b", 1.0, 1, ("e1",)),), 1.0),),
        model=RoutingModel.SINGLE_PATH,
    )
    series = np.array([1.0, 0.0])
    violations = verify_schedule(RateSchedule(2, ((series,),)), inst)
    assert any(v.kind == "release" and v.slot == 1 for v in violations)


def test_negative_amount_flagged():
    net = Network(("a", "b"), (Edge("e1", "a", "b", 2.0),))
    inst = Instance(
        network=net,
        coflows=(Coflow((Flow("a", "b", 1.0, 0, ("e1",)),), 1.0),),
        model=RoutingModel.SINGLE_PATH,
    )
    # sums to the demand and fits the capacity, but sends -0.5 in slot 1
    violations = verify_schedule(RateSchedule(2, ((np.array([-0.5, 1.5]),),)), inst)
    assert [(v.kind, v.slot) for v in violations] == [("amount", 1)]


def test_free_path_conservation_violation(demo_free):
    sched = demo_optimal_schedule(RoutingModel.FREE_PATH)
    edges = [
        [dict(flow) for flow in flows] for flows in sched.edge_amounts
    ]
    edges[3][0] = {k: v.copy() for k, v in edges[3][0].items()}
    edges[3][0]["s-v1"] = edges[3][0]["s-v1"] * 0.5  # starve relay v1's inflow
    bad = RateSchedule(
        sched.slot_count,
        sched.amounts,
        tuple(tuple(flows) for flows in edges),
    )
    violations = verify_schedule(bad, demo_free)
    assert any(v.kind == "conservation" for v in violations)


def test_free_path_requires_edge_amounts(demo_free):
    sched = demo_optimal_schedule(RoutingModel.FREE_PATH)
    bad = RateSchedule(sched.slot_count, sched.amounts, None)
    assert any(v.kind == "shape" for v in verify_schedule(bad, demo_free))


def test_single_path_off_path_edge_flagged(demo_single):
    sched = demo_optimal_schedule(RoutingModel.SINGLE_PATH)
    one = sched.amounts[0][0]
    bad = RateSchedule(
        sched.slot_count,
        sched.amounts,
        (
            ({"v2-t": one.copy()},),  # declared path is v1-t
            ({},),
            ({},),
            ({},),
        ),
    )
    violations = verify_schedule(bad, demo_single)
    assert any(v.kind == "path" for v in violations)


def _edge_series(schedule, instance):
    """The schedule's per-edge series; for single path without them, each
    flow's amount on every edge of its path."""
    if schedule.edge_amounts is not None:
        return schedule.edge_amounts
    return tuple(
        tuple({eid: a for eid in fl.path} for a, fl in zip(flows, cf.flows))
        for flows, cf in zip(schedule.amounts, instance.coflows)
    )


def _with(nested, j, i, value):
    rows = [list(flows) for flows in nested]
    rows[j][i] = value
    return tuple(map(tuple, rows))


def _malformed(schedule, instance, rng):
    """``(expects_shape, schedule)`` for each malformation of one random
    flow of ``schedule``."""
    slots = schedule.slot_count
    j = int(rng.integers(len(instance.coflows)))
    i = int(rng.integers(len(instance.coflows[j].flows)))
    t = int(rng.integers(slots))
    series = schedule.amounts[j][i]
    edges = _edge_series(schedule, instance)
    eid, edge = next(iter(edges[j][i].items()))

    def amounts(value):
        return RateSchedule(slots, _with(schedule.amounts, j, i, value), schedule.edge_amounts)

    def per_edge(value):
        return RateSchedule(slots, schedule.amounts, value)

    def flow_edges(value):
        return per_edge(_with(edges, j, i, {**edges[j][i], **value}))

    yield True, amounts(series[:-1])
    yield True, amounts(np.append(series, 0.0))
    yield True, flow_edges({eid: edge[:-1]})
    yield True, flow_edges({eid: np.append(edge, 0.0)})
    yield True, per_edge(edges[:-1])
    yield True, per_edge(edges + edges[:1])
    yield True, flow_edges({"no-such-edge": edge})
    for bad in (math.nan, math.inf, -0.1):
        yield False, amounts(np.where(np.arange(slots) == t, bad, series))
        yield False, flow_edges({eid: np.where(np.arange(slots) == t, bad, edge)})


def test_malformed_schedules_are_violations_not_exceptions():
    rng = np.random.default_rng(1414)
    cases = [(demo_instance(m), demo_optimal_schedule(m)) for m in RoutingModel]
    for model in RoutingModel:
        for _ in range(3):
            instance = fuzz_instance(rng, model)
            cases.append((instance, run_pipeline(instance, "stretch", trials=2, seed=0).schedule))
    for instance, schedule in cases:
        assert verify_schedule(schedule, instance) == []
        assert verify_schedule(RateSchedule(schedule.slot_count, schedule.amounts,
                                            _edge_series(schedule, instance)), instance) == []
        for _ in range(2):
            for expects_shape, bad in _malformed(schedule, instance, rng):
                kinds = [v.kind for v in verify_schedule(bad, instance)]
                if expects_shape:
                    assert kinds == ["shape"]
                else:
                    assert kinds and "shape" not in kinds


def test_unknown_path_edge_is_a_shape_violation(unknown_path_edge):
    schedule = RateSchedule(1, ((np.ones(1),),))
    assert verify_schedule(schedule, unknown_path_edge) == [
        Violation("shape", "coflow 1 flow 1 path references unknown edge zz", None, 0.0)
    ]
    pathless = replace(unknown_path_edge.coflows[0].flows[0], path=None)
    instance = replace(unknown_path_edge, coflows=(Coflow((pathless,), 1.0),))
    assert [v.subject for v in verify_schedule(schedule, instance)] == ["coflow 1 flow 1 has no path"]


def test_verify_imports_nothing_of_the_solve_chain():
    """``coflownet.verify`` loaded without the package ``__init__`` (which
    imports everything) pulls in no LP, solver, rounding or pipeline module."""
    package = Path(coflownet.__file__).parent
    code = f"""
import sys, types
import numpy as np
sys.modules["coflownet"] = types.ModuleType("coflownet")
sys.modules["coflownet"].__path__ = [{str(package)!r}]
from coflownet.model import Coflow, Edge, Flow, Instance, Network, RateSchedule, RoutingModel
from coflownet.verify import verify_schedule
net = Network(("a", "b"), (Edge("e", "a", "b", 1.0),))
inst = Instance(net, (Coflow((Flow("a", "b", 1.0, 0, ("e",)),), 1.0),), RoutingModel.SINGLE_PATH)
assert verify_schedule(RateSchedule(1, ((np.ones(1),),)), inst) == []
print(" ".join(m for m in sys.modules if m.startswith("coflownet.")))
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "coflownet.verify" in loaded
    assert not loaded & {f"coflownet.{m}" for m in ("lp", "solver", "rounding", "pipeline")}


# ---------------------------------------------------------------------------
# continuous-time interpolation checks


def _fractional(values):
    series = np.array(values, dtype=float)
    return FractionalSchedule(
        slot_count=len(values),
        fractions=((series,),),
        cumulative=(np.cumsum(series),),
        lp_completion=None,
    )


def test_integral_of_single_slot_ramp():
    report = continuous_interpolation_checks(_fractional([1.0]))[0]
    assert report.integral == pytest.approx(0.5, abs=1e-12)
    assert report.identity_residual <= 1e-12


def test_integral_of_pathological_tail():
    frac = _fractional([0.9] + [0.0] * 8 + [0.1])
    report = continuous_interpolation_checks(frac)[0]
    # area = 1 + 9 * 0.1 - 1/2 = 1.4; the mean completion sits at 1.9
    assert report.integral == pytest.approx(1.4, abs=1e-12)
    mean_slot = 0.9 * 1 + 0.1 * 10
    assert report.integral == pytest.approx(mean_slot - 0.5, abs=1e-12)
    assert report.quadrature_residual <= 1e-4


def test_identity_on_random_vectors(rng):
    assert check_identity_on_vectors(rng) <= 1e-12


def test_random_fractionals_pass_all_residuals(rng):
    for _ in range(25):
        n = int(rng.integers(1, 12))
        x = rng.random(n) + 1e-3
        x /= x.sum()
        report = continuous_interpolation_checks(_fractional(x))[0]
        assert report.identity_residual <= 1e-9
        assert report.quadrature_residual <= 1e-4


def test_solver_outputs_satisfy_completion_slack(solved_single, solved_free):
    for _, _, frac in (solved_single, solved_free):
        for report in continuous_interpolation_checks(frac):
            assert report.identity_residual <= 1e-9
            assert report.completion_slack is not None
            assert report.completion_slack >= -1e-9
            assert report.quadrature_residual <= 1e-4


def test_interpolation_reports_match_a_per_coflow_reference():
    """The quadrature points are built once for all coflows; every report is
    bitwise the one the function gives for that coflow alone."""
    instance = generate_instance(GenConfig(topology="gscale-like", jobs=6, seed=9))
    _, _, frac = _solved(instance)
    assert len(frac.cumulative) == 6

    def bits(report):
        return tuple(None if v is None else float(v).hex() for v in astuple(report))

    reference = [
        continuous_interpolation_checks(FractionalSchedule(
            slot_count=frac.slot_count,
            fractions=(frac.fractions[j],),
            cumulative=(frac.cumulative[j],),
            lp_completion=(frac.lp_completion[j],),
        ))[0]
        for j in range(len(frac.cumulative))
    ]
    assert [bits(r) for r in continuous_interpolation_checks(frac)] == [bits(r) for r in reference]

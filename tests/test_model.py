import numpy as np
import pytest

from coflownet import (
    Coflow,
    Edge,
    Flow,
    Instance,
    Network,
    RateSchedule,
    RoutingModel,
    completion_times,
    validate_instance,
    weighted_objective,
)
from coflownet.generate import demo_instance
from coflownet.serialize import (
    instance_from_dict,
    instance_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)

from helpers import demo_optimal_schedule


def _single_flow_instance(slots_amounts):
    net = Network(
        nodes=("a", "b"),
        edges=(Edge("e1", "a", "b", 1.0),),
    )
    inst = Instance(
        network=net,
        coflows=(Coflow((Flow("a", "b", 1.0, 0, ("e1",)),), 1.0),),
        model=RoutingModel.SINGLE_PATH,
    )
    horizon = max(slots_amounts) if slots_amounts else 1
    series = np.zeros(horizon)
    for t, v in slots_amounts.items():
        series[t - 1] = v
    return inst, RateSchedule(slot_count=horizon, amounts=((series,),))


def test_validate_demo_instances_ok():
    for model in RoutingModel:
        assert validate_instance(demo_instance(model)) == []


def test_validate_flags_nonpositive_capacity(demo_single):
    net = demo_single.network
    bad_edges = tuple(
        Edge(e.id, e.src, e.dst, 0.0) if e.id == "s-v1" else e for e in net.edges
    )
    bad = Instance(
        network=Network(net.nodes, bad_edges),
        coflows=demo_single.coflows,
        model=demo_single.model,
    )
    problems = validate_instance(bad)
    assert any("capacity not positive" in p for p in problems)


def test_validate_flags_path_not_reaching_sink(demo_single):
    coflows = list(demo_single.coflows)
    # reroute the first coflow onto a path that stops at a relay
    coflows[0] = Coflow((Flow("v1", "t", 1.0, 0, ("v1-s",)),), 1.0)
    bad = Instance(demo_single.network, tuple(coflows), RoutingModel.SINGLE_PATH)
    problems = validate_instance(bad)
    assert any("path does not end at sink" in p for p in problems)


def test_validate_flags_missing_path_and_duplicate_edges():
    net = Network(
        ("a", "b"), (Edge("e", "a", "b", 1.0), Edge("e", "a", "b", 2.0), Edge("loop", "b", "b", 1.0))
    )
    inst = Instance(
        network=net,
        coflows=(Coflow((Flow("a", "b", 1.0),), 1.0),),
        model=RoutingModel.SINGLE_PATH,
    )
    problems = validate_instance(inst)
    assert any("duplicate edge id" in p for p in problems)
    assert any("requires a path" in p for p in problems)
    assert "edge loop: self-loop" in problems


def test_validate_flags_unreachable_sink_free_path():
    net = Network(("a", "b", "c"), (Edge("e1", "a", "b", 1.0),))
    inst = Instance(
        network=net,
        coflows=(Coflow((Flow("a", "c", 1.0),), 1.0),),
        model=RoutingModel.FREE_PATH,
    )
    assert any("unreachable" in p for p in validate_instance(inst))


def test_completion_single_slot():
    inst, sched = _single_flow_instance({1: 1.0})
    assert completion_times(sched, inst).completions == (1,)


def test_completion_tracks_last_positive_slot():
    inst, sched = _single_flow_instance({1: 0.9, 10: 0.1})
    report = completion_times(sched, inst)
    assert report.completions == (10,)
    assert report.objective == 10.0


def test_demo_single_schedule_completions(demo_single):
    report = completion_times(demo_optimal_schedule(RoutingModel.SINGLE_PATH), demo_single)
    assert report.completions == (1, 1, 1, 4)
    assert report.objective == 7.0


def test_demo_free_schedule_completions(demo_free):
    report = completion_times(demo_optimal_schedule(RoutingModel.FREE_PATH), demo_free)
    assert report.completions == (1, 1, 1, 2)
    assert report.objective == 5.0


def test_weighted_objective_values():
    assert weighted_objective((1, 1, 1, 4), (1.0, 1.0, 1.0, 1.0)) == 7.0
    assert weighted_objective((1, 1, 1, 2), (1.0, 1.0, 1.0, 1.0)) == 5.0
    assert weighted_objective((3, 9), (0.0, 0.0)) == 0.0
    with pytest.raises(ValueError):
        weighted_objective((1, 2), (1.0,))


def test_completion_monotone_under_later_transmission(rng):
    # adding positive traffic in a later slot never lowers any completion
    for _ in range(50):
        horizon = int(rng.integers(2, 12))
        amounts = {int(t) + 1: float(v) for t, v in enumerate(rng.random(horizon)) if v > 0.1}
        if not amounts:
            amounts = {1: 0.5}
        inst, sched = _single_flow_instance(amounts)
        base = completion_times(sched, inst).completions[0]
        later = min(sched.slot_count, base + int(rng.integers(0, 3)))
        bumped = sched.amounts[0][0].copy()
        bumped[later - 1] += 0.05
        sched2 = RateSchedule(sched.slot_count, ((bumped,),))
        assert completion_times(sched2, inst).completions[0] >= base


def test_shape_mismatch_rejected(demo_single, demo_free):
    sched = demo_optimal_schedule(RoutingModel.FREE_PATH)
    with pytest.raises(ValueError, match="shape mismatch"):
        completion_times(
            RateSchedule(sched.slot_count, sched.amounts[:2], None), demo_single
        )


def test_instance_json_round_trip(demo_single, demo_free):
    for inst in (demo_single, demo_free):
        data = instance_to_dict(inst)
        assert data["format"] == 1
        back = instance_from_dict(data)
        assert back == inst


def test_schedule_json_round_trip(demo_single, demo_free):
    for model, inst in ((RoutingModel.SINGLE_PATH, demo_single), (RoutingModel.FREE_PATH, demo_free)):
        sched = demo_optimal_schedule(model)
        back = schedule_from_dict(schedule_to_dict(sched))
        assert back.slot_count == sched.slot_count
        report_a = completion_times(sched, inst)
        report_b = completion_times(back, inst)
        assert report_a == report_b
        for j in range(len(sched.amounts)):
            for i in range(len(sched.amounts[j])):
                np.testing.assert_allclose(back.amounts[j][i], sched.amounts[j][i])

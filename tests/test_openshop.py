import itertools

import numpy as np
import pytest

from coflownet import (
    OpenShopInstance,
    RoutingModel,
    check_lp_lower_bound,
    completion_times,
    open_shop_optimal,
    permutation_objective,
    random_shop,
    reduce_open_shop,
    run_pipeline,
    validate_instance,
    verify_schedule,
)
from coflownet.serialize import shop_from_dict, shop_to_dict
from coflownet.solver import SolveOptions
from helpers import permutation_schedule


def numpy_enumeration(shop):
    """Second, vectorized enumeration path for cross-checking."""
    p = np.array(shop.processing)
    w = np.array(shop.weights)
    best = np.inf
    for order in itertools.permutations(range(p.shape[0])):
        loads = np.cumsum(p[list(order)], axis=0)
        masked = np.where(p[list(order)] > 0, loads, 0.0)
        completions = masked.max(axis=1)
        value = float(w[list(order)] @ completions)
        best = min(best, value)
    return best


def test_reduce_single_machine_job():
    shop = OpenShopInstance(machines=1, processing=((3.0,),), weights=(1.0,))
    inst = reduce_open_shop(shop)
    assert len(inst.coflows) == 1
    assert len(inst.coflows[0].flows) == 1
    flow = inst.coflows[0].flows[0]
    assert flow.demand == 3.0
    assert flow.release == 0
    assert inst.network.edge_by_id["m1"].cap == 1.0
    assert validate_instance(inst) == []


def test_reduce_two_by_two():
    shop = OpenShopInstance(machines=2, processing=((1.0, 2.0), (2.0, 1.0)), weights=(1.0, 1.0))
    inst = reduce_open_shop(shop)
    assert len(inst.network.nodes) == 4
    assert len(inst.network.edges) == 2
    assert [len(cf.flows) for cf in inst.coflows] == [2, 2]
    # disjoint components: the two edges share no endpoint
    endpoints = [{e.src, e.dst} for e in inst.network.edges]
    assert endpoints[0].isdisjoint(endpoints[1])


def test_reduce_skips_zero_work_and_rejects_empty_jobs():
    shop = OpenShopInstance(machines=2, processing=((1.0, 0.0),), weights=(1.0,))
    inst = reduce_open_shop(shop)
    assert len(inst.coflows[0].flows) == 1
    with pytest.raises(ValueError, match="no positive processing"):
        reduce_open_shop(
            OpenShopInstance(machines=2, processing=((0.0, 0.0),), weights=(1.0,))
        )


def test_reduce_valid_in_both_models():
    shop = OpenShopInstance(machines=3, processing=((1.0, 2.0, 1.0),), weights=(2.0,))
    for model in RoutingModel:
        assert validate_instance(reduce_open_shop(shop, model)) == []


def test_single_job_objective_is_max_processing():
    shop = OpenShopInstance(machines=3, processing=((2.0, 5.0, 1.0),), weights=(1.0,))
    value, order = open_shop_optimal(shop)
    assert value == 5.0
    assert order == (0,)


def test_two_jobs_shortest_first():
    shop = OpenShopInstance(machines=1, processing=((1.0,), (3.0,)), weights=(1.0, 1.0))
    value, order = open_shop_optimal(shop)
    assert value == 5.0  # 1 + 4
    assert order == (0, 1)


def test_enumeration_matches_independent_code_path(rng):
    for _ in range(25):
        shop = random_shop(rng, max_jobs=4, max_machines=3)
        value, _ = open_shop_optimal(shop)
        assert value == pytest.approx(numpy_enumeration(shop), abs=1e-9)


def test_job_limit_enforced():
    shop = OpenShopInstance(
        machines=1, processing=tuple((1.0,) for _ in range(9)), weights=(1.0,) * 9
    )
    with pytest.raises(ValueError, match="exceeds"):
        open_shop_optimal(shop)


def test_permutation_replay_matches_shop_completions(rng):
    for _ in range(10):
        shop = random_shop(rng, max_jobs=5, max_machines=3)
        inst = reduce_open_shop(shop)
        value, order = open_shop_optimal(shop)
        sched = permutation_schedule(shop, order, inst)
        assert verify_schedule(sched, inst) == []
        report = completion_times(sched, inst)
        assert report.objective == pytest.approx(value, abs=1e-9)
        assert report.objective == pytest.approx(permutation_objective(shop, order), abs=1e-9)


def test_lp_lower_bound_on_reduced_instances(rng):
    for _ in range(5):
        shop = random_shop(rng, max_jobs=4, max_machines=3)
        inst = reduce_open_shop(shop)
        lp_objective = run_pipeline(inst, options=SolveOptions(backend="highs")).lp_objective
        exact, _ = open_shop_optimal(shop)
        assert check_lp_lower_bound(inst, lp_objective, exact) is None


def test_lp_lower_bound_violation_message():
    shop = OpenShopInstance(machines=1, processing=((1.0,),), weights=(1.0,))
    inst = reduce_open_shop(shop)
    assert check_lp_lower_bound(inst, 2.0, 1.0) is not None


def test_shop_json_round_trip():
    shop = OpenShopInstance(machines=2, processing=((1.0, 2.0), (0.0, 4.0)), weights=(1.0, 3.0))
    assert shop_from_dict(shop_to_dict(shop)) == shop

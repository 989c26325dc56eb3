import pytest

from coflownet import RoutingModel, validate_instance
from coflownet.generate import (
    GenConfig,
    demo_instance,
    generate_instance,
    gscale_like,
    ring,
    swan_like,
)
from coflownet.serialize import dumps, instance_to_dict


def test_preset_shapes():
    swan = swan_like()
    assert len(swan.nodes) == 5
    assert len(swan.edges) == 14  # 7 bidirectional links
    gscale = gscale_like()
    assert len(gscale.nodes) == 12
    assert len(gscale.edges) == 38  # 19 bidirectional links
    hoop = ring(6)
    assert len(hoop.nodes) == 6
    assert len(hoop.edges) == 12


def test_generated_instances_validate():
    for topology in ("swan-like", "gscale-like", "ring", "random"):
        for model in RoutingModel:
            config = GenConfig(topology=topology, model=model, jobs=5, seed=3)
            inst = generate_instance(config)
            assert validate_instance(inst) == [], topology
            assert len(inst.coflows) == 5


def test_generation_deterministic():
    config = GenConfig(topology="gscale-like", model=RoutingModel.SINGLE_PATH, jobs=6, seed=9)
    a = dumps(instance_to_dict(generate_instance(config)))
    b = dumps(instance_to_dict(generate_instance(config)))
    assert a == b
    c = dumps(instance_to_dict(generate_instance(GenConfig(
        topology="gscale-like", model=RoutingModel.SINGLE_PATH, jobs=6, seed=10))))
    assert a != c


def test_weight_draws_match_uniform_1_100():
    total, count = 0.0, 0
    for seed in range(100):
        config = GenConfig(
            topology="swan-like",
            model=RoutingModel.FREE_PATH,
            jobs=1000,
            flows_per_job=(1, 1),
            seed=seed,
        )
        inst = generate_instance(config)
        total += sum(cf.weight for cf in inst.coflows)
        count += len(inst.coflows)
    assert count == 100_000
    assert abs(total / count - 50.5) < 1.0


def test_release_model_produces_sorted_integer_releases():
    config = GenConfig(
        topology="swan-like",
        model=RoutingModel.FREE_PATH,
        jobs=40,
        release_mean=2.0,
        seed=4,
    )
    inst = generate_instance(config)
    releases = [cf.flows[0].release for cf in inst.coflows]
    assert all(isinstance(r, int) for r in releases)
    assert releases == sorted(releases)
    assert releases[-1] > 0


def test_slot_length_scales_capacity():
    config = GenConfig(topology="ring", nodes=4, slot_length=50.0, seed=0, jobs=1)
    inst = generate_instance(config)
    assert all(e.cap == pytest.approx(50.0) for e in inst.network.edges)


@pytest.mark.parametrize(
    "field, value",
    [
        ("jobs", 0),
        ("flows_per_job", (0, 2)),
        ("flows_per_job", (3, 1)),
        ("demand_range", (-1.0, 3.0)),
        ("demand_range", (2.0, 1.0)),
        ("demand_range", (0.5, float("inf"))),
        ("weight_range", (1.0, float("nan"))),
        ("cap", 0.0),
        ("cap", float("inf")),
        ("slot_length", -1.0),
        ("release_mean", -0.5),
        ("release_mean", float("nan")),
    ],
)
def test_config_rejects_knobs_that_make_invalid_instances(field, value):
    with pytest.raises(ValueError):
        GenConfig(**{field: value})


def test_demo_instance_weights_and_demands():
    inst = demo_instance(RoutingModel.SINGLE_PATH)
    assert [cf.weight for cf in inst.coflows] == [1.0] * 4
    assert [cf.flows[0].demand for cf in inst.coflows] == [1.0, 1.0, 1.0, 3.0]

import tracemalloc

import numpy as np
import pytest

from coflownet import RoutingModel, validate_instance
from coflownet.generate import (
    MAX_GENERATED,
    GenConfig,
    _bidirected,
    demo_instance,
    generate_instance,
    gscale_like,
    random_topology,
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


def test_generated_corpus_is_pinned():
    # 120 instances over every topology and model, with releases: a change
    # to any draw, or to the order of draws, changes this hash
    import hashlib
    import itertools

    from coflownet.generate import TOPOLOGIES

    digest = hashlib.sha256()
    for topology, model, seed in itertools.product(TOPOLOGIES, RoutingModel, range(15)):
        config = GenConfig(
            topology=topology, model=model, jobs=3 + seed % 9, flows_per_job=(1, 1 + seed % 4),
            release_mean=0.5 * (seed % 3), nodes=4 + seed, links=6 + 2 * seed, seed=seed,
        )
        digest.update(dumps(instance_to_dict(generate_instance(config))).encode())
    assert digest.hexdigest() == "2b683fd5db4899be4a6169e3070e3b58cb56ff20434e1b8b72d90aadbfe1be93"


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


def _pair_list_topology(rng, n_nodes, n_links):
    """Reference ``random_topology`` that draws extra links from a list of
    every pair, in name order, which is index order below 10 nodes."""
    names = [f"n{k + 1}" for k in range(n_nodes)]
    links = set()
    order = rng.permutation(n_nodes)
    for a, b in zip(order, order[1:]):
        links.add(tuple(sorted((names[a], names[b]))))
    pairs = [(names[a], names[b]) for a in range(n_nodes) for b in range(a + 1, n_nodes)]
    while len(links) < min(n_links, len(pairs)):
        links.add(pairs[int(rng.integers(0, len(pairs)))])
    return _bidirected(sorted(links), 1.0)


@pytest.mark.parametrize("n_nodes", range(2, 10))
def test_small_random_topologies_match_the_pair_list(n_nodes):
    for seed in range(20):
        for n_links in (n_nodes - 1, n_nodes + 3, n_nodes * n_nodes):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_topology(got_rng, n_nodes, n_links)
            want = _pair_list_topology(want_rng, n_nodes, n_links)
            assert (got.nodes, got.edges) == (want.nodes, want.edges)
            assert got_rng.random() == want_rng.random()  # the same draws were taken


def test_random_topology_memory_grows_with_links_not_pairs():
    tracemalloc.start()
    try:
        net = random_topology(np.random.default_rng(0), 2000, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(net.nodes) == 2000 and len(net.edges) == 4000
    assert peak < 8 * 2**20


def test_cap_sets_every_link_capacity():
    config = GenConfig(topology="ring", nodes=4, cap=50.0, seed=0, jobs=1)
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
        ("cap", -1.0),
        ("release_mean", -0.5),
        ("release_mean", float("nan")),
    ],
)
def test_config_rejects_knobs_that_make_invalid_instances(field, value):
    with pytest.raises(ValueError):
        GenConfig(**{field: value})


def test_config_bounds_flows_nodes_and_links():
    # at the bound the config is accepted; past it, refused before any draw
    GenConfig(jobs=MAX_GENERATED, flows_per_job=(1, 1))
    GenConfig(topology="random", nodes=MAX_GENERATED, links=MAX_GENERATED)
    for knobs, message in [
        ({"jobs": MAX_GENERATED // 3 + 1}, "jobs x max flows per job must be at most"),
        ({"jobs": 10**8, "flows_per_job": (1, 1)}, "jobs x max flows per job must be at most"),
        ({"nodes": MAX_GENERATED + 1}, "nodes must be at most"),
        ({"topology": "random", "nodes": 10**8, "links": 10**8}, "nodes must be at most"),
        ({"links": MAX_GENERATED + 1}, "links must be at most"),
    ]:
        with pytest.raises(ValueError, match=message):
            GenConfig(**knobs)


def test_demo_instance_weights_and_demands():
    inst = demo_instance(RoutingModel.SINGLE_PATH)
    assert [cf.weight for cf in inst.coflows] == [1.0] * 4
    assert [cf.flows[0].demand for cf in inst.coflows] == [1.0, 1.0, 1.0, 3.0]

import numpy as np
import pytest

from coflownet import (
    Coflow,
    Edge,
    Flow,
    Instance,
    Network,
    RoutingModel,
    build_time_indexed_lp,
    extract_fractional,
    horizon_upper_bound,
    solve,
)
from coflownet.generate import demo_instance, random_topology
from coflownet.graphs import reachable_from, sample_shortest_path


def fuzz_instance(rng, model):
    """Small random instance within the fuzz envelope: at most 6 nodes,
    10 directed edges, 5 coflows of up to 3 flows, mixed releases."""
    for _ in range(50):
        n = int(rng.integers(3, 7))
        links = int(rng.integers(n - 1, 6))
        net = random_topology(rng, n, links)
        nodes = list(net.nodes)
        reach = {v: reachable_from(net, v) for v in nodes}
        coflows = []
        ok = True
        for _ in range(int(rng.integers(1, 6))):
            flows = []
            for _ in range(int(rng.integers(1, 4))):
                src, dst = (nodes[k] for k in rng.choice(len(nodes), size=2, replace=False))
                if dst not in reach[src]:
                    ok = False
                    break
                demand = float(rng.uniform(0.5, 2.0))
                release = int(rng.integers(0, 4)) if rng.random() < 0.5 else 0
                path = (
                    sample_shortest_path(net, src, dst, rng)
                    if model is RoutingModel.SINGLE_PATH
                    else None
                )
                flows.append(Flow(src, dst, demand, release, path))
            if not ok:
                break
            coflows.append(Coflow(tuple(flows), float(rng.uniform(1.0, 10.0))))
        if ok and coflows:
            return Instance(net, tuple(coflows), model)
    raise RuntimeError("could not draw a routable fuzz instance")


@pytest.fixture(scope="session")
def demo_single():
    return demo_instance(RoutingModel.SINGLE_PATH)


@pytest.fixture(scope="session")
def demo_free():
    return demo_instance(RoutingModel.FREE_PATH)


def _solved(instance):
    horizon = horizon_upper_bound(instance)
    problem = build_time_indexed_lp(instance, horizon)
    solution = solve(problem)
    fractional = extract_fractional(problem, solution.x, instance, horizon)
    return problem, solution, fractional


@pytest.fixture(scope="session")
def solved_single(demo_single):
    return _solved(demo_single)


@pytest.fixture(scope="session")
def solved_free(demo_free):
    return _solved(demo_free)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def unknown_path_edge():
    """A one-edge single-path instance whose flow's path names an edge
    that is not in the network."""
    net = Network(("a", "b"), (Edge("ab", "a", "b", 1.0),))
    flow = Flow("a", "b", 1.0, 0, ("zz",))
    return Instance(net, (Coflow((flow,), 1.0),), RoutingModel.SINGLE_PATH)

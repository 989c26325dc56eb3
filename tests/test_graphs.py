import numpy as np
import pytest
from scipy.optimize import linprog

from coflownet import Edge, Network
from coflownet.generate import demo_network
from coflownet.graphs import (
    max_flow_value,
    path_bottleneck,
    reachable_from,
    reaches,
    sample_shortest_path,
    usable_edges,
)


def lp_max_flow(network, src, dst):
    """Independent max-flow oracle: straightforward arc LP."""
    edges = network.edges
    idx = {e.id: k for k, e in enumerate(edges)}
    n = len(edges)
    c = np.zeros(n)
    for e in edges:
        if e.src == src:
            c[idx[e.id]] -= 1.0  # maximize out of the source
        if e.dst == src:
            c[idx[e.id]] += 1.0
    a_eq, b_eq = [], []
    for v in network.nodes:
        if v in (src, dst):
            continue
        row = np.zeros(n)
        for e in edges:
            if e.dst == v:
                row[idx[e.id]] += 1.0
            if e.src == v:
                row[idx[e.id]] -= 1.0
        a_eq.append(row)
        b_eq.append(0.0)
    res = linprog(
        c,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(0.0, e.cap) for e in edges],
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def test_max_flow_matches_lp_oracle_on_demo():
    net = demo_network()
    assert max_flow_value(net, "s", "t") == pytest.approx(lp_max_flow(net, "s", "t"))
    assert max_flow_value(net, "s", "t") == pytest.approx(3.0)
    assert max_flow_value(net, "v1", "t") == pytest.approx(lp_max_flow(net, "v1", "t"))


def test_max_flow_matches_lp_oracle_random(rng):
    for _ in range(20):
        n = int(rng.integers(3, 7))
        names = [f"n{k}" for k in range(n)]
        edges = []
        eid = 0
        for a in range(n):
            for b in range(n):
                if a != b and rng.random() < 0.5:
                    edges.append(Edge(f"e{eid}", names[a], names[b], float(rng.uniform(0.2, 3.0))))
                    eid += 1
        net = Network(tuple(names), tuple(edges))
        got = max_flow_value(net, names[0], names[1])
        want = lp_max_flow(net, names[0], names[1])
        assert got == pytest.approx(want, abs=1e-7)


def test_reachability_chain():
    net = Network(("a", "b", "c"), (Edge("e1", "a", "b", 1.0), Edge("e2", "b", "c", 1.0)))
    assert reachable_from(net, "a") == {"a", "b", "c"}
    assert reachable_from(net, "c") == {"c"}
    assert reaches(net, "c") == {"a", "b", "c"}
    assert {e.id for e in usable_edges(net, "a", "c")} == {"e1", "e2"}
    assert {e.id for e in usable_edges(net, "b", "c")} == {"e2"}


def test_path_bottleneck():
    net = Network(("a", "b", "c"), (Edge("e1", "a", "b", 2.0), Edge("e2", "b", "c", 0.5)))
    assert path_bottleneck(net, ("e1", "e2")) == 0.5


def test_shortest_path_sampling_uniform(rng):
    # diamond: two 2-hop routes, each should be drawn about half the time
    net = Network(
        ("a", "b", "c", "d"),
        (
            Edge("ab", "a", "b", 1.0),
            Edge("ac", "a", "c", 1.0),
            Edge("bd", "b", "d", 1.0),
            Edge("cd", "c", "d", 1.0),
            Edge("ad", "a", "d", 1.0),
        ),
    )
    # the direct edge is the unique shortest path while it exists
    for _ in range(5):
        assert sample_shortest_path(net, "a", "d", rng) == ("ad",)
    # remove the direct edge: the two 2-hop paths split evenly
    net2 = Network(net.nodes, net.edges[:4])
    counts = {"b": 0, "c": 0}
    for _ in range(2000):
        path = sample_shortest_path(net2, "a", "d", rng)
        assert len(path) == 2
        counts["b" if path[0] == "ab" else "c"] += 1
    assert abs(counts["b"] - 1000) < 120


def test_shortest_path_longer_than_the_recursion_limit_is_sampled(rng):
    # a 3,000-hop chain: counting completions by recursion overflowed the stack
    n = 3000
    nodes = tuple(f"n{k}" for k in range(n))
    net = Network(nodes, tuple(Edge(f"e{k}", nodes[k], nodes[k + 1], 1.0) for k in range(n - 1)))
    assert sample_shortest_path(net, "n0", nodes[-1], rng) == tuple(f"e{k}" for k in range(n - 1))


def test_demo_single_paths_are_shortest(demo_single):
    # every declared demo path has minimal hop count
    net = demo_single.network
    for _, _, _, fl in demo_single.iter_flows():
        dist = {fl.src: 0}
        frontier = [fl.src]
        while frontier:
            nxt = []
            for v in frontier:
                for e in net.out_edges[v]:
                    if e.dst not in dist:
                        dist[e.dst] = dist[v] + 1
                        nxt.append(e.dst)
            frontier = nxt
        assert len(fl.path) == dist[fl.dst]

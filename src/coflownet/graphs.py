"""Graph utilities: reachability, max-flow, shortest-path sampling."""

from __future__ import annotations

from collections import deque

import numpy as np

from .model import Edge, Network

_EPS = 1e-12


def reachable_from(network: Network, start: str) -> set[str]:
    """Nodes reachable from ``start`` along edge directions."""
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for e in network.out_edges.get(v, ()):
            if e.dst not in seen:
                seen.add(e.dst)
                queue.append(e.dst)
    return seen


def reaches(network: Network, target: str) -> set[str]:
    """Nodes from which ``target`` is reachable."""
    seen = {target}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for e in network.in_edges.get(v, ()):
            if e.src not in seen:
                seen.add(e.src)
                queue.append(e.src)
    return seen


def usable_edges(network: Network, src: str, dst: str) -> tuple[Edge, ...]:
    """Edges that can carry src->dst traffic: tail reachable from ``src``
    and ``dst`` reachable from the head. Everything else is pruned."""
    fwd = reachable_from(network, src)
    bwd = reaches(network, dst)
    return tuple(e for e in network.edges if e.src in fwd and e.dst in bwd)


def path_bottleneck(network: Network, path: tuple[str, ...]) -> float:
    """Minimum capacity along a path of edge ids."""
    return min(network.edge_by_id[eid].cap for eid in path)


def max_flow_value(network: Network, src: str, dst: str) -> float:
    """Maximum src->dst flow value (Dinic, float capacities)."""
    if src == dst:
        raise ValueError("max flow requires distinct endpoints")
    nodes = {v: k for k, v in enumerate(network.nodes)}
    # Residual arcs stored as flat arrays: to-node, capacity, reverse index.
    head: list[int] = []
    cap: list[float] = []
    adj: list[list[int]] = [[] for _ in network.nodes]
    for e in network.edges:
        u, v = nodes[e.src], nodes[e.dst]
        adj[u].append(len(head))
        head.append(v)
        cap.append(e.cap)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0.0)
    s, t = nodes[src], nodes[dst]

    def bfs_levels() -> list[int] | None:
        level = [-1] * len(adj)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for idx in adj[u]:
                v = head[idx]
                if cap[idx] > _EPS and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def push(u: int, limit: float, level: list[int], it: list[int]) -> float:
        if u == t:
            return limit
        while it[u] < len(adj[u]):
            idx = adj[u][it[u]]
            v = head[idx]
            if cap[idx] > _EPS and level[v] == level[u] + 1:
                sent = push(v, min(limit, cap[idx]), level, it)
                if sent > _EPS:
                    cap[idx] -= sent
                    cap[idx ^ 1] += sent
                    return sent
            it[u] += 1
        return 0.0

    total = 0.0
    while True:
        level = bfs_levels()
        if level is None:
            return total
        it = [0] * len(adj)
        while True:
            sent = push(s, float("inf"), level, it)
            if sent <= _EPS:
                break
            total += sent


def sample_shortest_path(
    network: Network, src: str, dst: str, rng: np.random.Generator
) -> tuple[str, ...]:
    """One uniformly random shortest path (hop count) as edge ids.

    Sampling walks the tight-edge DAG forward, picking each next edge with
    probability proportional to the number of shortest completions through
    it, so every shortest path is equally likely (parallel edges count as
    distinct paths).
    """
    dist = {dst: 0}
    order = [dst]
    for v in order:  # breadth-first: the list grows as it is walked
        for e in network.in_edges.get(v, ()):
            if e.src not in dist:
                dist[e.src] = dist[v] + 1
                order.append(e.src)
    if src not in dist:
        raise ValueError(f"no path from {src!r} to {dst!r}")

    def tight(v: str) -> list:
        return [e for e in network.out_edges.get(v, ()) if dist.get(e.dst, -1) == dist[v] - 1]

    # shortest completions from each node, nearest to dst first, so that a
    # long path needs no recursion as deep as itself
    counts: dict[str, int] = {dst: 1}
    for v in order[1:]:
        counts[v] = sum(counts[e.dst] for e in tight(v))

    path: list[str] = []
    v = src
    while v != dst:
        edges = tight(v)
        weights = np.array([counts[e.dst] for e in edges], dtype=float)
        choice = edges[int(rng.choice(len(edges), p=weights / weights.sum()))]
        path.append(choice.id)
        v = choice.dst
    return tuple(path)

"""Instance generation: WAN-style topology presets, random workloads, and
a small hand-built demo instance with known optima for both models.

Generation is deterministic per seed; writing the same config twice
produces byte-identical instance files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import reachable_from, sample_shortest_path
from .model import Coflow, Edge, Flow, Instance, Network, RoutingModel

#: Five sites, seven bidirectional inter-site links.
_SWAN_LIKE_LINKS = (
    ("dc1", "dc2"), ("dc1", "dc3"), ("dc2", "dc3"), ("dc2", "dc4"),
    ("dc3", "dc5"), ("dc4", "dc5"), ("dc1", "dc4"),
)

#: Twelve sites, nineteen bidirectional links (ring plus chords).
_GSCALE_LIKE_LINKS = (
    ("dc1", "dc2"), ("dc2", "dc3"), ("dc3", "dc4"), ("dc4", "dc5"),
    ("dc5", "dc6"), ("dc6", "dc7"), ("dc7", "dc8"), ("dc8", "dc9"),
    ("dc9", "dc10"), ("dc10", "dc11"), ("dc11", "dc12"), ("dc12", "dc1"),
    ("dc1", "dc4"), ("dc2", "dc7"), ("dc3", "dc9"), ("dc5", "dc11"),
    ("dc6", "dc10"), ("dc8", "dc12"), ("dc4", "dc8"),
)

TOPOLOGIES = ("swan-like", "gscale-like", "ring", "random")

#: Most flows (``jobs`` times the largest flow count per job), nodes or
#: links a :class:`GenConfig` may ask for, so that generation allocates a
#: bounded amount: memory grows with flows times nodes (each flow's path
#: and its source's reachable set). At the bound, 2,000 single-path flows
#: on a random topology of 2,000 nodes and links peaked at 310 MB in 16 s
#: (2-vCPU VM). The pipeline refuses any instance of 1,000 or more flows
#: anyway: its horizon bound is at least the flow count, and each slot has
#: at least ``2 * flows + 1`` LP columns, over ``MAX_SLOT_COLUMNS``.
MAX_GENERATED = 2_000


def _bidirected(links, cap: float) -> Network:
    nodes = list(dict.fromkeys(n for link in links for n in link))  # in order of first use
    edges = []
    for u, v in links:
        edges.append(Edge(id=f"{u}-{v}", src=u, dst=v, cap=cap))
        edges.append(Edge(id=f"{v}-{u}", src=v, dst=u, cap=cap))
    return Network(nodes=tuple(nodes), edges=tuple(edges))


def swan_like(cap: float = 1.0) -> Network:
    return _bidirected(_SWAN_LIKE_LINKS, cap)


def gscale_like(cap: float = 1.0) -> Network:
    return _bidirected(_GSCALE_LIKE_LINKS, cap)


def ring(n_nodes: int, cap: float = 1.0) -> Network:
    if n_nodes < 3:
        raise ValueError("a ring needs at least 3 nodes")
    links = [(f"n{k + 1}", f"n{(k + 1) % n_nodes + 1}") for k in range(n_nodes)]
    return _bidirected(links, cap)


def random_topology(rng: np.random.Generator, n_nodes: int, n_links: int, cap: float = 1.0) -> Network:
    """Connected random bidirected topology: a random spanning tree plus
    uniformly sampled extra links. A link joins nodes ``a < b`` (by index)
    and is drawn as its position in the list of all such pairs in order,
    which :func:`_pair` inverts without building the list."""
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    min_links = n_nodes - 1
    if n_links < min_links:
        raise ValueError(f"{n_links} links cannot connect {n_nodes} nodes")
    links: set[tuple[int, int]] = set()
    order = rng.permutation(n_nodes).tolist()
    for a, b in zip(order, order[1:]):
        links.add((min(a, b), max(a, b)))
    pairs = n_nodes * (n_nodes - 1) // 2
    while len(links) < min(n_links, pairs):
        links.add(_pair(n_nodes, int(rng.integers(0, pairs))))
    return _bidirected([(f"n{a + 1}", f"n{b + 1}") for a, b in sorted(links)], cap)


def _pair(n_nodes: int, k: int) -> tuple[int, int]:
    """The ``k``-th pair ``(a, b)``, ``a < b < n_nodes``, in lexicographic
    order. Counted from the end, the pairs of row ``a`` are the ``m =
    n_nodes - 1 - a`` positions from ``m (m - 1) / 2`` on."""
    r = n_nodes * (n_nodes - 1) // 2 - 1 - k
    m = (1 + math.isqrt(8 * r + 1)) // 2
    a = n_nodes - 1 - m
    return a, n_nodes - 1 - (r - m * (m - 1) // 2)


@dataclass(frozen=True)
class GenConfig:
    """Workload generator knobs. ``cap`` is every link's capacity (data per
    slot); releases come from exponential inter-arrivals with the given
    mean, 0 meaning everything is released at the start."""

    topology: str = "swan-like"
    model: RoutingModel = RoutingModel.SINGLE_PATH
    jobs: int = 10
    flows_per_job: tuple[int, int] = (1, 3)
    demand_range: tuple[float, float] = (0.5, 3.0)
    weight_range: tuple[float, float] = (1.0, 100.0)
    release_mean: float = 0.0
    nodes: int = 8
    links: int = 12
    cap: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"need at least one job, got {self.jobs}")
        low, high = self.flows_per_job
        if not 1 <= low <= high:
            raise ValueError(f"flows per job must satisfy 1 <= min <= max, got ({low}, {high})")
        for name, count in (("jobs x max flows per job", self.jobs * high), ("nodes", self.nodes),
                            ("links", self.links)):
            if count > MAX_GENERATED:
                raise ValueError(f"{name} must be at most {MAX_GENERATED:,}, got {count:,}")
        for name, (low, high) in (("demand", self.demand_range), ("weight", self.weight_range)):
            if not 0 < low <= high < math.inf:
                raise ValueError(f"{name} range must be positive, finite and ordered, got ({low}, {high})")
        if not 0 < self.cap < math.inf:
            raise ValueError(f"cap must be positive and finite, got {self.cap}")
        if not 0 <= self.release_mean < math.inf:
            raise ValueError(f"release mean must be non-negative and finite, got {self.release_mean}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r} (one of {TOPOLOGIES})")


def build_topology(config: GenConfig, rng: np.random.Generator) -> Network:
    if config.topology == "swan-like":
        return swan_like(config.cap)
    if config.topology == "gscale-like":
        return gscale_like(config.cap)
    if config.topology == "ring":
        return ring(config.nodes, config.cap)
    return random_topology(rng, config.nodes, config.links, config.cap)


def generate_instance(config: GenConfig) -> Instance:
    """Deterministic random instance for ``config``.

    Random topologies are resampled (bounded attempts) until every drawn
    endpoint pair is routable.
    """
    rng = np.random.default_rng(config.seed)
    for _ in range(100):
        network = build_topology(config, rng)
        instance = _draw_jobs(config, network, rng)
        if instance is not None:
            return instance
        if config.topology != "random":
            raise ValueError(f"{config.topology} topology left endpoints unroutable")
    raise ValueError("failed to draw a routable topology in 100 attempts")


def _draw_jobs(config: GenConfig, network: Network, rng: np.random.Generator) -> Instance | None:
    nodes = list(network.nodes)
    reach: dict[str, set[str]] = {}  # from each source drawn so far
    coflows = []
    arrival = 0.0
    for _ in range(config.jobs):
        if config.release_mean > 0:
            arrival += rng.exponential(config.release_mean)
        release = int(math.ceil(arrival))
        n_flows = int(rng.integers(config.flows_per_job[0], config.flows_per_job[1] + 1))
        flows = []
        for _ in range(n_flows):
            src, dst = (nodes[k] for k in rng.choice(len(nodes), size=2, replace=False))
            if src not in reach:
                reach[src] = reachable_from(network, src)
            if dst not in reach[src]:
                return None  # unroutable pair: caller regenerates the edge set
            demand = float(rng.uniform(*config.demand_range))
            path = None
            if config.model is RoutingModel.SINGLE_PATH:
                path = sample_shortest_path(network, src, dst, rng)
            flows.append(Flow(src=src, dst=dst, demand=demand, release=release, path=path))
        weight = float(rng.uniform(*config.weight_range))
        coflows.append(Coflow(flows=tuple(flows), weight=weight))
    return Instance(network=network, coflows=tuple(coflows), model=config.model)


# ---------------------------------------------------------------------------
# the hand-built demo instance


def demo_network() -> Network:
    """Five-node relay: source ``s`` and sink ``t`` joined through relays
    ``v1..v3`` by unit-capacity bidirected edges."""
    links = [("s", "v1"), ("s", "v2"), ("s", "v3"), ("v1", "t"), ("v2", "t"), ("v3", "t")]
    return _bidirected(links, 1.0)


def demo_instance(model: RoutingModel) -> Instance:
    """Four unit-weight coflows on the relay network: three unit demands
    from the relays to ``t`` plus one demand of 3 from ``s`` to ``t``.

    With single-path routing the big flow is pinned through ``v2`` and
    shares an edge with the ``v2`` unit flow; the best schedule then
    costs 7. With free-path routing the big flow can fan out over all
    three relays in one slot and the optimum drops to 5.
    """
    paths = {
        "red": ("v1-t",),
        "green": ("v2-t",),
        "orange": ("v3-t",),
        "blue": ("s-v2", "v2-t"),
    }
    single = model is RoutingModel.SINGLE_PATH
    coflows = (
        Coflow((Flow("v1", "t", 1.0, 0, paths["red"] if single else None),), 1.0),
        Coflow((Flow("v2", "t", 1.0, 0, paths["green"] if single else None),), 1.0),
        Coflow((Flow("v3", "t", 1.0, 0, paths["orange"] if single else None),), 1.0),
        Coflow((Flow("s", "t", 3.0, 0, paths["blue"] if single else None),), 1.0),
    )
    return Instance(network=demo_network(), coflows=coflows, model=model)

"""Domain types for coflow scheduling over capacitated directed networks.

Conventions used throughout the package:

- Time is slotted and 1-based: slot ``t`` covers the real interval
  ``[t - 1, t]``. Continuous time appears only inside analysis checks.
- Demands are stored in data units. Everywhere else traffic is expressed
  as a fraction of a flow's demand; ``demand * fraction`` is evaluated
  only inside capacity checks, which keeps schedule numerics scale-free.
- Release times are integer slot indices: a flow released at ``r`` may
  transmit in slots ``t > r`` only. Fractional releases must be rounded
  up by whatever ingests them.

All types are immutable after construction and safe to share across
concurrent workers; the operations in this module are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

#: Transmission amounts at or below this threshold count as "no traffic".
#: Keeps float dust from the stretch overlap arithmetic out of completion
#: times and release checks.
AMOUNT_EPS = 1e-12

#: Absolute feasibility tolerance on unit-scale capacities.
FEAS_TOL = 1e-9


class RoutingModel(str, Enum):
    """How a flow's traffic may traverse the network."""

    #: Each flow is pinned to one pre-declared path; only per-slot rates
    #: are chosen.
    SINGLE_PATH = "single_path"
    #: Each flow may split/merge across the graph as a per-slot feasible
    #: flow obeying conservation and capacities.
    FREE_PATH = "free_path"


@dataclass(frozen=True)
class Edge:
    """A directed capacitated link. Parallel edges need distinct ids."""

    id: str
    src: str
    dst: str
    cap: float


@dataclass(frozen=True)
class Network:
    """Directed graph with per-edge capacities (data units per slot)."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {v: [] for v in self.nodes}
        for e in self.edges:
            if e.src in out:
                out[e.src].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[Edge, ...]]:
        inc: dict[str, list[Edge]] = {v: [] for v in self.nodes}
        for e in self.edges:
            if e.dst in inc:
                inc[e.dst].append(e)
        return {v: tuple(es) for v, es in inc.items()}


@dataclass(frozen=True)
class Flow:
    """One point-to-point transfer demand.

    ``path`` is an ordered tuple of edge ids and is required when the
    instance uses the single-path model.
    """

    src: str
    dst: str
    demand: float
    release: int = 0
    path: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Coflow:
    """A group of flows that completes only when every flow completes."""

    flows: tuple[Flow, ...]
    weight: float


@dataclass(frozen=True)
class Instance:
    network: Network
    coflows: tuple[Coflow, ...]
    model: RoutingModel

    def iter_flows(self):
        """Yield ``(j, i, coflow, flow)`` with 0-based j (coflow) and i."""
        for j, cf in enumerate(self.coflows):
            for i, fl in enumerate(cf.flows):
                yield j, i, cf, fl

    @property
    def flow_count(self) -> int:
        return sum(len(cf.flows) for cf in self.coflows)

    @property
    def max_release(self) -> int:
        return max((fl.release for _, _, _, fl in self.iter_flows()), default=0)


@dataclass(frozen=True)
class FractionalSchedule:
    """Per-slot fractions of each flow's demand, plus coflow progress.

    ``fractions[j][i]`` is a length-``slot_count`` array; entry ``t - 1``
    is the fraction of flow ``(j, i)`` scheduled in slot ``t``.
    ``cumulative[j]`` tracks the fraction of coflow ``j`` completed by the
    end of each slot (the minimum over member flows of their prefix
    sums). ``lp_completion`` carries the relaxation's completion-time
    variables when the schedule was extracted from a solved LP.
    ``edge_fractions`` is present for free-path schedules only and maps
    edge id to the per-slot fraction routed over that edge.
    """

    slot_count: int
    fractions: tuple[tuple[np.ndarray, ...], ...]
    cumulative: tuple[np.ndarray, ...]
    lp_completion: tuple[float, ...] | None = None
    edge_fractions: tuple[tuple[dict[str, np.ndarray], ...], ...] | None = None


@dataclass(frozen=True)
class RateSchedule:
    """A concrete transmission plan: per slot, per flow, fraction sent.

    For free-path instances ``edge_amounts[j][i]`` additionally gives the
    per-edge split of every slot's amount (fractions of demand, sparse:
    absent edges carry nothing).
    """

    slot_count: int
    amounts: tuple[tuple[np.ndarray, ...], ...]
    edge_amounts: tuple[tuple[dict[str, np.ndarray], ...], ...] | None = None


@dataclass(frozen=True)
class CompletionReport:
    """Completion slot per coflow and the weighted completion objective."""

    completions: tuple[int, ...]
    objective: float


def validate_instance(instance: Instance) -> list[str]:
    """Check every type invariant; return a list of violations (empty = ok).

    Each violation names the offending coflow/flow/edge so generators and
    file loaders can point at the bad record.
    """
    from .graphs import reachable_from  # local import to avoid a cycle

    problems: list[str] = []
    net = instance.network

    seen_ids: set[str] = set()
    for e in net.edges:
        if e.id in seen_ids:
            problems.append(f"edge {e.id}: duplicate edge id")
        seen_ids.add(e.id)
        if e.src not in net.node_set:
            problems.append(f"edge {e.id}: source node {e.src!r} not declared")
        if e.dst not in net.node_set:
            problems.append(f"edge {e.id}: target node {e.dst!r} not declared")
        if not e.cap > 0:
            problems.append(f"edge {e.id}: capacity not positive ({e.cap})")
        elif not math.isfinite(e.cap):
            problems.append(f"edge {e.id}: capacity not finite ({e.cap})")

    if not instance.coflows:
        problems.append("instance has no coflows")
    reach_cache: dict[str, set[str]] = {}
    for j, cf in enumerate(instance.coflows):
        if not cf.flows:
            problems.append(f"coflow {j + 1}: has no flows")
        if not cf.weight > 0:
            problems.append(f"coflow {j + 1}: weight not positive ({cf.weight})")
        elif not math.isfinite(cf.weight):
            problems.append(f"coflow {j + 1}: weight not finite ({cf.weight})")
        for i, fl in enumerate(cf.flows):
            tag = f"coflow {j + 1} flow {i + 1}"
            if fl.src == fl.dst:
                problems.append(f"{tag}: source equals sink ({fl.src!r})")
            if fl.src not in net.node_set:
                problems.append(f"{tag}: source node {fl.src!r} not declared")
            if fl.dst not in net.node_set:
                problems.append(f"{tag}: sink node {fl.dst!r} not declared")
            if not fl.demand > 0:
                problems.append(f"{tag}: demand not positive ({fl.demand})")
            elif not math.isfinite(fl.demand):
                problems.append(f"{tag}: demand not finite ({fl.demand})")
            if fl.release < 0 or fl.release != int(fl.release):
                problems.append(f"{tag}: release not a nonnegative integer ({fl.release})")
            if instance.model is RoutingModel.SINGLE_PATH:
                problems.extend(_check_path(net, fl, tag))
            else:
                if fl.src in net.node_set and fl.dst in net.node_set:
                    if fl.src not in reach_cache:
                        reach_cache[fl.src] = reachable_from(net, fl.src)
                    if fl.dst not in reach_cache[fl.src]:
                        problems.append(f"{tag}: sink {fl.dst!r} unreachable from source {fl.src!r}")
    return problems


def check_instance(instance: Instance) -> None:
    """ValueError ``invalid instance: <first problem>``, with the count of
    the others, when :func:`validate_instance` finds any."""
    problems = validate_instance(instance)
    if problems:
        more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        raise ValueError(f"invalid instance: {problems[0]}{more}")


def _check_path(net: Network, fl: Flow, tag: str) -> list[str]:
    if fl.path is None:
        return [f"{tag}: single-path model requires a path"]
    if not fl.path:
        return [f"{tag}: path is empty"]
    problems = []
    edges = []
    for eid in fl.path:
        e = net.edge_by_id.get(eid)
        if e is None:
            problems.append(f"{tag}: path edge {eid!r} not in network")
            return problems
        edges.append(e)
    if edges[0].src != fl.src:
        problems.append(f"{tag}: path does not start at source")
    for a, b in zip(edges, edges[1:]):
        if a.dst != b.src:
            problems.append(f"{tag}: path edges {a.id!r} -> {b.id!r} do not chain")
    if edges[-1].dst != fl.dst:
        problems.append(f"{tag}: path does not end at sink")
    if not problems:
        # horizon_upper_bound assumes a flow crosses each path edge once per slot
        seen = {fl.src}
        for e in edges:
            if e.dst in seen:
                problems.append(f"{tag}: path visits node {e.dst!r} twice")
                break
            seen.add(e.dst)
    return problems


def weighted_objective(completions, weights) -> float:
    """Exact weighted sum over coflows of weight times completion."""
    if len(completions) != len(weights):
        raise ValueError("completions and weights differ in length")
    return math.fsum(w * c for w, c in zip(weights, completions))


def flow_coflows(instance: Instance) -> np.ndarray:
    """The coflow index of every flow, in ``Instance.iter_flows`` order."""
    sizes = [len(cf.flows) for cf in instance.coflows]
    return np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)


def completion_report(amounts: np.ndarray, coflow: np.ndarray, weights) -> CompletionReport:
    """Completion slot per coflow, and the weighted objective, of a
    schedule whose flows are the rows of ``amounts``, row f belonging to
    coflow ``coflow[f]`` of ``len(weights)``. A coflow completes in the
    last slot in which a member flow sends more than ``AMOUNT_EPS`` (0 if
    none does)."""
    last = np.where(amounts > AMOUNT_EPS, np.arange(1, amounts.shape[1] + 1), 0).max(axis=1, initial=0)
    done = np.zeros(len(weights), dtype=np.int64)
    np.maximum.at(done, coflow, last)
    completions = done.tolist()
    return CompletionReport(tuple(completions), weighted_objective(completions, weights))


def completion_times(schedule: RateSchedule, instance: Instance) -> CompletionReport:
    """Completion slot per coflow: the last slot any member flow transmits.

    Amounts at or below ``AMOUNT_EPS`` do not count as transmission.
    """
    if len(schedule.amounts) != len(instance.coflows):
        raise ValueError("schedule/instance shape mismatch: coflow counts differ")
    for j, cf in enumerate(instance.coflows):
        if len(schedule.amounts[j]) != len(cf.flows):
            raise ValueError(f"schedule/instance shape mismatch: coflow {j + 1} flow counts differ")
    rows = [series for flows in schedule.amounts for series in flows]
    if any(len(series) != schedule.slot_count for series in rows):
        raise ValueError("schedule shape mismatch: a flow's amounts are not slot_count long")
    amounts = np.array(rows, dtype=float).reshape(len(rows), schedule.slot_count)
    return completion_report(amounts, flow_coflows(instance), [cf.weight for cf in instance.coflows])


def coflow_progress(fractions) -> tuple[np.ndarray, ...]:
    """Per coflow, the fraction completed by the end of each step: the
    per-step minimum over member flows of their cumulative fractions,
    clipped to [0, 1]. ``fractions[j][i]`` is flow (j, i)'s step series."""
    return tuple(
        np.clip(np.minimum.reduce([np.cumsum(s) for s in flows]), 0.0, 1.0) for flows in fractions
    )


def as_fractional(schedule: RateSchedule, instance: Instance) -> FractionalSchedule:
    """View a rate schedule of ``instance`` as a fractional schedule
    (fractions = amounts, progress from :func:`coflow_progress`)."""
    return FractionalSchedule(
        slot_count=schedule.slot_count,
        fractions=schedule.amounts,
        cumulative=coflow_progress(schedule.amounts),
        lp_completion=None,
        edge_fractions=schedule.edge_amounts,
    )

"""Concurrent open-shop instances, their network reduction, and the
exact permutation oracle used to certify small instances.

A shop job owns independent work on every machine and completes when all
machines have finished it. Mapping each machine to a private unit edge
turns a shop into a coflow instance whose optimum is the shop optimum,
and on shops an optimal schedule can always be realized by one job
permutation applied to every machine, so exhaustive permutation search
is an exact oracle at small job counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import Coflow, Edge, Flow, Instance, Network, RoutingModel


@dataclass(frozen=True)
class OpenShopInstance:
    machines: int
    processing: tuple[tuple[float, ...], ...]  # processing[j][i]: job j on machine i
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.machines < 1:
            raise ValueError(f"machines must be at least 1, got {self.machines}")
        if len(self.processing) != len(self.weights):
            raise ValueError("one weight per job required")
        for j, row in enumerate(self.processing):
            if len(row) != self.machines:
                raise ValueError(f"job {j + 1}: expected {self.machines} processing times")
            # written so that NaN fails too
            if not all(0 <= p < math.inf for p in row):
                raise ValueError(f"job {j + 1}: processing times must be finite and nonnegative")
        if not all(0 < w < math.inf for w in self.weights):
            raise ValueError("weights must be positive and finite")

    @property
    def job_count(self) -> int:
        return len(self.processing)


def reduce_open_shop(
    shop: OpenShopInstance, model: RoutingModel = RoutingModel.SINGLE_PATH
) -> Instance:
    """Map the shop onto disjoint unit edges, one per machine.

    Machine i becomes edge ``m{i}`` from ``x{i}`` to ``y{i}``; job j
    becomes a coflow with one flow of demand ``p[j][i]`` per machine it
    actually uses. Each pair has exactly one route, so the same instance
    is valid in either routing model. Releases are all zero. A shop with
    no jobs is refused before anything is built.
    """
    if not shop.processing:
        raise ValueError("shop has no jobs")
    nodes = []
    edges = []
    for i in range(shop.machines):
        nodes.extend([f"x{i + 1}", f"y{i + 1}"])
        edges.append(Edge(id=f"m{i + 1}", src=f"x{i + 1}", dst=f"y{i + 1}", cap=1.0))
    coflows = []
    for j, row in enumerate(shop.processing):
        flows = tuple(
            Flow(
                src=f"x{i + 1}",
                dst=f"y{i + 1}",
                demand=p,
                release=0,
                path=(f"m{i + 1}",),
            )
            for i, p in enumerate(row)
            if p > 0
        )
        if not flows:
            raise ValueError(f"job {j + 1} has no positive processing time")
        coflows.append(Coflow(flows=flows, weight=shop.weights[j]))
    return Instance(
        network=Network(nodes=tuple(nodes), edges=tuple(edges)),
        coflows=tuple(coflows),
        model=model,
    )


def permutation_objective(shop: OpenShopInstance, order) -> float:
    """Weighted completion under one job order applied to every machine.

    Machines process back to back in ``order``; a job completes when the
    last machine it has work on finishes that work.
    """
    loads = [0.0] * shop.machines
    completion = [0.0] * shop.job_count
    for j in order:
        row = shop.processing[j]
        done = 0.0
        for i in range(shop.machines):
            if row[i] > 0:
                loads[i] += row[i]
                done = max(done, loads[i])
        completion[j] = done
    return math.fsum(w * c for w, c in zip(shop.weights, completion))


#: Most jobs :func:`open_shop_optimal` enumerates the permutations of.
MAX_ORACLE_JOBS = 8

#: How far a relaxation value may sit above the exact optimum before
#: :func:`check_lp_lower_bound` reports it.
LOWER_BOUND_TOL = 1e-6


def open_shop_optimal(shop: OpenShopInstance) -> tuple[float, tuple[int, ...]]:
    """Exact minimum weighted completion time and a witnessing permutation."""
    if shop.job_count > MAX_ORACLE_JOBS:
        raise ValueError(f"{shop.job_count} jobs exceeds the enumeration limit {MAX_ORACLE_JOBS}")
    best = math.inf
    best_order: tuple[int, ...] | None = None
    for order in itertools.permutations(range(shop.job_count)):
        value = permutation_objective(shop, order)
        if value < best - 1e-12:
            best = value
            best_order = order
    return best, best_order


def check_lp_lower_bound(
    instance: Instance, lp_objective: float, exact_objective: float
) -> str | None:
    """None if the relaxation value sits below the exact optimum, else a
    message describing the violation (which indicates an LP-builder bug).
    """
    if lp_objective <= exact_objective + LOWER_BOUND_TOL:
        return None
    return (
        f"relaxation value {lp_objective} exceeds exact optimum "
        f"{exact_objective} by {lp_objective - exact_objective:.3e}"
    )


def random_shop(
    rng: np.random.Generator,
    max_jobs: int = 6,
    max_machines: int = 4,
    max_time: int = 5,
    max_weight: int = 10,
) -> OpenShopInstance:
    """A random shop with integer data; every job gets at least one
    positive processing time so the reduction is well formed."""
    jobs = int(rng.integers(1, max_jobs + 1))
    machines = int(rng.integers(1, max_machines + 1))
    processing = []
    for _ in range(jobs):
        row = rng.integers(0, max_time + 1, size=machines)
        if not np.any(row > 0):
            row[int(rng.integers(0, machines))] = int(rng.integers(1, max_time + 1))
        processing.append(tuple(float(p) for p in row))
    weights = tuple(float(rng.integers(1, max_weight + 1)) for _ in range(jobs))
    return OpenShopInstance(machines=machines, processing=tuple(processing), weights=weights)

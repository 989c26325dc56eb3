"""The benchmark's workloads: what one request is, how its instance is
generated, and which ``run_pipeline`` calls solve it.

Every workload draws its instances from a fixed corpus of instance seeds
``0 .. corpus - 1``, visited in that order. A run is made of whole passes
over the corpus, so every run, and a program and its change, measure the
same instances in the same order, and ``reference.json`` holds the LP
objective of every instance a run can meet. The workload seed sets the
seed of each request's stretch-rounding trials; the LP does not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import coflownet as cn
from coflownet.generate import GenConfig, generate_instance

#: Every solve goes through HiGHS; the builtin simplex is not measured.
OPTIONS = cn.SolveOptions(backend="highs")


@dataclass(frozen=True)
class Call:
    """One ``run_pipeline`` call made for each request."""

    strategy: str
    trials: int
    epsilon: float | None = None


@dataclass(frozen=True)
class Item:
    """A generated request input: its corpus seed, the coflow instance,
    the open shop it was reduced from (shop workloads only) and the seed of
    its rounding trials."""

    seed: int
    instance: cn.Instance
    shop: cn.OpenShopInstance | None = None
    trial_seed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple[Call, ...]
    corpus: int
    make: Callable[[int], Item]
    #: A small instance of the same kind, solved once during set-up so that
    #: lazy imports and first-call costs stay out of the timed region.
    warmup: Callable[[], Item]


def _gscale(model: cn.RoutingModel, jobs: int, release_mean: float) -> Callable[[int], Item]:
    def make(seed: int) -> Item:
        config = GenConfig(
            topology="gscale-like", model=model, jobs=jobs, release_mean=release_mean, seed=seed
        )
        return Item(seed=seed, instance=generate_instance(config))

    return make


def _shop(seed: int) -> Item:
    # the same shop distribution as acceptance criterion 3
    shop = cn.random_shop(
        np.random.default_rng(seed), max_jobs=6, max_machines=4, max_time=5, max_weight=10
    )
    return Item(seed=seed, instance=cn.reduce_open_shop(shop), shop=shop)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="slot-single-gscale40",
            why=(
                "slot LP build+solve is ~93% of each request and the LP uses 15 of its 171-slot "
                "horizon bound, so LP-size, prefix-row and horizon-shrink changes show here"
            ),
            calls=(Call("stretch", 20),),
            corpus=12,
            make=_gscale(cn.RoutingModel.SINGLE_PATH, 40, 0.0),
            warmup=lambda: _gscale(cn.RoutingModel.SINGLE_PATH, 4, 0.0)(10_000),
        ),
        Workload(
            name="free-release-gscale20",
            why=(
                "free-path flow rows replace cum as the LP bulk, releases make the LP use ~38% "
                "of its horizon, and only here the interval LP and expansion run"
            ),
            calls=(Call("stretch", 20), Call("interval-stretch", 20, 0.2)),
            corpus=12,
            make=_gscale(cn.RoutingModel.FREE_PATH, 20, 1.0),
            warmup=lambda: _gscale(cn.RoutingModel.FREE_PATH, 3, 1.0)(10_000),
        ),
        Workload(
            name="shop-oracle",
            why=(
                "open-shop reductions with 200 stretch trials: rounding is ~88% of each request, so "
                "derandomized lambda shows and LP changes read as none; an exact oracle checks each"
            ),
            calls=(Call("stretch", 200),),
            corpus=50,
            make=_shop,
            warmup=lambda: _shop(10_000),
        ),
    )
}


def requests(workload: Workload, seed: int) -> list[Item]:
    """The corpus in the order every pass visits it, each instance with the
    trial seed that workload seed ``seed`` gives it."""
    return [
        replace(workload.make(i), trial_seed=int(np.random.default_rng([seed, i]).integers(2**31)))
        for i in range(workload.corpus)
    ]


def run_calls(workload: Workload, item: Item) -> list[cn.PipelineResult]:
    """Solve one request exactly as a user would: one ``run_pipeline`` call
    per configured strategy, with the item's trial seed."""
    return [
        cn.run_pipeline(
            item.instance,
            strategy=call.strategy,
            trials=call.trials,
            seed=item.trial_seed,
            epsilon=call.epsilon,
            options=OPTIONS,
        )
        for call in workload.calls
    ]

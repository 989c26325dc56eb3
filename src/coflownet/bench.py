"""Benchmark sweeps: generated instances x strategies x grid epsilons,
one CSV row each.

Rows run one after another in a fixed order, so re-running with the same
seed reproduces the CSV bit for bit (wall_ms excepted), and each row's
wall_ms is that row's own time. A row that fails keeps its numeric fields
empty and records why in its ``error`` column, and the sweep keeps going.
A row whose model is too large to build (``HorizonTooLarge``, such as an
interval grid at a tiny epsilon) is not a failure of the row but of the
sweep's settings: it stops the sweep, as it stops ``solve``.

When the sweep lists both ``stretch`` and ``heuristic``, an instance's
slot LP is solved once: the ``heuristic`` row reads the factor-1 trial
that the ``stretch`` call rounded anyway (``as_heuristic``). Both rows
are then worked out before the instance's other rows, the ``heuristic``
row's wall_ms is its own extra work (building and verifying that
schedule), and when the shared call fails both rows carry its error.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from .generate import GenConfig, generate_instance
from .lp import HorizonTooLarge
from .pipeline import PipelineResult, as_heuristic, run_pipeline

CSV_HEADER = (
    "seed", "model", "strategy", "epsilon", "lp_objective", "schedule_objective", "ratio", "wall_ms",
    "error",
)


@dataclass(frozen=True)
class BenchConfig:
    gen: GenConfig = field(default_factory=GenConfig)
    instances: int = 3
    strategies: tuple[str, ...] = ("stretch", "heuristic")
    epsilons: tuple[float, ...] = (0.2,)
    trials: int = 20
    seed: int = 0


@dataclass(frozen=True)
class BenchRow:
    seed: int
    model: str
    strategy: str
    epsilon: float | None
    lp_objective: float | None
    schedule_objective: float | None
    wall_ms: float
    error: str | None = None

    @property
    def ratio(self) -> float | None:
        if self.lp_objective and self.schedule_objective is not None:
            return self.schedule_objective / self.lp_objective
        return None


def _attempt(run: Callable[[], PipelineResult]) -> tuple[PipelineResult | None, str | None, float]:
    """``run()``'s result or why it failed, and its wall time in ms."""
    start = time.perf_counter()
    result = error = None
    try:
        result = run()
    except HorizonTooLarge:
        raise
    except Exception as exc:  # per-row failures must not kill the sweep
        error = f"{type(exc).__name__}: {exc}"
    return result, error, (time.perf_counter() - start) * 1000.0


def _instance_rows(instance, config: BenchConfig, seed: int) -> list[BenchRow]:
    def pipeline(strategy: str, epsilon: float | None = None) -> PipelineResult:
        return run_pipeline(instance, strategy=strategy, trials=config.trials, seed=config.seed, epsilon=epsilon)

    shared = {}
    if {"stretch", "heuristic"} <= set(config.strategies):
        shared["stretch"] = stretch = _attempt(lambda: pipeline("stretch"))
        result, error, _ = stretch
        shared["heuristic"] = (None, error, 0.0) if error else _attempt(lambda: as_heuristic(result))
    rows = []
    for strategy in config.strategies:
        for eps in config.epsilons if strategy == "interval-stretch" else (None,):
            result, error, wall_ms = shared.pop(strategy, None) or _attempt(lambda: pipeline(strategy, eps))
            rows.append(
                BenchRow(
                    seed=seed,
                    model=instance.model.value,
                    strategy=strategy,
                    epsilon=eps,
                    lp_objective=None if result is None else result.lp_objective,
                    schedule_objective=None if result is None else result.report.objective,
                    wall_ms=wall_ms,
                    error=error,
                )
            )
    return rows


def run_bench(config: BenchConfig) -> list[BenchRow]:
    rows = []
    for k in range(config.instances):
        seed = config.seed + k
        instance = generate_instance(replace(config.gen, seed=seed))
        rows.extend(_instance_rows(instance, config, seed))
    return rows


def _num(value: float | None) -> str:
    return "" if value is None else f"{value:.9g}"


def rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row.seed,
                row.model,
                row.strategy,
                _num(row.epsilon),
                _num(row.lp_objective),
                _num(row.schedule_objective),
                _num(row.ratio),
                f"{row.wall_ms:.3f}",
                row.error or "",
            ]
        )
    return buf.getvalue()

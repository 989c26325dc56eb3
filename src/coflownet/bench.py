"""Benchmark sweeps: generated instances x strategies x grid epsilons,
one CSV row each.

Rows run one after another in a fixed order, so re-running with the same
seed reproduces the CSV bit for bit (wall_ms excepted), and each row's
wall_ms is that row's own time. A row that fails keeps its numeric fields
empty and records why in its ``error`` column, and the sweep keeps going.
A row whose model is too large to build (``HorizonTooLarge``, such as an
interval grid at a tiny epsilon) is not a failure of the row but of the
sweep's settings: it stops the sweep, as it stops ``solve``.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field, replace

from .generate import GenConfig, generate_instance
from .lp import HorizonTooLarge
from .pipeline import run_pipeline

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


def _run_row(instance, strategy: str, epsilon: float | None, config: BenchConfig, seed: int) -> BenchRow:
    start = time.perf_counter()
    lp_objective = schedule_objective = error = None
    try:
        result = run_pipeline(
            instance,
            strategy=strategy,
            trials=config.trials,
            seed=config.seed,
            epsilon=epsilon,
        )
        lp_objective, schedule_objective = result.lp_objective, result.report.objective
    except HorizonTooLarge:
        raise
    except Exception as exc:  # per-row failures must not kill the sweep
        error = f"{type(exc).__name__}: {exc}"
    return BenchRow(
        seed=seed,
        model=instance.model.value,
        strategy=strategy,
        epsilon=epsilon,
        lp_objective=lp_objective,
        schedule_objective=schedule_objective,
        wall_ms=(time.perf_counter() - start) * 1000.0,
        error=error,
    )


def run_bench(config: BenchConfig) -> list[BenchRow]:
    rows = []
    for k in range(config.instances):
        seed = config.seed + k
        instance = generate_instance(replace(config.gen, seed=seed))
        for strategy in config.strategies:
            epsilons = config.epsilons if strategy == "interval-stretch" else (None,)
            rows.extend(_run_row(instance, strategy, eps, config, seed) for eps in epsilons)
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

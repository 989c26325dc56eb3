"""Spans recorded from outside the library, and a traced replica of
``run_pipeline`` that calls the same public functions in the same order.

A span is (id, name, start, end, parent, request). Spans stay in memory
until the run ends. Layer spans are leaves under one ``pipeline.request``
root per request, so a layer's self time is its span's duration; the
root's self time is the glue between calls plus the tracing itself.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import coflownet as cn

#: Layer spans recorded inside the ``pipeline.request`` root, in call order.
LAYER_SPANS = (
    "lp.horizon",
    "lp.build",
    "solver.solve",
    "lp.extract",
    "rounding.expand",
    "model.as_fractional",
    "rounding.stretch",
    "verify.schedule",
)


class Spans:
    def __init__(self):
        self.rows: list[tuple[int, str, float, float, int | None, int]] = []

    @contextmanager
    def span(self, name: str, request: int, parent: int | None = None):
        span_id = len(self.rows)
        self.rows.append((span_id, name, 0.0, 0.0, parent, request))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.rows[span_id] = (span_id, name, start, time.perf_counter(), parent, request)

    def per_request(self) -> dict[int, dict[str, float]]:
        """Self time per request and span name (duration minus the time
        covered by the span's children)."""
        out: dict[int, dict[str, float]] = {}
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.rows:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for span_id, name, start, end, _, request in self.rows:
            totals = out.setdefault(request, {})
            own = end - start - child_time.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, request in self.rows:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )


@dataclass(frozen=True)
class TracedCall:
    problem: cn.LPProblem
    solution: cn.LPSolution
    fractional: cn.FractionalSchedule
    slot_lp: bool
    stretch: cn.StretchResult


def traced_call(spans: Spans, request: int, root: int, instance, call, seed: int, options) -> TracedCall:
    """``run_pipeline(instance, call.strategy, ...)`` split into its public
    calls, each under its own span. Raises what ``run_pipeline`` raises."""

    def span(name):
        return spans.span(name, request, root)

    if call.strategy == "interval-stretch":
        eps = 0.2 if call.epsilon is None else call.epsilon
        with span("lp.horizon"):
            grid = cn.interval_grid_for(instance, eps)
        with span("lp.build"):
            problem = cn.build_interval_lp(instance, grid)
        with span("solver.solve"):
            solution = cn.solve(problem, options)
        if solution.status is not cn.SolveStatus.OPTIMAL:
            raise cn.SolveFailure(solution.status)
        with span("lp.extract"):
            interval = cn.extract_interval_solution(problem, solution.x, instance, grid)
        with span("rounding.expand"):
            expanded = cn.expand_interval_schedule(interval, instance)
        with span("model.as_fractional"):
            fractional = cn.as_fractional(expanded, instance)
    elif call.strategy == "stretch":
        with span("lp.horizon"):
            horizon = cn.horizon_upper_bound(instance)
        with span("lp.build"):
            problem = cn.build_time_indexed_lp(instance, horizon)
        with span("solver.solve"):
            solution = cn.solve(problem, options)
        if solution.status is not cn.SolveStatus.OPTIMAL:
            raise cn.SolveFailure(solution.status)
        with span("lp.extract"):
            fractional = cn.extract_fractional(problem, solution.x, instance, horizon)
    else:
        raise ValueError(f"no traced replica for strategy {call.strategy!r}")
    with span("rounding.stretch"):
        stretch = cn.run_stretch(instance, fractional, trials=call.trials, seed=seed)
    with span("verify.schedule"):
        violations = cn.verify_schedule(stretch.best.schedule, instance)
    if violations:
        raise cn.VerificationFailure(violations)
    return TracedCall(problem, solution, fractional, call.strategy == "stretch", stretch)

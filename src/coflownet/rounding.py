"""Randomized stretch rounding of fractional schedules.

The pipeline: draw a factor ``lambda`` in (0, 1] (density 2v, so larger
factors are likelier), replay the fractional schedule with time dilated
by ``1/lambda`` at preserved rates, truncate every flow once its demand
is met, then compact idle slots forward. Each dilated slot is a convex
combination of at most two original slots (the overlap weights sum to
one), and truncation only ever scales a flow's slot contribution down,
so feasibility survives the whole chain.

Every step works on stacked arrays: a schedule's flows are the rows of
one (F, T) array in ``Instance.iter_flows`` order, and free-path edge
series the rows of one (R, T) array, each tagged with the flow that owns
it. Replaying rows on another time grid is one product with the sparse
slot-overlap matrix of :func:`_overlap`: its bounds are ``t / lambda``
for the dilation, and the grid boundaries for
``expand_interval_schedule``, which turns an interval-grid solution back
into per-slot rates (uniform speed within each interval) so the same
rounding applies to interval relaxations. Truncation is a running
difference along each row, compaction moves whole columns, and only the
results are sliced back into the nested ``RateSchedule``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np
import scipy.sparse as sp

from .lp import IntervalSolution
from .model import (
    AMOUNT_EPS,
    CompletionReport,
    FractionalSchedule,
    Instance,
    RateSchedule,
    completion_times,
)

#: Remaining demand fractions below this are treated as already met.
_DONE_EPS = 1e-12


@dataclass(frozen=True)
class Lambda:
    """A stretch factor in (0, 1]. The schedule is dilated by 1/value."""

    value: float

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"lambda must lie in (0, 1], got {self.value}")


@dataclass(frozen=True)
class StretchTrial:
    """One rounded schedule: the draw, the result, and both reports.

    ``pre_compaction`` is the completion report of the truncated stretch
    before idle slots were compacted; the per-coflow ceiling guarantee is
    stated against it.
    """

    lam: Lambda
    schedule: RateSchedule
    report: CompletionReport
    pre_compaction: CompletionReport


@dataclass(frozen=True)
class StretchResult:
    best: StretchTrial
    average_objective: float
    trials: tuple[StretchTrial, ...]


class StretchBoundError(AssertionError):
    """A trial violated the per-coflow completion ceiling (a bug)."""


def sample_lambda(u: float) -> Lambda:
    """Map a uniform draw ``u`` in (0, 1] through the inverse CDF of the
    density 2v, i.e. return sqrt(u). Deterministic in ``u``."""
    if not 0.0 < u <= 1.0:
        raise ValueError(f"uniform draw must lie in (0, 1], got {u}")
    return Lambda(math.sqrt(u))


def _overlap(bounds: np.ndarray, out_slots: int) -> sp.csr_matrix:
    """Slot-overlap matrix: entry (t, k) is the length of
    ``[bounds[t], bounds[t + 1]]`` inside unit slot ``k + 1`` (the real
    interval [k, k + 1]), over the first ``out_slots`` slots.

    Sending ``rates[:, t]`` per unit time over interval t lands on the
    slot grid as ``rates @ _overlap(bounds, out_slots)``. Consecutive
    intervals share at most one slot, so the matrix has at most
    ``len(bounds) - 1 + out_slots`` nonzeros.
    """
    a, b = bounds[:-1], bounds[1:]
    first = np.floor(a).astype(np.int64)
    counts = np.maximum(np.minimum(np.ceil(b).astype(np.int64), out_slots) - first, 0)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    rows = np.repeat(np.arange(a.size), counts)
    cols = np.arange(indptr[-1]) - np.repeat(indptr[:-1] - first, counts)
    ks = cols + 1.0
    data = np.clip(np.minimum(ks, b[rows]) - np.maximum(ks - 1.0, a[rows]), 0.0, None)
    # the index dtype scipy would choose, passed in so that it does not rescan
    index = np.int32 if a.size + out_slots < 2**31 else np.int64
    return sp.csr_matrix((data, cols.astype(index), indptr.astype(index)), shape=(a.size, out_slots))


def _above_dust(rows: np.ndarray) -> np.ndarray:
    """``rows`` with every entry at or below ``AMOUNT_EPS`` set to zero."""
    return np.where(rows > AMOUNT_EPS, rows, 0.0)


def _stack(rows, slots: int) -> np.ndarray:
    """Series of ``slots`` entries each as the rows of one array."""
    rows = list(rows)
    return np.array(rows, dtype=float).reshape(len(rows), slots)


def _stack_edges(nested, slots: int):
    """Free-path edge series as the rows of one (R, slots) array, with the
    stacked flow index owning each row and each row's edge id."""
    rows, owner, eids = [], [], []
    for f, by_edge in enumerate(chain.from_iterable(nested)):
        for eid, series in by_edge.items():
            rows.append(series)
            owner.append(f)
            eids.append(eid)
    return _stack(rows, slots), np.array(owner, dtype=np.int64), eids


def _unstack(slots: int, like, amounts: np.ndarray, edges=None) -> RateSchedule:
    """Slice stacked rows back into a ``RateSchedule`` nested like
    ``like``; ``edges`` is ``(rows, owner, eids)`` as from ``_stack_edges``."""

    def nest(rows):
        flat = iter(rows)
        return tuple(tuple(islice(flat, len(flows))) for flows in like)

    edge_amounts = None
    if edges is not None:
        by_flow = [{} for _ in range(len(amounts))]
        for series, f, eid in zip(*edges):
            by_flow[f][eid] = series
        edge_amounts = nest(by_flow)
    return RateSchedule(slot_count=slots, amounts=nest(amounts), edge_amounts=edge_amounts)


def stretch_schedule(fractional: FractionalSchedule, lam: Lambda, instance: Instance) -> RateSchedule:
    """Dilate ``fractional`` by 1/lam, then truncate each flow at demand.

    Truncation happens at slot boundaries: once a flow's cumulative raw
    amount would pass 1, the whole slot contribution is scaled by the
    remaining fraction, and (free-path) the slot's per-edge amounts are
    scaled identically so conservation is untouched. Rejects ``lam``
    below ``1/(10 * slot_count)`` to bound the dilated horizon.
    """
    horizon = fractional.slot_count
    if lam.value < 1.0 / (10.0 * horizon):
        raise ValueError(f"lambda {lam.value} below the 1/(10*{horizon}) memory guard")
    out_slots = int(math.ceil(horizon / lam.value - 1e-12))
    dilate = _overlap(np.arange(horizon + 1) / lam.value, out_slots)
    rates = _stack(chain.from_iterable(fractional.fractions), horizon)
    # solver dust is dropped before dilating, overlap dust after it
    raw = _above_dust(_above_dust(rates) @ dilate)
    # demand left before each slot, 1 - raw[0] - raw[1] - ..., subtracted in slot order
    left = np.subtract.accumulate(np.hstack([np.ones((len(raw), 1)), raw[:, :-1]]), axis=1)
    taken = np.where(left > _DONE_EPS, np.minimum(raw, left), 0.0)
    edges = None
    if fractional.edge_fractions is not None:
        factors = np.divide(taken, raw, out=np.zeros_like(raw), where=raw > 0.0)
        rows, owner, eids = _stack_edges(fractional.edge_fractions, horizon)
        scaled = (_above_dust(rows) @ dilate) * factors[owner]
        keep = np.any(scaled > AMOUNT_EPS, axis=1)
        edges = (scaled[keep], owner[keep], [e for e, k in zip(eids, keep) if k])
    return _unstack(out_slots, fractional.fractions, taken, edges)


def compact_idle_slots(schedule: RateSchedule, instance: Instance) -> RateSchedule:
    """Move each busy slot's entire content to the earliest idle slot all
    its flows have been released before (strictly). Scans slots in
    ascending order; freed slots become candidates for later content.
    Never delays any flow, so no coflow's completion time can grow.

    A slot is busy when some flow sends more than ``AMOUNT_EPS`` in it;
    moving it moves the whole slot (every flow and edge series) and
    leaves an empty one behind.
    """
    slots = schedule.slot_count
    amounts = _stack(chain.from_iterable(schedule.amounts), slots)
    users = amounts > AMOUNT_EPS
    release = np.array([fl.release for _, _, _, fl in instance.iter_flows()])
    # 0-based: a flow released at r may use column r (slot r + 1) onwards
    earliest = np.where(users, release[:, None], 0).max(axis=0, initial=0).tolist()
    busy = users.any(axis=0)
    idle = np.flatnonzero(~busy).tolist()
    source = np.arange(slots)  # column c ends up holding column source[c]; `slots` is empty
    for t in np.flatnonzero(busy).tolist():
        pos = bisect.bisect_left(idle, earliest[t])
        if pos >= len(idle) or idle[pos] >= t:
            continue
        target = idle.pop(pos)
        source[target], source[t] = t, slots
        bisect.insort(idle, t)

    def moved(rows: np.ndarray) -> np.ndarray:
        return np.hstack([rows, np.zeros((len(rows), 1))])[:, source]

    amounts = moved(amounts)
    used = np.flatnonzero((amounts > AMOUNT_EPS).any(axis=0))
    last_busy = int(used[-1]) + 1 if used.size else 1
    edges = None
    if schedule.edge_amounts is not None:
        rows, owner, eids = _stack_edges(schedule.edge_amounts, slots)
        edges = (moved(rows)[:, :last_busy], owner, eids)
    return _unstack(last_busy, schedule.amounts, amounts[:, :last_busy], edges)


def expand_interval_schedule(solution: IntervalSolution, instance: Instance) -> RateSchedule:
    """Spread each interval's fraction over its slots at uniform speed.

    An interval of length L carrying fraction y contributes rate y/L to
    every slot it overlaps, pro-rated on boundary slots, so per-slot edge
    loads inherit feasibility from the length-scaled interval capacities.
    """
    grid = solution.grid
    steps = grid.interval_count
    out_slots = int(math.ceil(grid.horizon - 1e-9))
    spread = _overlap(np.array(grid.boundaries), out_slots)
    lengths = np.array(grid.lengths)

    def expand(rows: np.ndarray) -> np.ndarray:
        return (_above_dust(rows) / lengths) @ spread

    amounts = expand(_stack(chain.from_iterable(solution.fractions), steps))
    edges = None
    if solution.edge_fractions is not None:
        rows, owner, eids = _stack_edges(solution.edge_fractions, steps)
        edges = (expand(rows), owner, eids)
    return _unstack(out_slots, solution.fractions, amounts, edges)


# ---------------------------------------------------------------------------
# lambda points and the per-trial completion ceiling


def lambda_point(fractional: FractionalSchedule, coflow: int, lam: float) -> float:
    """Earliest continuous time by which a ``lam`` fraction of every flow
    of the coflow is scheduled, under uniform rates within each slot."""
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    levels = np.concatenate([[0.0], fractional.cumulative[coflow]])
    levels = np.maximum.accumulate(levels)  # guard solver dust
    k = int(np.searchsorted(levels, lam, side="left"))
    if k >= levels.size:
        if levels[-1] >= lam - 1e-9:
            return float(levels.size - 1)
        raise ValueError(f"coflow {coflow + 1} never reaches fraction {lam}")
    rise = levels[k] - levels[k - 1]
    return float(k - 1 + (lam - levels[k - 1]) / rise)


def completion_ceilings(fractional: FractionalSchedule, lam: Lambda) -> tuple[int, ...]:
    """Per-coflow bound ceil(lambda_point / lambda) that every stretched,
    truncated (pre-compaction) schedule must respect."""
    return tuple(
        int(math.ceil(lambda_point(fractional, j, lam.value) / lam.value - 1e-9))
        for j in range(len(fractional.cumulative))
    )


def _check_ceilings(
    fractional: FractionalSchedule, lam: Lambda, pre: CompletionReport
) -> None:
    bounds = completion_ceilings(fractional, lam)
    for j, (got, bound) in enumerate(zip(pre.completions, bounds)):
        if got > bound:
            raise StretchBoundError(
                f"coflow {j + 1} finished in slot {got} > ceiling {bound} "
                f"at lambda {lam.value}"
            )


# ---------------------------------------------------------------------------
# trial protocols


def run_stretch(
    instance: Instance,
    fractional: FractionalSchedule,
    trials: int,
    seed: int,
) -> StretchResult:
    """Run ``trials`` independent stretch roundings and fold the results.

    One splittable seed drives everything: trial ``k`` draws from
    substream ``k``, so best/average are reproducible and trials could be
    evaluated in parallel without changing the outcome. Sampled factors
    are floored at the stretch memory guard (an event with probability
    below 1e-4 at desk scale).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    floor = 1.0 / (10.0 * fractional.slot_count)
    out: list[StretchTrial] = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        u = 1.0 - rng.random()
        lam = sample_lambda(u)
        if lam.value < floor:
            lam = Lambda(floor)
        out.append(_one_trial(instance, fractional, lam))
    best = min(range(trials), key=lambda k: (out[k].report.objective, k))
    average = float(np.mean([t.report.objective for t in out]))
    return StretchResult(best=out[best], average_objective=average, trials=tuple(out))


def _one_trial(instance: Instance, fractional: FractionalSchedule, lam: Lambda) -> StretchTrial:
    stretched = stretch_schedule(fractional, lam, instance)
    pre = completion_times(stretched, instance)
    _check_ceilings(fractional, lam, pre)
    compacted = compact_idle_slots(stretched, instance)
    report = completion_times(compacted, instance)
    return StretchTrial(lam=lam, schedule=compacted, report=report, pre_compaction=pre)


def lp_heuristic(instance: Instance, fractional: FractionalSchedule) -> StretchTrial:
    """Take the fractional schedule as-is (stretch factor 1) and compact.

    Its objective is not bounded by the relaxation value in the worst
    case, but it is a strong heuristic in practice.
    """
    return _one_trial(instance, fractional, Lambda(1.0))

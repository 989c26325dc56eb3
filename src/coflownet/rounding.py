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
it. Since lambda <= 1, every source slot dilates to at least one unit of
time, so unit slot k of the stretch overlaps one or two source slots and
receives ``rates[:, t0[k]] * w0[k] + rates[:, t1[k]] * w1[k]``; the two
taps ``t0``, ``t1`` and their overlap lengths ``w0``, ``w1`` come from
:func:`_taps`. Truncation is a running difference along each row,
compaction moves whole columns, completion slots are array reductions,
and only the results are sliced back into the nested ``RateSchedule``.

:func:`run_stretch` does everything that does not depend on lambda once
per call: the dust-filtered rate and edge stacks, each flow's coflow,
release and weight, the taps of every drawn factor (one pass over all
their dilated slots) and the completion ceilings of every drawn factor
(one pass per coflow). A trial is then a few numpy operations on arrays
the size of its own schedule; no sparse matrix is built.
``stretch_schedule``, ``compact_idle_slots`` and ``lp_heuristic`` run the
same kernel on a single factor.

``expand_interval_schedule`` turns an interval-grid solution back into
per-slot rates (uniform speed within each interval) so the same rounding
applies to interval relaxations. Geometric intervals can be shorter than
a slot and share it, so there the replay is a product with the sparse
slot-overlap matrix of :func:`_overlap`, whose entries come from the same
arithmetic as the taps.
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
    completion_report,
    flow_coflows,
)

#: Remaining demand fractions below this are treated as already met.
_DONE_EPS = 1e-12

#: Most trials one ``run_stretch`` call runs. Every trial keeps its own
#: compacted schedule, and the trial seeds are spawned up front, so the
#: memory of a call grows with this; the test suite uses at most 200.
MAX_TRIALS = 10_000


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


def _overlap_entries(a: np.ndarray, b: np.ndarray, out_slots):
    """Nonzeros of the slot-overlap matrix of the intervals ``[a[t], b[t]]``
    in row order, as ``(indptr, rows, cols, data)``: entry (t, k) is the
    length of interval t inside unit slot ``k + 1`` (the real interval
    [k, k + 1]), for k below ``out_slots`` (one bound, or one per interval).
    """
    first = np.floor(a).astype(np.int64)
    counts = np.maximum(np.minimum(np.ceil(b).astype(np.int64), out_slots) - first, 0)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    rows = np.repeat(np.arange(a.size), counts)
    cols = np.arange(indptr[-1]) - np.repeat(indptr[:-1] - first, counts)
    ks = cols + 1.0
    data = np.clip(np.minimum(ks, b[rows]) - np.maximum(ks - 1.0, a[rows]), 0.0, None)
    return indptr, rows, cols, data


def _overlap(bounds: np.ndarray, out_slots: int) -> sp.csr_matrix:
    """Slot-overlap matrix: entry (t, k) is the length of
    ``[bounds[t], bounds[t + 1]]`` inside unit slot ``k + 1`` (the real
    interval [k, k + 1]), over the first ``out_slots`` slots.

    Sending ``rates[:, t]`` per unit time over interval t lands on the
    slot grid as ``rates @ _overlap(bounds, out_slots)``. Consecutive
    intervals share at most one slot, so the matrix has at most
    ``len(bounds) - 1 + out_slots`` nonzeros.
    """
    indptr, _, cols, data = _overlap_entries(bounds[:-1], bounds[1:], out_slots)
    # the index dtype scipy would choose, passed in so that it does not rescan
    index = np.int32 if bounds.size - 1 + out_slots < 2**31 else np.int64
    return sp.csr_matrix(
        (data, cols.astype(index), indptr.astype(index)), shape=(bounds.size - 1, out_slots)
    )


def _taps(horizon: int, values: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Per stretch factor in ``values``, the taps ``(t0, w0, t1, w1)`` of
    each unit slot k of the dilated schedule: slot k receives
    ``rates[:, t0[k]] * w0[k] + rates[:, t1[k]] * w1[k]``.

    The weights are the entries of ``_overlap(arange(horizon + 1) / lam,
    out_slots)``, column by column. A factor of at most 1 dilates every
    source slot to at least one unit, so each unit slot meets one or two
    of them; a lone tap is paired with itself at weight 0. One pass over
    the O(sum of out_slots) entries serves every factor.
    """
    out_slots = np.ceil(horizon / values - 1e-12).astype(np.int64)
    bounds = np.arange(horizon + 1) / values[:, None]
    _, rows, cols, data = _overlap_entries(
        bounds[:, :-1].ravel(), bounds[:, 1:].ravel(), np.repeat(out_slots, horizon)
    )
    trial, source = np.divmod(rows, horizon)
    ends = np.cumsum(out_slots)
    # entries come in column order, trial after trial
    counts = np.bincount(cols + (ends - out_slots)[trial], minlength=ends[-1])
    assert counts.min() >= 1 and counts.max() <= 2, "a unit slot meets one or two source slots"
    first = np.cumsum(counts) - counts
    last = first + counts - 1
    taps = source[first], data[first], source[last], np.where(counts == 2, data[last], 0.0)
    return list(zip(*(np.split(x, ends[:-1]) for x in taps)))


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


def _releases(instance: Instance) -> np.ndarray:
    return np.array([fl.release for _, _, _, fl in instance.iter_flows()], dtype=np.int64)


def _compact(amounts: np.ndarray, edges, release: np.ndarray):
    """:func:`compact_idle_slots` on stacked rows: the moved amounts and
    edges (``(rows, owner, eids)`` or None), cut after the last busy slot.
    Slots move whole, so the busy slots after the moves are the targets
    and the slots that stayed."""
    slots = amounts.shape[1]
    users = amounts > AMOUNT_EPS
    # 0-based: a flow released at r may use column r (slot r + 1) onwards
    earliest = np.where(users, release[:, None], 0).max(axis=0, initial=0).tolist()
    busy = users.any(axis=0)
    idle = np.flatnonzero(~busy).tolist()
    source = np.arange(slots)  # column c ends up holding column source[c]; `slots` is empty
    last_busy = 1  # one past the last column still busy after the moves (at least 1)
    for t in np.flatnonzero(busy).tolist():
        pos = bisect.bisect_left(idle, earliest[t])
        if pos >= len(idle) or idle[pos] >= t:
            last_busy = t + 1
            continue
        target = idle.pop(pos)
        source[target], source[t] = t, slots
        bisect.insort(idle, t)
        last_busy = max(last_busy, target + 1)
    source = source[:last_busy]

    def moved(rows: np.ndarray) -> np.ndarray:
        return np.concatenate([rows, np.zeros((len(rows), 1))], axis=1)[:, source]

    if edges is not None:
        rows, owner, eids = edges
        edges = (moved(rows), owner, eids)
    return moved(amounts), edges


class _Kernel:
    """Stretch trials on one fractional schedule, with everything that
    does not depend on the stretch factor computed once."""

    def __init__(self, instance: Instance, fractional: FractionalSchedule):
        horizon = fractional.slot_count
        self.fractional = fractional
        # solver dust is dropped before dilating, overlap dust after it
        self.rates = _above_dust(_stack(chain.from_iterable(fractional.fractions), horizon))
        self.edges = None
        if fractional.edge_fractions is not None:
            rows, owner, eids = _stack_edges(fractional.edge_fractions, horizon)
            self.edges = (_above_dust(rows), owner, eids)
        self.coflow = flow_coflows(instance)
        self.release = _releases(instance)
        self.weights = [cf.weight for cf in instance.coflows]

    def stretch(self, taps):
        """Dilate the stacked rows through ``taps`` (see :func:`_taps`) and
        truncate every flow at its demand: the taken amounts, and the kept
        edge rows as ``(rows, owner, eids)`` (free path) or None."""
        t0, w0, t1, w1 = taps
        raw = _above_dust(self.rates[:, t0] * w0 + self.rates[:, t1] * w1)
        # demand left before each slot, 1 - raw[0] - raw[1] - ..., subtracted in slot order
        left = np.subtract.accumulate(
            np.concatenate([np.ones((len(raw), 1)), raw[:, :-1]], axis=1), axis=1
        )
        taken = np.where(left > _DONE_EPS, np.minimum(raw, left), 0.0)
        if self.edges is None:
            return taken, None
        rows, owner, eids = self.edges
        factors = np.divide(taken, raw, out=np.zeros_like(raw), where=raw > 0.0)
        scaled = (rows[:, t0] * w0 + rows[:, t1] * w1) * factors[owner]
        keep = np.any(scaled > AMOUNT_EPS, axis=1)
        return taken, (scaled[keep], owner[keep], [e for e, k in zip(eids, keep) if k])

    def trials(self, lams: list[Lambda]) -> list[StretchTrial]:
        """Stretch, check against the ceiling, compact and report each factor."""
        values = np.array([lam.value for lam in lams])
        ceilings = _ceilings(self.fractional, values).tolist()
        taps = _taps(self.fractional.slot_count, values)
        return [self._trial(*args) for args in zip(lams, taps, ceilings)]

    def _trial(self, lam: Lambda, taps, ceiling: list[int]) -> StretchTrial:
        taken, edges = self.stretch(taps)
        pre = completion_report(taken, self.coflow, self.weights)
        for j, (got, bound) in enumerate(zip(pre.completions, ceiling)):
            if got > bound:
                raise StretchBoundError(
                    f"coflow {j + 1} finished in slot {got} > ceiling {bound} "
                    f"at lambda {lam.value}"
                )
        amounts, edges = _compact(taken, edges, self.release)
        schedule = _unstack(amounts.shape[1], self.fractional.fractions, amounts, edges)
        report = completion_report(amounts, self.coflow, self.weights)
        return StretchTrial(lam=lam, schedule=schedule, report=report, pre_compaction=pre)


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
    (taps,) = _taps(horizon, np.array([lam.value]))
    taken, edges = _Kernel(instance, fractional).stretch(taps)
    return _unstack(taken.shape[1], fractional.fractions, taken, edges)


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
    edges = None
    if schedule.edge_amounts is not None:
        edges = _stack_edges(schedule.edge_amounts, slots)
    amounts, edges = _compact(amounts, edges, _releases(instance))
    return _unstack(amounts.shape[1], schedule.amounts, amounts, edges)


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


def _lambda_points(fractional: FractionalSchedule, coflow: int, values: np.ndarray) -> np.ndarray:
    """:func:`lambda_point` of ``coflow`` for every fraction in ``values``."""
    levels = np.concatenate([[0.0], fractional.cumulative[coflow]])
    levels = np.maximum.accumulate(levels)  # guard solver dust
    k = np.searchsorted(levels, values, side="left")
    beyond = k >= levels.size
    never = beyond & ~(levels[-1] >= values - 1e-9)
    if never.any():
        raise ValueError(f"coflow {coflow + 1} never reaches fraction {float(values[never][0])}")
    points = np.full(values.shape, levels.size - 1.0)
    k, lam = k[~beyond], values[~beyond]
    points[~beyond] = k - 1 + (lam - levels[k - 1]) / (levels[k] - levels[k - 1])
    return points


def _ceilings(fractional: FractionalSchedule, values: np.ndarray) -> np.ndarray:
    """:func:`completion_ceilings` for every factor in ``values``: one row
    per factor, one column per coflow."""
    coflows = len(fractional.cumulative)
    points = np.array([_lambda_points(fractional, j, values) for j in range(coflows)])
    return np.ceil(points.reshape(coflows, values.size) / values - 1e-9).astype(np.int64).T


def lambda_point(fractional: FractionalSchedule, coflow: int, lam: float) -> float:
    """Earliest continuous time by which a ``lam`` fraction of every flow
    of the coflow is scheduled, under uniform rates within each slot."""
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    return float(_lambda_points(fractional, coflow, np.array([lam], dtype=float))[0])


def completion_ceilings(fractional: FractionalSchedule, lam: Lambda) -> tuple[int, ...]:
    """Per-coflow bound ceil(lambda_point / lambda) that every stretched,
    truncated (pre-compaction) schedule must respect."""
    return tuple(_ceilings(fractional, np.array([lam.value]))[0].tolist())


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
    below 1e-4 at desk scale). At most ``MAX_TRIALS`` trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > MAX_TRIALS:
        raise ValueError(f"at most {MAX_TRIALS:,} trials, got {trials:,}")
    floor = 1.0 / (10.0 * fractional.slot_count)
    lams: list[Lambda] = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        lam = sample_lambda(1.0 - rng.random())
        lams.append(lam if lam.value >= floor else Lambda(floor))
    out = _Kernel(instance, fractional).trials(lams)
    best = min(range(trials), key=lambda k: (out[k].report.objective, k))
    average = float(np.mean([t.report.objective for t in out]))
    return StretchResult(best=out[best], average_objective=average, trials=tuple(out))


def lp_heuristic(instance: Instance, fractional: FractionalSchedule) -> StretchTrial:
    """Take the fractional schedule as-is (stretch factor 1) and compact.

    Its objective is not bounded by the relaxation value in the worst
    case, but it is a strong heuristic in practice.
    """
    return _Kernel(instance, fractional).trials([Lambda(1.0)])[0]

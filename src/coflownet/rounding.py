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
release and weight, the last source slot that carries anything (later
slots only dilate to idle ones, which compaction drops) and the
completion ceilings of every drawn factor (one pass per coflow). It then
rounds the trials in batches: a batch lays its trials end to end along
the slot axis, dilates and truncates them in one pass over their used
slots, and reads both completion reports of every trial off reductions
over the flow rows, never touching the edge series. Without releases,
compaction packs the busy slots to the front in order, so a coflow's
compacted completion is the number of busy slots up to its completion
before compaction; with releases, the greedy compaction plan runs per
trial on the amounts only. Every call also rounds the factor 1 (the
LP's own schedule, truncated and compacted) after the drawn factors, in
the same batches.

Every call also builds one alpha-point list schedule from the same
fractional schedule (Hall, Schulz, Shmoys & Wein 1997): the coflows in
order of their lambda points at 1/2, each flow routed by a fixed mix (its
path, or its LP edge split summed over slots), and each slot filled
greedily in that order (:func:`_list_fill`). The chosen trial is the
first of least objective among the drawn factors and factor 1, and the
list schedule replaces it only when strictly better.

``run_stretch`` keeps every trial's completions and objective as arrays
and makes trial objects for the chosen trial, the factor-1 trial and the
list schedule only; the sampled trials are made when
``StretchResult.trials`` is first read. Only the chosen schedule is
built; any other trial builds its own when its ``schedule`` is read.
``stretch_schedule``, ``compact_idle_slots`` and ``lp_heuristic`` run the
same kernel on a single factor.

``expand_interval_schedule`` turns an interval-grid solution back into
per-slot rates (uniform speed within each interval) so the same rounding
applies to interval relaxations. Geometric intervals can be shorter than
a slot and share it, so there the replay is a product with the sparse
slot-overlap matrix of :func:`_overlap`, whose entries come from the same
arithmetic as the taps. The matrix is a :class:`~coflownet.csr.CSR`, and
``rates @ spread`` runs scipy's ``csc_matvecs`` kernel on it, as
``scipy.sparse`` would, without importing that package.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, islice
from typing import Callable

import numpy as np

from .csr import CSR
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

#: Most cells (flows times dilated slots) ``run_stretch`` rounds in one
#: batch. A batch takes trials in trial order while they fit, and a trial
#: larger than this is a batch of its own, so the working memory of a call
#: does not grow with its number of trials.
_BATCH_CELLS = 1 << 18

#: Most trials one ``run_stretch`` call runs. Trials are rounded in
#: batches of at most ``_BATCH_CELLS`` cells and only the chosen trial's
#: schedule is built, so a call keeps a factor and two completion reports
#: per trial; the test suite runs this many once.
MAX_TRIALS = 10_000


def check_trials(trials: int) -> None:
    """:class:`ValueError` unless ``1 <= trials <= MAX_TRIALS``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > MAX_TRIALS:
        raise ValueError(f"at most {MAX_TRIALS:,} trials, got {trials:,}")


@dataclass(frozen=True)
class Lambda:
    """A stretch factor in (0, 1]. The schedule is dilated by 1/value."""

    value: float

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"lambda must lie in (0, 1], got {self.value}")


@dataclass(frozen=True)
class StretchTrial:
    """One rounded schedule: the draw, both reports, and the schedule.

    ``lam`` is None for the list schedule, which no factor makes.
    ``pre_compaction`` is the completion report of the truncated stretch
    before idle slots were compacted; the per-coflow ceiling guarantee is
    stated against it. The list schedule leaves no slot idle that a later
    slot's flows could move to, so its two reports are one. ``schedule``
    is made by ``build`` when first read: ``run_stretch`` and
    ``lp_heuristic`` build it for the trial they choose, and no other.
    """

    lam: Lambda | None
    report: CompletionReport
    pre_compaction: CompletionReport
    build: Callable[[], RateSchedule] = field(repr=False, compare=False)

    @cached_property
    def schedule(self) -> RateSchedule:
        """The compacted schedule."""
        return self.build()


@dataclass(frozen=True)
class StretchResult:
    """One :func:`run_stretch` call: the chosen trial, the sampled trials
    and their mean objective, the trial at factor 1 and the list schedule.

    ``best`` is the first trial of least objective among the sampled
    trials and then ``unstretched`` (so that one wins only strictly),
    unless ``listed`` is strictly better still. ``trials`` and
    ``average_objective`` hold the sampled trials only; ``trials`` is
    made by ``build_trials`` when first read, and holds ``best`` itself
    when a sampled trial is chosen.
    """

    best: StretchTrial
    average_objective: float
    unstretched: StretchTrial
    listed: StretchTrial
    build_trials: Callable[[], tuple[StretchTrial, ...]] = field(repr=False, compare=False)

    @cached_property
    def trials(self) -> tuple[StretchTrial, ...]:
        """The sampled trials, in draw order."""
        return self.build_trials()


class StretchBoundError(AssertionError):
    """A trial violated the per-coflow completion ceiling (a bug)."""


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


def _overlap(bounds: np.ndarray, out_slots: int) -> CSR:
    """Slot-overlap matrix: entry (t, k) is the length of
    ``[bounds[t], bounds[t + 1]]`` inside unit slot ``k + 1`` (the real
    interval [k, k + 1]), over the first ``out_slots`` slots.

    Sending ``rates[:, t]`` per unit time over interval t lands on the
    slot grid as ``rates @ _overlap(bounds, out_slots)``. Consecutive
    intervals share at most one slot, so the matrix has at most
    ``len(bounds) - 1 + out_slots`` nonzeros.
    """
    indptr, _, cols, data = _overlap_entries(bounds[:-1], bounds[1:], out_slots)
    return CSR(indptr, cols, data, (bounds.size - 1, out_slots))


def _out_slots(horizon: int, values: np.ndarray) -> np.ndarray:
    """Unit slots of ``horizon`` source slots dilated by 1/value, per value."""
    return np.ceil(horizon / values - 1e-12).astype(np.int64)


def _taps(horizon: int, values: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The taps ``(t0, w0, t1, w1)`` of every unit slot k of the dilated
    schedules, laid end to end in the order of ``values``, and the number
    of unit slots of each: slot k receives
    ``rates[:, t0[k]] * w0[k] + rates[:, t1[k]] * w1[k]``.

    A factor's weights are the entries of ``_overlap(arange(horizon + 1) /
    lam, out_slots)``, column by column. A factor of at most 1 dilates
    every source slot to at least one unit, so each unit slot meets one or
    two of them; a lone tap is paired with itself at weight 0. One pass
    over the O(sum of out_slots) entries serves every factor.
    """
    out_slots = _out_slots(horizon, values)
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
    return (source[first], data[first], source[last], np.where(counts == 2, data[last], 0.0)), out_slots


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


def _unstack(slots: int, like, amounts: np.ndarray, splits=None) -> RateSchedule:
    """Slice stacked rows back into a ``RateSchedule`` nested like
    ``like``; ``splits`` is ``(rows, owner, eids)`` as from ``_stack_edges``."""

    def nest(rows):
        flat = iter(rows)
        return tuple(tuple(islice(flat, len(flows))) for flows in like)

    edge_amounts = None
    if splits is not None:
        by_flow = [{} for _ in range(len(amounts))]
        for series, f, eid in zip(*splits):
            by_flow[f][eid] = series
        edge_amounts = nest(by_flow)
    return RateSchedule(slot_count=slots, amounts=nest(amounts), edge_amounts=edge_amounts)


def _releases(instance: Instance) -> np.ndarray:
    return np.array([fl.release for _, _, _, fl in instance.iter_flows()], dtype=np.int64)


def _plan(users: np.ndarray, release: np.ndarray) -> np.ndarray:
    """Compaction's moves for a schedule whose entries above ``AMOUNT_EPS``
    are ``users`` (one row per flow, released at ``release``): column c of
    the compacted schedule is column ``source[c]``, where index
    ``users.shape[1]`` stands for an emptied column, cut after the last
    busy column (at least one column is kept)."""
    slots = users.shape[1]
    busy = users.any(axis=0)
    if not release.any():
        # every busy slot moves to the earliest idle slot before it, so the
        # busy slots end up packed at the front in their order
        source = np.flatnonzero(busy)
        return source if source.size else np.zeros(1, dtype=np.int64)
    # 0-based: a flow released at r may use column r (slot r + 1) onwards
    earliest = np.where(users, release[:, None], 0).max(axis=0, initial=0).tolist()
    idle = np.flatnonzero(~busy).tolist()
    source = np.arange(slots)
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
    return source[:last_busy]


def _moved(rows: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Columns ``source`` of ``rows``; index ``rows.shape[1]`` is an empty column."""
    return np.concatenate([rows, np.zeros((len(rows), 1), dtype=rows.dtype)], axis=1)[:, source]


def _compact(amounts: np.ndarray, splits, release: np.ndarray):
    """:func:`compact_idle_slots` on stacked rows: the moved amounts and
    edge splits (``(rows, owner, eids)`` or None), cut after the last busy
    slot. Slots move whole, so the busy slots after the moves are the
    targets and the slots that stayed."""
    source = _plan(amounts > AMOUNT_EPS, release)
    if splits is not None:
        rows, owner, eids = splits
        splits = (_moved(rows, source), owner, eids)
    return _moved(amounts, source), splits


def _objectives(completions: np.ndarray, weights: np.ndarray) -> list[float]:
    """The objective of every row of ``completions`` (one column per
    coflow), summed exactly as ``weighted_objective`` sums it."""
    return [math.fsum(terms) for terms in (weights * completions).tolist()]


def _report(completions: np.ndarray, weights: np.ndarray) -> CompletionReport:
    """The report of one row of per-coflow completion slots."""
    (objective,) = _objectives(completions[None], weights)
    return CompletionReport(tuple(completions.tolist()), objective)


def _alpha_order(fractional: FractionalSchedule) -> list[int]:
    """The coflows in order of their lambda points at 1/2, ties by index."""
    points = _lambda_table(fractional, np.array([0.5]))[:, 0].tolist()
    return sorted(range(len(points)), key=points.__getitem__)


def _list_fill(order: list[int], loads: list, release: list[int], caps: list[float]) -> np.ndarray:
    """Amounts, one row per flow, of the list schedule of the flows in
    ``order``: in each slot t, with every edge's residual capacity at
    ``caps`` to start, each flow released before t sends the least of what
    it has left and ``residual / w`` over its ``loads`` pairs ``(edge, w)``
    (``w`` the edge's load per unit fraction), and the residuals fall by
    its amount times ``w``. A flow within ``_DONE_EPS`` of its demand is
    done.

    After the last release the first flow not done sends its solo rate
    ``min(cap / w)`` or finishes, so the schedule ends within the max
    release plus, per flow, ``ceil(1 / solo rate)`` slots; the loop stops
    there at the latest.
    """
    solo = (min(caps[e] / w for e, w in load) for load in loads)
    bound = max(release, default=0) + sum(math.ceil(1.0 / rate) for rate in solo)
    remaining = [1.0] * len(loads)
    sent: list[tuple[int, int, float]] = []
    pending = list(order)
    t = 0
    while pending:
        # slots in which no pending flow is released yet stay idle
        t = max(t + 1, min(release[f] for f in pending) + 1)
        if t > bound:
            raise AssertionError(f"list schedule ran past its bound of {bound} slots")
        residual = list(caps)
        for f in pending:
            if release[f] >= t:
                continue
            load = loads[f]
            amount = remaining[f]
            for e, w in load:
                room = residual[e] / w
                if room < amount:
                    amount = room
            if amount > 0.0:
                for e, w in load:
                    residual[e] -= amount * w
                remaining[f] -= amount
                sent.append((f, t - 1, amount))
        pending = [f for f in pending if remaining[f] > _DONE_EPS]
    amounts = np.zeros((len(loads), max(t, 1)))
    if sent:
        rows, cols, values = zip(*sent)
        amounts[rows, cols] = values
    return amounts


class _Kernel:
    """Stretch trials on one fractional schedule, with everything that
    does not depend on the stretch factor computed once."""

    def __init__(self, instance: Instance, fractional: FractionalSchedule):
        horizon = fractional.slot_count
        self.fractional = fractional
        # solver dust is dropped before dilating, overlap dust after it
        self.rates = _above_dust(_stack(chain.from_iterable(fractional.fractions), horizon))
        carries = self.rates.any(axis=0)
        self.edges = None
        if fractional.edge_fractions is not None:
            rows, owner, eids = _stack_edges(fractional.edge_fractions, horizon)
            self.edges = (_above_dust(rows), owner, eids)
            carries |= self.edges[0].any(axis=0)
        # source slots after the last that carries anything dilate to idle
        # slots, which compaction drops
        self.used = int(np.flatnonzero(carries)[-1]) + 1 if carries.any() else 1
        self.coflow = flow_coflows(instance)
        self.release = _releases(instance)
        self.weights = np.array([cf.weight for cf in instance.coflows], dtype=float)

    def _truncate(self, taps, starts: np.ndarray, ends: np.ndarray):
        """Dilate the stacked rates through ``taps`` (see :func:`_taps`) and
        truncate every flow at its demand within each trial's columns
        ``starts[k]:ends[k]``: the raw and the taken amounts."""
        t0, w0, t1, w1 = taps
        raw = _above_dust(self.rates[:, t0] * w0 + self.rates[:, t1] * w1)
        # demand left before each slot, 1 - raw[0] - raw[1] - ..., subtracted in slot order
        before = np.empty_like(raw)
        before[:, 1:] = raw[:, :-1]
        before[:, starts] = 1.0
        left = np.empty_like(raw)
        for a, b in zip(starts.tolist(), ends.tolist()):
            np.subtract.accumulate(before[:, a:b], axis=1, out=left[:, a:b])
        return raw, np.where(left > _DONE_EPS, np.minimum(raw, left), 0.0)

    def stretch(self, taps):
        """Dilate and truncate one trial (``taps`` of one factor): the taken
        amounts, and the kept edge rows as ``(rows, owner, eids)`` (free
        path) or None."""
        t0, w0, t1, w1 = taps
        raw, taken = self._truncate(taps, np.zeros(1, dtype=np.int64), np.array([t0.size]))
        if self.edges is None:
            return taken, None
        rows, owner, eids = self.edges
        factors = np.divide(taken, raw, out=np.zeros_like(raw), where=raw > 0.0)
        scaled = (rows[:, t0] * w0 + rows[:, t1] * w1) * factors[owner]
        keep = np.any(scaled > AMOUNT_EPS, axis=1)
        return taken, (scaled[keep], owner[keep], [e for e, k in zip(eids, keep) if k])

    def schedule(self, lam: Lambda) -> RateSchedule:
        """The compacted schedule of the trial at ``lam``."""
        taps, _ = _taps(self.used, np.array([lam.value]))
        amounts, edges = _compact(*self.stretch(taps), self.release)
        return _unstack(amounts.shape[1], self.fractional.fractions, amounts, edges)

    def _by_coflow(self, last: np.ndarray) -> np.ndarray:
        """Per-flow completion slots, one column per trial, as one row per
        trial of per-coflow ones."""
        done = np.zeros((len(self.weights), last.shape[1]), dtype=np.int64)
        np.maximum.at(done, self.coflow, last)
        return done.T

    def _batch(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Completion slots before and after compaction of the trials at
        ``values``, laid end to end along the slot axis."""
        taps, out_slots = _taps(self.used, values)
        ends = np.cumsum(out_slots)
        starts = ends - out_slots
        users = self._truncate(taps, starts, ends)[1] > AMOUNT_EPS
        slot = np.arange(1, ends[-1] + 1) - np.repeat(starts, out_slots)  # 1-based, per trial
        pre = self._by_coflow(np.maximum.reduceat(np.where(users, slot, 0), starts, axis=1))
        if not self.release.any():
            # compaction packs the busy slots to the front in order (see
            # _plan): a coflow then ends in the number of busy slots up to
            # the one it ended in before
            busy = np.concatenate([[0], np.cumsum(users.any(axis=0))])
            return pre, busy[starts[:, None] + pre] - busy[starts][:, None]
        last = np.zeros((len(users), values.size), dtype=np.int64)
        for k, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
            moved = _moved(users[:, a:b], _plan(users[:, a:b], self.release))
            last[:, k] = np.where(moved, np.arange(1, moved.shape[1] + 1), 0).max(axis=1, initial=0)
        return pre, self._by_coflow(last)

    def rounds(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Completion slots before and after compaction of the trial at
        every factor in ``values``, one row per trial, rounded in batches
        of at most ``_BATCH_CELLS`` cells; every trial is checked against
        its ceiling, in trial order."""
        ceilings = _ceilings(self.fractional, values)
        pre = np.empty((values.size, self.weights.size), dtype=np.int64)
        post = np.empty_like(pre)
        ends = np.cumsum(_out_slots(self.used, values) * max(len(self.rates), 1))
        start = 0
        while start < values.size:
            limit = (ends[start - 1] if start else 0) + _BATCH_CELLS
            stop = max(int(np.searchsorted(ends, limit, side="right")), start + 1)
            pre[start:stop], post[start:stop] = self._batch(values[start:stop])
            start = stop
        over = np.argwhere(pre > ceilings)
        if over.size:
            k, j = over[0].tolist()
            raise StretchBoundError(
                f"coflow {j + 1} finished in slot {pre[k, j]} > ceiling {ceilings[k, j]} "
                f"at lambda {values[k]}"
            )
        return pre, post

    def trial(self, value: float, pre: np.ndarray, post: np.ndarray) -> StretchTrial:
        """The trial at factor ``value`` from its rows of :meth:`rounds`."""
        lam = Lambda(value)
        report, pre_compaction = _report(post, self.weights), _report(pre, self.weights)
        return StretchTrial(lam, report, pre_compaction, build=partial(self.schedule, lam))

    def listed(self, instance: Instance) -> StretchTrial:
        """The alpha-point list schedule (:func:`_list_fill`) as a trial
        without a factor. A single-path flow puts its demand on every
        path edge; a free-path flow puts its demand times ``sigma`` on each
        edge, its dust-filtered LP edge split summed over slots. A flow's
        edge series are its amounts times ``sigma``, so they conserve
        flow as the LP's do."""
        network = instance.network
        index = {e.id: k for k, e in enumerate(network.edges)}
        flows = [fl for _, _, _, fl in instance.iter_flows()]
        sigma = None
        if self.edges is None:
            loads = [[(index[eid], fl.demand) for eid in fl.path] for fl in flows]
        else:
            rows, owner, eids = self.edges
            sigma = rows.sum(axis=1)
            loads = [[] for _ in flows]
            for f, eid, share in zip(owner.tolist(), eids, sigma.tolist()):
                if share > 0.0:
                    loads[f].append((index[eid], flows[f].demand * share))
        # each coflow's flows are consecutive in iter_flows order
        first = np.searchsorted(self.coflow, np.arange(len(self.weights) + 1)).tolist()
        order = [f for j in _alpha_order(self.fractional) for f in range(first[j], first[j + 1])]
        amounts = _list_fill(order, loads, self.release.tolist(), [e.cap for e in network.edges])
        report = completion_report(amounts, self.coflow, self.weights)
        return StretchTrial(None, report, report, build=partial(self._listed_schedule, amounts, sigma))

    def _listed_schedule(self, amounts: np.ndarray, sigma: np.ndarray | None) -> RateSchedule:
        """The list schedule of ``amounts``, with free-path edge rows
        ``amounts * sigma`` for every edge row of positive ``sigma``."""
        edges = None
        if sigma is not None:
            _, owner, eids = self.edges
            keep = sigma > 0.0
            rows = amounts[owner[keep]] * sigma[keep, None]
            edges = (rows, owner[keep], [e for e, k in zip(eids, keep) if k])
        return _unstack(amounts.shape[1], self.fractional.fractions, amounts, edges)


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
    taps, _ = _taps(horizon, np.array([lam.value]))
    taken, edges = _Kernel(instance, fractional).stretch(taps)
    return _unstack(taken.shape[1], fractional.fractions, taken, edges)


def compact_idle_slots(schedule: RateSchedule, instance: Instance) -> RateSchedule:
    """Move each busy slot's entire content to the earliest idle slot all
    its flows have been released before (strictly). Scans slots in
    ascending order; freed slots become candidates for later content.
    Never delays any flow, so no coflow's completion time can grow.

    A slot is busy when some flow sends more than ``AMOUNT_EPS`` in it;
    moving it moves the whole slot (every flow and edge series) and
    leaves an empty one behind. When no flow has a release, this packs the
    busy slots to the front in order, and that is done as one gather.
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


def _lambda_table(fractional: FractionalSchedule, values: np.ndarray) -> np.ndarray:
    """:func:`lambda_point` of every coflow (rows) for every fraction in
    ``values`` (columns), bitwise :func:`_lambda_points` row by row, in one
    pass over the stacked progress rows.

    Where :func:`_lambda_points` finds each fraction's first level at or
    above it by a search per coflow, this counts each coflow's levels
    below each fraction at once: every level falls into the sorted
    fractions at some rank, and a coflow's levels below the fraction of
    rank m are those with rank at most m.
    """
    coflows = len(fractional.cumulative)
    levels = np.zeros((coflows, fractional.slot_count + 1))
    levels[:, 1:] = fractional.cumulative
    levels = np.maximum.accumulate(levels, axis=1)  # guard solver dust
    order = np.argsort(values, kind="stable")
    rank = np.searchsorted(values[order], levels, side="right")
    cells = (values.size + 1) * np.arange(coflows)[:, None] + rank
    below = np.bincount(cells.ravel(), minlength=coflows * (values.size + 1))
    k = np.empty((coflows, values.size), dtype=np.int64)
    k[:, order] = np.cumsum(below.reshape(coflows, values.size + 1), axis=1)[:, :-1]
    beyond = k >= levels.shape[1]
    never = beyond & ~(levels[:, -1:] >= values - 1e-9)
    if never.any():
        j, m = np.argwhere(never)[0].tolist()
        raise ValueError(f"coflow {j + 1} never reaches fraction {float(values[m])}")
    points = np.full(k.shape, levels.shape[1] - 1.0)
    rows, cols = np.nonzero(~beyond)
    k, lam = k[rows, cols], values[cols]
    low, high = levels[rows, k - 1], levels[rows, k]
    points[rows, cols] = k - 1 + (lam - low) / (high - low)
    return points


def _ceilings(fractional: FractionalSchedule, values: np.ndarray) -> np.ndarray:
    """:func:`completion_ceilings` for every factor in ``values``: one row
    per factor, one column per coflow."""
    points = _lambda_table(fractional, values)
    return np.ceil(points / values - 1e-9).astype(np.int64).T


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


def _draw_factors(trials: int, seed: int, slot_count: int) -> np.ndarray:
    """``trials`` stretch factors of density 2v on (0, 1]: the inverse CDF
    sqrt of uniforms drawn from one generator seeded with ``seed``, floored
    at the stretch memory guard ``1/(10 * slot_count)`` (an event with
    probability below 1e-4 at desk scale). More trials extend the stream."""
    u = np.random.default_rng(seed).random(trials)
    return np.maximum(np.sqrt(1.0 - u), 1.0 / (10.0 * slot_count))


def run_stretch(
    instance: Instance,
    fractional: FractionalSchedule,
    trials: int,
    seed: int,
) -> StretchResult:
    """Run ``trials`` independent stretch roundings, plus one at factor 1
    and the alpha-point list schedule, and fold the results.

    The factor-1 trial is rounded after the drawn ones, in the same
    batches and under the same ceiling check, and is chosen only when it
    strictly beats every drawn one; the list schedule is chosen only when
    it strictly beats both. Since the minimum of the candidates is at most
    the best drawn one, the bound on the expected drawn objective still
    holds for the chosen one. The seed fixes every factor, so the result
    is reproducible. At most ``MAX_TRIALS`` drawn trials. Only the chosen
    schedule is built here, and only the chosen, factor-1 and list trial
    objects are made; the sampled ones are made when first read.
    """
    check_trials(trials)
    kernel = _Kernel(instance, fractional)
    values = np.append(_draw_factors(trials, seed, fractional.slot_count), 1.0)
    pre, post = kernel.rounds(values)
    objectives = _objectives(post, kernel.weights)
    factors = values.tolist()

    def trial(k: int) -> StretchTrial:
        return kernel.trial(factors[k], pre[k], post[k])

    # min keeps the first of equal objectives, so the factor-1 trial (last) wins only strictly
    first = min(range(trials + 1), key=objectives.__getitem__)
    unstretched = trial(trials)
    chosen = unstretched if first == trials else trial(first)
    listed = kernel.listed(instance)
    best = listed if listed.report.objective < chosen.report.objective else chosen
    best.schedule  # built now, as part of the rounding

    def sampled() -> tuple[StretchTrial, ...]:
        return tuple(chosen if k == first else trial(k) for k in range(trials))

    return StretchResult(
        best=best,
        average_objective=float(np.mean(objectives[:-1])),
        unstretched=unstretched,
        listed=listed,
        build_trials=sampled,
    )


def lp_heuristic(instance: Instance, fractional: FractionalSchedule) -> StretchTrial:
    """Take the fractional schedule as-is (stretch factor 1) and compact.

    Its objective is not bounded by the relaxation value in the worst
    case, but it is a strong heuristic in practice. It is bitwise the
    ``unstretched`` trial of :func:`run_stretch` on the same input.
    """
    kernel = _Kernel(instance, fractional)
    pre, post = kernel.rounds(np.array([1.0]))
    trial = kernel.trial(1.0, pre[0], post[0])
    trial.schedule  # built now, as part of the rounding
    return trial

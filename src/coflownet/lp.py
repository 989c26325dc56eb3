"""Builders for the slot-indexed and geometric-interval linear relaxations.

Both relaxations share one variable vocabulary, indexed per coflow ``j``
(1-based), flow ``i`` within the coflow, time step ``t`` (slot or
interval), and edge id ``e``:

- ``X_j_t``    fraction of coflow j completed by the end of step t
- ``S_j_i_t``  fraction of flow (j, i) scheduled by the end of step t;
  the flow sends ``S_j_i_t - S_j_i_{t-1}`` in step t
- ``xe_j_i_t_e``  free-path only: fraction of flow (j, i) routed over
  edge e during step t

Every flow is done by the last step: ``S_j_i_T`` has bounds [1, 1].

Constraint families (row-name prefixes):

- ``cum``  coflow progress is capped by each member flow's prefix sum,
  ``cum_j_i_t``: ``X_j_t - S_j_i_t <= 0``, and a flow never sends a
  negative amount, ``cum_j_i_t_s``: ``S_j_i_t - S_j_i_{t-1} >= 0`` for
  ``t >= 2`` (``S_j_i_1 >= 0`` is its column bound)
- ``cap``  per (edge, step) capacity; demand-scaled loads fit the
  per-step capacity (interval steps scale capacity by interval length).
  A single-path flow loads each edge of its path with
  ``demand * (S_t - S_{t-1})``, a free-path flow with ``demand * xe``
- ``src``/``snk``/``bal``  free-path flow conservation: source out-flow
  and sink in-flow match the step's amount ``S_t - S_{t-1}``, interior
  nodes balance

The objective is the weighted completion bound
``C_j = 1 + sum_t len_t * (1 - X_j_t)`` (slot steps have ``len_t = 1``),
the mean-progress lower bound, with ``C_j`` substituted out: each
``X_j_t`` costs ``-w_j * len_t``, and the constant
``sum_j w_j * (1 + sum_t len_t)`` is :attr:`LPProblem.offset`.

The two relaxations differ only in their step boundaries (slot t is
``(t - 1, t]``, interval t is ``(tau_{t-1}, tau_t]``), and one assembly
(``_assemble``) derives all of their time structure from them. Release
times are enforced by fixing variables to zero rather than by rows: a
flow released at ``r`` gets ``S`` (and ``xe``) upper bounds of 0 for
every step that starts before ``r``. Every other ``xe`` column has the
upper bound its ``cap`` row implies, ``len_t * cap_e / demand``, so every
column is bounded, as the solver's weak-duality certificate needs.

The assembly never touches a row in Python. Columns are index blocks
laid out in the order ``X`` (J x T), ``S`` (F x T), then one T x E_f
block of ``xe`` per free-path flow f over its E_f usable edges. Each row
family is emitted as numpy arrays of per-row nonzero counts, column
indices, values and row bounds: ``cum_j_i_t``, free-path flow rows,
``cap``, then ``cum_j_i_t_s``.
The ``src``/``snk``/``bal`` rows of a flow are a one-step incidence
template over its usable edges plus its ``S`` columns, tiled across
steps by column offset; ``cap`` rows gather each edge's users per step.
The counts give the CSR ``indptr`` directly, and the matrix is a
:class:`~coflownet.csr.CSR`: four arrays whose products and selections
run scipy's own sparse kernels without importing ``scipy.sparse`` (see
:mod:`coflownet.csr`). Names are not built: each
column block and row family records a :data:`NameBlock` pattern, and
:class:`LPProblem` builds the strings when they are first read.

Every row's columns sit in its own step or the step before, so the
layout and the matrix tell the solver where each column and row sits in
time, and it can solve a prefix of the steps, with each flow's ``S``
pinned at 1 at the prefix's end, and certify that prefix optimal for the
whole relaxation. The assembly records only the prefix worth trying
first, :attr:`LPProblem.first_prefix`. The solver slices the prefix from
a relaxation built whole (:func:`coflownet.solver.solve`), or has the
assembly build only the prefix's steps, a rung, from the instance
(:func:`coflownet.solver.solve_relaxation`, which the pipeline calls):
a rung's arrays are bitwise the sliced ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .csr import CSR
from .model import FractionalSchedule, Instance, RoutingModel, coflow_progress


@dataclass(frozen=True)
class ColumnLayout:
    """Column indices of the variable blocks a builder created.

    Row ``j`` of ``X`` holds the step columns ``X_{j+1}_1 .. X_{j+1}_T``.
    Row ``f`` of ``S`` holds the step columns ``S_j_i_1 .. S_j_i_T`` of
    the f-th flow in ``Instance.iter_flows`` order; ``S[:, -1]`` is each
    flow's last ``S``, at 1. For free path, ``xe[f]`` maps each usable
    edge id of that flow to its step columns ``xe_j_i_t_e``.
    """

    X: np.ndarray
    S: np.ndarray
    xe: tuple[dict[str, np.ndarray], ...] | None = None


#: How to name a run of columns or rows: ``(fmt, axes)`` names them
#: ``fmt.format(*combo)`` for each ``combo`` of ``itertools.product(*axes)``.
NameBlock = tuple[str, tuple]


def _named(names) -> tuple[NameBlock, ...]:
    """The naming of exactly ``names``, in order."""
    return (("{}", (tuple(names),)),)


def _name_count(naming: tuple[NameBlock, ...]) -> int:
    return sum(math.prod(map(len, axes)) for _, axes in naming)


def _names(naming: tuple[NameBlock, ...]) -> tuple[str, ...]:
    return tuple(fmt.format(*combo) for fmt, axes in naming for combo in product(*axes))


@dataclass(frozen=True)
class LPProblem:
    """``min offset + objective @ x`` subject to
    ``row_lower <= A @ x <= row_upper`` and ``col_lower <= x <= col_upper``;
    immutable after construction.

    ``A`` is a :class:`~coflownet.csr.CSR` matrix, checked when it was
    made. Every row is an equality (equal bounds) or
    one-sided (the other bound infinite). Column and row names are
    unique, and built on first read of ``col_names``/``row_names`` from
    ``col_naming``/``row_naming`` (see :data:`NameBlock`): the relaxation
    builders record one block per variable or row family, unique by
    construction. ``layout`` and ``first_prefix`` are set by the
    relaxation builders: solution extraction and the solver read the
    layout, and only :func:`coflownet.solver.solve` reads
    ``first_prefix``, the step count worth trying first
    (:func:`_first_prefix`).
    """

    objective: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    A: CSR
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_naming: tuple[NameBlock, ...]
    row_naming: tuple[NameBlock, ...]
    offset: float = 0.0
    layout: ColumnLayout | None = None
    first_prefix: int | None = None

    def __post_init__(self):
        rows, cols = self.A.shape
        if (rows, cols) != (_name_count(self.row_naming), _name_count(self.col_naming)):
            raise ValueError(f"matrix shape {self.A.shape} does not match the names")
        # HiGHS reads these through raw pointers, sized by the matrix
        if {len(self.objective), len(self.col_lower), len(self.col_upper)} != {cols}:
            raise ValueError(f"objective and column bounds must have {cols} entries")
        if {len(self.row_lower), len(self.row_upper)} != {rows}:
            raise ValueError(f"row bounds must have {rows} entries")
        values = (self.objective, self.col_lower, self.col_upper, self.row_lower, self.row_upper)
        if any(np.isnan(v).any() for v in (*values, self.A.data)):
            raise ValueError("objective, bounds and matrix values must not be NaN")
        if np.isinf(self.objective).any():
            raise ValueError("objective coefficients must be finite")
        if not math.isfinite(self.offset):
            raise ValueError("objective offset must be finite")
        one_sided = np.isinf(self.row_lower) != np.isinf(self.row_upper)
        if not np.all(one_sided | (self.row_lower == self.row_upper)):
            raise ValueError("every row must be an equality or one-sided")

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @cached_property
    def col_names(self) -> tuple[str, ...]:
        return _names(self.col_naming)

    @cached_property
    def row_names(self) -> tuple[str, ...]:
        return _names(self.row_naming)

    @cached_property
    def row_cols(self) -> tuple[np.ndarray, ...]:
        """Column indices of each row, as read-only views into ``A``."""
        indices = self.A.indices.view()
        indices.flags.writeable = False
        bounds = self.A.indptr.tolist()
        return tuple(indices[a:b] for a, b in zip(bounds[:-1], bounds[1:]))


# ---------------------------------------------------------------------------
# horizon


def _ceil_slots(value: float) -> int:
    """Slots for a demand/capacity ratio of ``value``;
    :class:`HorizonTooLarge` when the ratio overflowed to infinity."""
    if not math.isfinite(value):
        raise HorizonTooLarge(f"a demand/capacity ratio of {value} slots is too large to build")
    # guard against 3.0000000001-style float noise before taking the ceiling
    return max(1, int(math.ceil(value - 1e-9)))


def _solo_slots(instance: Instance):
    """Per flow in ``iter_flows`` order: the flow and the slots it needs
    alone, its demand over its rate alone (``Instance.solo_rates``)."""
    for (_, _, _, fl), rate in zip(instance.iter_flows(), instance.solo_rates):
        yield fl, _ceil_slots(fl.demand / rate)


def horizon_upper_bound(instance: Instance) -> int:
    """A slot count by which some feasible schedule finishes everything.

    max release plus, summed over flows, the slots one flow needs alone.
    Scheduling flows one at a time after the last release realizes this
    bound, so it is always feasible.
    """
    return instance.max_release + sum(slots for _, slots in _solo_slots(instance))


def horizon_lower_bound(instance: Instance) -> int:
    """A slot count below which no schedule, and no solution of the slot
    LP, finishes every flow: the largest ``release + slots`` of
    :func:`_lower_bound_terms`.
    """
    return max(release + slots for release, slots in _lower_bound_terms(instance))


def _lower_bound_terms(instance: Instance) -> list[tuple[int, int]]:
    """``(release, slots)`` pairs such that no schedule, and no solution of
    the slot LP, finishes every flow within ``slots`` slots after
    ``release``.

    - Single path: per flow, its release and the slots it needs alone at
      its path bottleneck; and release 0 with the slots the most loaded
      edge needs for the summed demand of the flows routed over it.
    - Free path, per node v and release r: the slots v's out-edges need
      for the demand of the flows out of v released at r or later, which
      may use only slots after r; likewise v's in-edges for the flows
      into v. A flow's max-flow slots are not a term, because of an open
      defect (ROADMAP item 1): the relaxations' ``src``/``snk`` rows, and
      ``verify_schedule``, count a flow's gross out-flow of its source and
      gross in-flow of its sink. A cycle back into the source is then
      counted as delivered, which lets both beat the max-flow rate.
    """
    if instance.model is RoutingModel.SINGLE_PATH:
        solo = list(_solo_slots(instance))
        load: dict[str, float] = {}
        for fl, _ in solo:
            for eid in fl.path:
                load[eid] = load.get(eid, 0.0) + fl.demand
        edges = instance.network.edge_by_id
        edge_slots = (_ceil_slots(v / edges[eid].cap) for eid, v in load.items())
        return [(fl.release, slots) for fl, slots in solo] + [(0, max(edge_slots, default=0))]
    flows = sorted(instance.iter_flows(), key=lambda item: -item[3].release)
    terms = []
    for end in ("src", "dst"):
        cap: dict[str, float] = {}
        for e in instance.network.edges:
            cap[getattr(e, end)] = cap.get(getattr(e, end), 0.0) + e.cap
        demand: dict[str, float] = {}
        for j, i, _, fl in flows:
            node = getattr(fl, end)
            if not cap.get(node, 0.0) > 1e-12:  # NaN fails too
                raise ValueError(f"unroutable flow: coflow {j + 1} flow {i + 1}")
            demand[node] = demand.get(node, 0.0) + fl.demand
            terms.append((fl.release, _ceil_slots(demand[node] / cap[node])))
    return terms


def columns_per_slot(instance: Instance) -> int:
    """Columns the slot LP has per slot: ``X`` per coflow and ``S`` per
    flow, plus one ``xe`` per usable edge of each free-path flow
    (``Instance.flow_edges``)."""
    per_slot = len(instance.coflows) + instance.flow_count
    if instance.model is RoutingModel.FREE_PATH:
        per_slot += sum(map(len, instance.flow_edges))
    return per_slot


#: Most LP columns the pipeline allocates anything for that grows with
#: the horizon: slots (``horizon_upper_bound``) or intervals of the grid,
#: times ``columns_per_slot``. That covers the slot LP, the interval LP and
#: the interval schedule's expansion to slots. Building the slot LP takes
#: about 330 bytes per column.
MAX_SLOT_COLUMNS = 2_000_000


class HorizonTooLarge(ValueError):
    """The horizon bound, or the interval grid over it, makes the model too
    large to build, or its objective too large to sum."""


def checked_horizon(instance: Instance) -> int:
    """``horizon_upper_bound(instance)``, or :class:`HorizonTooLarge` when
    that many slots times the columns per slot exceeds ``MAX_SLOT_COLUMNS``."""
    horizon = horizon_upper_bound(instance)
    per_slot = columns_per_slot(instance)
    if horizon * per_slot > MAX_SLOT_COLUMNS:
        raise HorizonTooLarge(
            f"horizon bound of {horizon:,} slots needs about {horizon * per_slot:,} LP columns "
            f"({per_slot:,} per slot), more than the limit of {MAX_SLOT_COLUMNS:,}"
        )
    return horizon


# ---------------------------------------------------------------------------
# geometric interval grid


@dataclass(frozen=True)
class IntervalGrid:
    """Geometric time partition: boundaries 0, 1, (1+eps), (1+eps)^2, ...

    ``interval_count`` follows ``1 + ceil(log_{1+eps} T)`` for the horizon
    the grid was built for, and the final boundary covers that horizon.
    """

    epsilon: float
    boundaries: tuple[float, ...]

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if any(b >= a for a, b in zip(self.boundaries[1:], self.boundaries)):
            raise ValueError("boundaries must be strictly increasing")

    @property
    def interval_count(self) -> int:
        return len(self.boundaries) - 1

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.boundaries, self.boundaries[1:]))

    @property
    def horizon(self) -> float:
        return self.boundaries[-1]


def geometric_intervals(horizon: int, epsilon: float, per_step: int = 1) -> IntervalGrid:
    """Grid whose k-th boundary is ``(1+eps)^(k-1)``, covering ``horizon``.

    :class:`HorizonTooLarge` when its interval count, taken in closed form
    before anything is built, times ``per_step`` (the LP columns of one
    interval) exceeds ``MAX_SLOT_COLUMNS``. That also bounds the loop
    below: at a tiny ``eps``, ``1 + eps`` rounds to 1 and it never ends.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if horizon == 1:
        count = 1
    else:
        ratio = math.log(horizon) / math.log1p(epsilon)
        count = 1 + math.ceil(ratio - 1e-9) if ratio < math.inf else math.inf
        if count * per_step > MAX_SLOT_COLUMNS:
            raise HorizonTooLarge(
                f"epsilon {epsilon:g} needs {float(count):.3g} intervals to cover {horizon:,} slots, "
                f"about {float(count) * per_step:.3g} LP columns ({per_step:,} per interval), "
                f"more than the limit of {MAX_SLOT_COLUMNS:,}"
            )
        while (1.0 + epsilon) ** (count - 1) < horizon - 1e-9:
            count += 1
    boundaries = [0.0, 1.0]
    for k in range(2, count + 1):
        boundaries.append((1.0 + epsilon) ** (k - 1))
    return IntervalGrid(epsilon=epsilon, boundaries=tuple(boundaries))


def interval_grid_for(instance: Instance, epsilon: float) -> IntervalGrid:
    """A grid sized for the instance, padded so released flows still fit.

    Flows may only use intervals wholly after their release, so a grid
    that merely reaches the horizon bound may leave too little room after
    the last release; pad until the demand horizon fits past the first
    boundary at or beyond the max release. :class:`HorizonTooLarge` when
    the interval LP over the grid would have more than
    ``MAX_SLOT_COLUMNS`` columns.
    """
    per_step, release = columns_per_slot(instance), instance.max_release
    target = horizon_upper_bound(instance)
    demand_slots = target - release
    while True:
        grid = geometric_intervals(target, epsilon, per_step)
        first_after = next(b for b in grid.boundaries if b >= release - 1e-9)
        if grid.horizon >= first_after + demand_slots - 1e-9:
            return grid
        target = int(math.ceil(first_after + demand_slots))


# ---------------------------------------------------------------------------
# LP assembly


def _block(naming: NameBlock, counts, indices, data, lower, upper):
    """One row family in row order: its naming, nonzeros per row, column
    indices, values and row bounds; scalars broadcast."""
    rows = _name_count((naming,))
    return (
        naming, np.broadcast_to(counts, rows), indices, np.broadcast_to(data, len(indices)),
        np.broadcast_to(lower, rows), np.broadcast_to(upper, rows),
    )


def _flow_rows(tag: str, fl, usable, sums: np.ndarray, first: int):
    """``src``/``snk``/``bal`` rows of one free-path flow on its ``usable``
    edges, whose ``xe`` columns start at ``first`` and whose ``S`` columns
    are ``sums``, one block of ``len(usable)`` per step."""
    ins: dict[str, list[int]] = {}  # node -> positions of its in-edges in ``usable``
    outs: dict[str, list[int]] = {}
    for k, e in enumerate(usable):
        outs.setdefault(e.src, []).append(k)
        ins.setdefault(e.dst, []).append(k)
    interior = sorted((ins.keys() | outs.keys()) - {fl.src, fl.dst})
    # per step: src_<tag>_<t>, snk_<tag>_<t>, then bal_<tag>_<t>_<v> per interior v
    kinds = (("src", ""), ("snk", ""), *(("bal", f"_{v}") for v in interior))
    # one step's rows as (+1 columns, -1 columns): the step's amount leaves
    # the source and enters the sink; -1 stands for the step's S, -2 for
    # the previous step's, which step 1 does not have
    template = [(outs.get(fl.src, []) + [-2], [-1]), (ins.get(fl.dst, []) + [-2], [-1])]
    template += [(ins.get(v, []), outs.get(v, [])) for v in interior]
    local = np.array([k for plus, minus in template for k in plus + minus], dtype=np.int64)
    vals = [v for plus, minus in template for v in [1.0] * len(plus) + [-1.0] * len(minus)]
    row = np.repeat(np.arange(len(template)), [len(plus) + len(minus) for plus, minus in template])
    steps = len(sums)
    cols = first + len(usable) * np.arange(steps)[:, None] + local
    cols[:, local == -1] = sums[:, None]
    cols[1:, local == -2] = sums[:-1, None]
    keep = np.ones(cols.shape, dtype=bool)
    keep[0, local == -2] = False
    naming = ("{2[0]}_{0}_{1}{2[1]}", ((tag,), range(1, steps + 1), kinds))
    rows = len(template) * np.arange(steps)[:, None] + row
    counts = np.bincount(rows[keep], minlength=steps * len(template))
    data = np.broadcast_to(vals, cols.shape)[keep]
    return _block(naming, counts, cols[keep], data, 0.0, 0.0)


def _cap_rows(network, users: dict[str, list], lengths: np.ndarray):
    """``cap`` rows per used edge and step; ``users[e]`` lists the entries
    of edge e's rows: per entry its column at step 1, its column stride per
    step, its coefficient and the first step (0-based) it appears in."""
    steps = np.arange(len(lengths))[:, None]
    for e in network.edges:
        if e.id in users:
            first, stride, value, start = map(np.array, zip(*users[e.id]))
            keep = steps >= start
            yield _block(
                ("cap_{}_{}", ((e.id,), range(1, len(lengths) + 1))),
                keep.sum(axis=1),
                (first + steps * stride)[keep],
                np.broadcast_to(value, keep.shape)[keep],
                -math.inf,
                lengths * e.cap,
            )


def _first_prefix(instance: Instance, boundaries: np.ndarray) -> int:
    """The step holding the latest end of a :func:`_lower_bound_terms`
    term, each counted from the first of ``boundaries`` at or after its
    release (on slot boundaries, :func:`horizon_lower_bound`), or one more
    than the step count when that end lies past the last boundary."""
    term_release, term_slots = np.array(_lower_bound_terms(instance)).T
    ends = boundaries[np.searchsorted(boundaries, term_release - 1e-9)] + term_slots
    return int(np.searchsorted(boundaries, ends.max() - 1e-9))


def _assemble(instance: Instance, boundaries, steps: int | None = None) -> LPProblem:
    """Either relaxation over the steps between consecutive ``boundaries``:
    step t is ``(boundaries[t-1], boundaries[t]]``, with each free-path
    flow on its usable edges (``Instance.flow_edges``).

    A flow may transmit only in steps that start at or after its release
    (on slot boundaries, slots ``t > release``), and its first prefix is
    :func:`_first_prefix`.

    With ``steps``, only the columns and rows of steps ``1..steps`` are
    built: the prefix rung the solver hands HiGHS (see
    :func:`coflownet.solver.solve_relaxation`). Its last ``S`` columns
    are at 1, and its offset is the whole relaxation's with the later
    ``X`` at 1, the terms ``-w_j * len_t``, added in by ``math.fsum``, as
    the solver's substitution adds them. So its arrays and offset are
    bitwise those the solver slices from the whole relaxation, with the
    later columns pinned, for the same prefix.
    """
    boundaries = np.asarray(boundaries, dtype=float)
    lengths = np.diff(boundaries)
    flows = list(instance.iter_flows())
    release = np.array([fl.release for _, _, _, fl in flows], dtype=float)
    open_steps = boundaries[:-1] >= release[:, None] - 1e-9
    blocked = np.flatnonzero(~open_steps.any(axis=1))
    if blocked.size:
        j, i, _, _ = flows[blocked[0]]
        raise ValueError(
            f"horizon {boundaries[-1]} leaves no interval after release "
            f"of coflow {j + 1} flow {i + 1}"
        )
    first_prefix = _first_prefix(instance, boundaries)
    weight = np.array([c.weight for c in instance.coflows], dtype=float)
    # objectives summed from it are at most the summed weight times 1 + T (the LP's) or 10 T^2 + 1
    # (a schedule stretched by 1/lambda <= 10 T); math.fsum raises where Python floats give inf
    span = 1.0 + float(boundaries[-1])
    if not math.isfinite(10.0 * sum(weight.tolist()) * span * span):
        raise HorizonTooLarge(f"coflow weights up to {weight.max():g} make the objective too large to sum")
    offset = math.fsum(weight * (1.0 + math.fsum(lengths)))
    if steps is not None and steps < len(lengths):
        offset = math.fsum([offset, *(-weight[:, None] * lengths[steps:]).ravel().tolist()])
        lengths, open_steps = lengths[:steps], open_steps[:, :steps]
    J, F, T = len(instance.coflows), len(flows), len(lengths)
    tags = [f"{j + 1}_{i + 1}" for j, i, _, _ in flows]
    owner = np.array([j for j, _, _, _ in flows], dtype=np.int64)
    j_range, t_range = range(1, J + 1), range(1, T + 1)
    # column blocks: X (J x T), S (F x T), then xe per flow
    X = np.arange(J * T, dtype=np.int64).reshape(J, T)
    S = J * T + np.arange(F * T, dtype=np.int64).reshape(F, T)
    cols = (J + F) * T
    col_naming = [("X_{}_{}", (j_range, t_range)), ("S_{}_{}", (tags, t_range))]
    # a flow sends nothing before its release
    upper = [np.ones(J * T), open_steps.ravel().astype(float)]

    # cum: per (flow, step) X - S <= 0; the S_t - S_{t-1} >= 0 rows go last
    blocks = [
        _block(
            ("cum_{}_{}", (tags, t_range)),
            2,
            np.stack([X[owner], S], axis=-1).ravel(),
            np.tile([1.0, -1.0], F * T),
            -math.inf,
            0.0,
        ),
    ]
    users: dict[str, list] = {}
    xe = None
    if instance.model is RoutingModel.SINGLE_PATH:
        for f, (_, _, _, fl) in enumerate(flows):
            for eid in fl.path:
                users.setdefault(eid, []).extend(
                    [(S[f, 0], 1, fl.demand, 0), (S[f, 0] - 1, 1, -fl.demand, 1)]
                )
    else:
        xe = []
        for f, ((_, _, _, fl), usable, tag) in enumerate(zip(flows, instance.flow_edges, tags)):
            width = len(usable)
            col_naming.append(("xe_{}_{}_{}", ((tag,), t_range, [e.id for e in usable])))
            # the bound its cap row implies when the flow carries the edge alone
            implied = lengths[:, None] * np.array([e.cap for e in usable]) / fl.demand
            upper.append(np.where(open_steps[f][:, None], implied, 0.0).ravel())
            blocks.append(_flow_rows(tag, fl, usable, S[f], cols))
            series = cols + np.arange(width)[:, None] + width * np.arange(T)
            xe.append({e.id: series[k] for k, e in enumerate(usable)})
            for k, e in enumerate(usable):
                users.setdefault(e.id, []).append((cols + k, width, fl.demand, 0))
            cols += width * T
        xe = tuple(xe)
    blocks.extend(_cap_rows(instance.network, users, lengths))
    blocks.append(
        _block(
            ("cum_{}_{}_s", (tags, range(2, T + 1))),
            2,
            np.stack([S[:, 1:], S[:, :-1]], axis=-1).ravel(),
            np.tile([1.0, -1.0], F * (T - 1)),
            0.0,
            math.inf,
        )
    )

    row_naming, counts, indices, data, row_lower, row_upper = zip(*blocks)
    counts = np.concatenate(counts)
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    A = CSR(indptr, np.concatenate(indices), np.concatenate(data), (len(counts), cols))
    # every flow is done by the last step
    col_lower = np.zeros(cols)
    col_lower[S[:, -1]] = 1.0
    return LPProblem(
        objective=np.concatenate([(-weight[:, None] * lengths).ravel(), np.zeros(cols - J * T)]),
        col_lower=col_lower,
        col_upper=np.concatenate(upper),
        A=A,
        row_lower=np.concatenate(row_lower),
        row_upper=np.concatenate(row_upper),
        col_naming=tuple(col_naming),
        row_naming=row_naming,
        offset=offset,
        layout=ColumnLayout(X=X, S=S, xe=xe),
        first_prefix=first_prefix,
    )


def build_time_indexed_lp(instance: Instance, horizon: int) -> LPProblem:
    """The slot-indexed relaxation over slots ``1..horizon``.

    Minimizing it gives a lower bound on the weighted completion time of
    any feasible schedule. Raises if the horizon cannot even cover the
    latest release (infeasible by construction).
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if horizon <= instance.max_release:
        raise ValueError(
            f"horizon {horizon} does not exceed the latest release {instance.max_release}"
        )
    return _assemble(instance, np.arange(horizon + 1.0))


def build_interval_lp(instance: Instance, grid: IntervalGrid) -> LPProblem:
    """The geometric-interval relaxation on ``grid``.

    Step t is the interval ``(tau_{t-1}, tau_t]``; capacities scale with
    interval length and the completion bound weighs progress by it. A
    flow may be scheduled only in intervals wholly after its release, so
    uniform-speed expansion never transmits early.
    """
    return _assemble(instance, grid.boundaries)


# ---------------------------------------------------------------------------
# solution extraction


def _collect(problem: LPProblem, x: np.ndarray, instance: Instance, steps: int):
    """Pull per-flow step fractions (and free-path edge splits) out of a
    solved column vector of the relaxation with ``steps`` steps, clipping
    solver dust and renormalizing each flow to sum exactly to one.

    A flow's fraction in step t is ``S_t - S_{t-1}``. ``problem`` may be a
    prefix rung of the relaxation: each series is padded with zeros to
    every step first, so the sums, and so every fraction, are bitwise
    those of the whole relaxation's point.
    """
    layout = problem.layout
    if layout is None or layout.S.shape[0] != instance.flow_count or layout.S.shape[1] > steps:
        raise ValueError("problem has no column layout for this instance and step count")
    built = layout.S.shape[1]
    sent = np.clip(np.diff(x[layout.S], axis=1, prepend=0.0), 0.0, None)
    fractions = [[] for _ in instance.coflows]
    edge_fractions = [[] for _ in instance.coflows]
    for f, (j, i, _, _) in enumerate(instance.iter_flows()):
        series = np.zeros(steps)
        series[:built] = sent[f]
        total = series.sum()
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-5):
            raise ValueError(
                f"flow (coflow {j + 1}, flow {i + 1}) schedules {total}, expected 1"
            )
        series /= total
        fractions[j].append(series)
        if layout.xe is not None:
            eids = list(layout.xe[f])
            splits = np.zeros((len(eids), steps))
            splits[:, :built] = np.clip(x[np.stack(list(layout.xe[f].values()))], 0.0, None)
            splits /= total
            used = np.flatnonzero((splits > 0).any(axis=1))
            edge_fractions[j].append({eids[k]: splits[k] for k in used})
    edges = tuple(map(tuple, edge_fractions)) if layout.xe is not None else None
    return tuple(map(tuple, fractions)), edges


def extract_fractional(
    problem: LPProblem, x: np.ndarray, instance: Instance, horizon: int
) -> FractionalSchedule:
    """FractionalSchedule over ``horizon`` slots from a solved
    slot-indexed LP column vector, with each coflow's completion bound
    ``1 + sum_t (1 - X_j_t)``; ``problem`` may be a rung of fewer slots,
    whose later slots carry nothing and whose later ``X`` at 1 add 0 to
    the bound."""
    fractions, edge_fractions = _collect(problem, x, instance, horizon)
    completion = tuple(math.fsum([1.0, *row]) for row in (1.0 - x[problem.layout.X]).tolist())
    return FractionalSchedule(
        slot_count=horizon,
        fractions=fractions,
        cumulative=coflow_progress(fractions),
        lp_completion=completion,
        edge_fractions=edge_fractions,
    )


@dataclass(frozen=True)
class IntervalSolution:
    """Per-interval fractions from a solved interval LP."""

    grid: IntervalGrid
    fractions: tuple[tuple[np.ndarray, ...], ...]
    edge_fractions: tuple[tuple[dict[str, np.ndarray], ...], ...] | None


def extract_interval_solution(
    problem: LPProblem, x: np.ndarray, instance: Instance, grid: IntervalGrid
) -> IntervalSolution:
    fractions, edge_fractions = _collect(problem, x, instance, grid.interval_count)
    return IntervalSolution(grid=grid, fractions=fractions, edge_fractions=edge_fractions)

"""Builders for the slot-indexed and geometric-interval linear relaxations.

Both relaxations share one variable vocabulary, indexed per coflow ``j``
(1-based), flow ``i`` within the coflow, time step ``t`` (slot or
interval), and edge id ``e``:

- ``C_j``      completion-time variable of coflow j
- ``X_j_t``    fraction of coflow j completed by the end of step t
- ``x_j_i_t``  fraction of flow (j, i) scheduled during step t
- ``S_j_i_t``  fraction of flow (j, i) scheduled by the end of step t
- ``xe_j_i_t_e``  free-path only: fraction of flow (j, i) routed over
  edge e during step t

Constraint families (row-name prefixes):

- ``dem``  every flow is fully scheduled (sum of fractions = 1)
- ``cum``  coflow progress is capped by each member flow's prefix sum,
  as a pair of rows per (coflow, flow, step): ``cum_j_i_t_s`` defines
  the prefix ``S_j_i_t - S_j_i_{t-1} - x_j_i_t = 0`` and ``cum_j_i_t``
  caps progress by it, ``X_j_t - S_j_i_t <= 0``. Projected onto the
  other columns this is the one-row form ``X_j_t <= sum_{l<=t} x_j_i_l``,
  but with at most five nonzeros per (flow, step) instead of ``t + 1``,
  so the family grows linearly in the step count, not quadratically
- ``fin``  the completion bound, rearranged into a single row per coflow:
  ``C_j + sum_t len_t * X_j_t >= 1 + sum_t len_t`` (slot steps have
  ``len_t = 1``), which is algebraically the mean-progress lower bound
- ``cap``  per (edge, step) capacity; demand-scaled loads fit the
  per-step capacity (interval steps scale capacity by interval length)
- ``src``/``snk``/``bal``  free-path flow conservation: source out-flow
  and sink in-flow match the step total, interior nodes balance

The two relaxations differ only in their step boundaries (slot t is
``(t - 1, t]``, interval t is ``(tau_{t-1}, tau_t]``), and one assembly
(``_assemble``) derives all of their time structure from them. Release
times are enforced by fixing variables to zero rather than by rows: a
flow released at ``r`` gets ``x`` (and ``xe``) upper bounds of 0 for
every step that starts before ``r``. Every other ``xe`` column has the
upper bound its ``cap`` row implies, ``len_t * cap_e / demand``, so every
column is bounded, as the solver's weak-duality certificate needs.

The assembly never touches a row in Python. Columns are index blocks
laid out in the order ``C`` (J), ``X`` (J x T), ``x`` (F x T), ``S``
(F x T), then one T x E_f block of ``xe`` per free-path flow f over its
E_f usable edges. Each row family is emitted as numpy arrays of per-row
nonzero counts, column indices, values and row bounds: ``dem``, ``cum``
(definition and cap row interleaved per flow and step), ``fin``,
free-path flow rows, ``cap``.
The ``src``/``snk``/``bal`` rows of a flow are a one-step incidence
template over its usable edges plus its ``x`` column, tiled across steps
by column offset; ``cap`` rows gather each edge's users per step. The
counts give the CSR ``indptr`` directly, and the matrix is a
:class:`~coflownet.csr.CSR`: four arrays whose products and selections
run scipy's own sparse kernels without importing ``scipy.sparse`` (see
:mod:`coflownet.csr`). Names are not built: each
column block and row family records a :data:`NameBlock` pattern, and
:class:`LPProblem` builds the strings when they are first read.

The assembly also records a :class:`StepMap`: the step of every column
and row, the value each column takes once its coflow or flow is done
(``X``/``S`` at 1, ``x``/``xe`` at 0), and the ``dem`` row of each
``cum_j_i_t_s`` row's and ``S_j_i_t`` column's flow. With it the solver
can solve a prefix of the steps and certify that prefix optimal for the
whole relaxation. It slices the prefix from a relaxation built whole
(:func:`coflownet.solver.solve`), or has the assembly build only the
prefix's steps, a rung, from the instance
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
from .graphs import max_flow_value, path_bottleneck, usable_edges
from .model import Edge, FractionalSchedule, Instance, RoutingModel, coflow_progress


@dataclass(frozen=True)
class ColumnLayout:
    """Column indices of the variable blocks a builder created.

    ``completion[j]`` is ``C_{j+1}``. Row ``f`` of ``x`` holds the step
    columns ``x_j_i_1 .. x_j_i_T`` of the f-th flow in
    ``Instance.iter_flows`` order. For free path, ``xe[f]`` maps each
    usable edge id of that flow to its step columns ``xe_j_i_t_e``.
    """

    completion: np.ndarray
    x: np.ndarray
    xe: tuple[dict[str, np.ndarray], ...] | None = None


@dataclass(frozen=True)
class StepMap:
    """Where each column and row of a relaxation sits in time.

    ``col_step``/``row_step`` hold the 1-based step of each column and
    row, 0 for ``C`` and for the ``dem``/``fin`` rows that span every
    step. ``col_after`` is the value a column takes when the schedule
    ended before its step: 1 for ``X``/``S``, 0 for ``x``/``xe``.
    ``row_dem`` is, for each ``cum_j_i_t_s`` row, the index of its flow's
    ``dem`` row, -1 for every other row; the solver prices a later
    ``cum_j_i_t_s`` row from that ``dem`` row's dual. ``col_dem`` is the
    same for each ``S_j_i_t`` column, -1 for every other column; the
    solver prices the steps after a rung's last ``S`` from it.
    ``first_prefix`` is the step count worth trying first, from
    :func:`horizon_lower_bound`.
    """

    col_step: np.ndarray
    col_after: np.ndarray
    row_step: np.ndarray
    row_dem: np.ndarray
    col_dem: np.ndarray
    step_count: int
    first_prefix: int


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
    """``min objective @ x`` subject to ``row_lower <= A @ x <= row_upper``
    and ``col_lower <= x <= col_upper``; immutable after construction.

    ``A`` is a :class:`~coflownet.csr.CSR` matrix, checked when it was
    made. Every row is an equality (equal bounds) or
    one-sided (the other bound infinite). Column and row names are
    unique, and built on first read of ``col_names``/``row_names`` from
    ``col_naming``/``row_naming`` (see :data:`NameBlock`): the relaxation
    builders record one block per variable or row family, unique by
    construction. ``layout`` and ``step_map`` are set by the relaxation
    builders; solution extraction reads the first, the solver the
    second.
    """

    objective: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    A: CSR
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_naming: tuple[NameBlock, ...]
    row_naming: tuple[NameBlock, ...]
    layout: ColumnLayout | None = None
    step_map: StepMap | None = None

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
        one_sided = np.isinf(self.row_lower) != np.isinf(self.row_upper)
        if not np.all(one_sided | (self.row_lower == self.row_upper)):
            raise ValueError("every row must be an equality or one-sided")
        m = self.step_map
        if m is not None and not (
            len(m.col_step) == len(m.col_after) == len(m.col_dem) == self.num_cols
            and len(m.row_step) == len(m.row_dem) == self.num_rows
        ):
            raise ValueError("step map does not match the problem's rows and columns")

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
    alone, demand over the path bottleneck (single-path) or over the
    source-sink max-flow value (free-path)."""
    for j, i, _, fl in instance.iter_flows():
        if instance.model is RoutingModel.SINGLE_PATH:
            rate = path_bottleneck(instance.network, fl.path)
        else:
            rate = max_flow_value(instance.network, fl.src, fl.dst)
            if rate <= 1e-12:
                raise ValueError(f"unroutable flow: coflow {j + 1} flow {i + 1}")
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
      into v. A flow's max-flow slots are not a term: the relaxations'
      ``src``/``snk`` rows count gross flow, so a cycle back into the
      source lets them beat the max-flow rate.
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
            if cap.get(node, 0.0) <= 1e-12:
                raise ValueError(f"unroutable flow: coflow {j + 1} flow {i + 1}")
            demand[node] = demand.get(node, 0.0) + fl.demand
            terms.append((fl.release, _ceil_slots(demand[node] / cap[node])))
    return terms


def columns_per_slot(instance: Instance, edges: FlowEdges) -> int:
    """Columns the slot LP has per slot: ``X``, ``x`` and ``S`` per coflow
    or flow, plus one ``xe`` per usable edge of each free-path flow
    (``edges``, from :func:`flow_edges`)."""
    per_slot = len(instance.coflows) + 2 * instance.flow_count
    if instance.model is RoutingModel.FREE_PATH:
        per_slot += sum(map(len, edges))
    return per_slot


#: Most LP columns the pipeline allocates anything for that grows with
#: the horizon: slots (``horizon_upper_bound``) or intervals of the grid,
#: times ``columns_per_slot``. That covers the slot LP, the interval LP and
#: the interval schedule's expansion to slots. Building the slot LP takes
#: about 320 bytes per column.
MAX_SLOT_COLUMNS = 2_000_000


class HorizonTooLarge(ValueError):
    """The horizon bound, or the interval grid over it, makes the model too
    large to build."""


def checked_horizon(instance: Instance, edges: FlowEdges) -> int:
    """``horizon_upper_bound(instance)``, or :class:`HorizonTooLarge` when
    that many slots times the columns per slot exceeds ``MAX_SLOT_COLUMNS``
    (free-path flows on ``edges``, from ``flow_edges``)."""
    horizon = horizon_upper_bound(instance)
    per_slot = columns_per_slot(instance, edges)
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
    per_step = columns_per_slot(instance, flow_edges(instance))
    return _padded_grid(instance, horizon_upper_bound(instance), epsilon, per_step)


def _padded_grid(instance: Instance, bound: int, epsilon: float, per_step: int) -> IntervalGrid:
    """:func:`interval_grid_for` with the instance's ``horizon_upper_bound``
    and ``columns_per_slot`` already computed as ``bound`` and ``per_step``."""
    release = instance.max_release
    demand_slots = bound - release
    target = bound
    while True:
        grid = geometric_intervals(target, epsilon, per_step)
        first_after = next(b for b in grid.boundaries if b >= release - 1e-9)
        if grid.horizon >= first_after + demand_slots - 1e-9:
            return grid
        target = int(math.ceil(first_after + demand_slots))


# ---------------------------------------------------------------------------
# LP assembly


#: Usable edges of each free-path flow in ``iter_flows`` order, or None.
FlowEdges = list[tuple[Edge, ...]] | None


def flow_edges(instance: Instance) -> FlowEdges:
    """Usable edges of each flow in ``iter_flows`` order for free path;
    None for single path, whose flows keep their paths.

    The builders compute them when not given them, so a caller that
    builds more than one thing from them passes them on instead.
    """
    if instance.model is RoutingModel.SINGLE_PATH:
        return None
    out = []
    for j, i, _, fl in instance.iter_flows():
        out.append(usable_edges(instance.network, fl.src, fl.dst))
        if not any(e.src == fl.src for e in out[-1]):
            raise ValueError(f"unroutable flow: coflow {j + 1} flow {i + 1}")
    return out


def _block(naming: NameBlock, counts, indices, data, lower, upper, step):
    """One row family in row order: its naming, nonzeros per row, column
    indices, values, row bounds and row steps; scalars broadcast."""
    rows = _name_count((naming,))
    return (
        naming, np.broadcast_to(counts, rows), indices, np.broadcast_to(data, len(indices)),
        np.broadcast_to(lower, rows), np.broadcast_to(upper, rows), np.broadcast_to(step, rows),
    )


def _flow_rows(tag: str, fl, edges, x_cols: np.ndarray, first: int):
    """``src``/``snk``/``bal`` rows of one free-path flow whose ``xe``
    columns start at ``first``, one block of ``len(edges)`` per step."""
    ins: dict[str, list[int]] = {}  # node -> positions of its in-edges in ``edges``
    outs: dict[str, list[int]] = {}
    for k, e in enumerate(edges):
        outs.setdefault(e.src, []).append(k)
        ins.setdefault(e.dst, []).append(k)
    interior = sorted((ins.keys() | outs.keys()) - {fl.src, fl.dst})
    # per step: src_<tag>_<t>, snk_<tag>_<t>, then bal_<tag>_<t>_<v> per interior v
    kinds = (("src", ""), ("snk", ""), *(("bal", f"_{v}") for v in interior))
    # one step's rows as (+1 columns, -1 columns); -1 stands for the step's x
    template = [(outs.get(fl.src, []), [-1]), (ins.get(fl.dst, []), [-1])]
    template += [(ins.get(v, []), outs.get(v, [])) for v in interior]
    local = np.array([k for plus, minus in template for k in plus + minus], dtype=np.int64)
    vals = [v for plus, minus in template for v in [1.0] * len(plus) + [-1.0] * len(minus)]
    steps = len(x_cols)
    cols = first + len(edges) * np.arange(steps)[:, None] + local
    cols[:, local < 0] = x_cols[:, None]
    naming = ("{2[0]}_{0}_{1}{2[1]}", ((tag,), range(1, steps + 1), kinds))
    counts = np.tile([len(plus) + len(minus) for plus, minus in template], steps)
    row_steps = np.repeat(np.arange(1, steps + 1), len(template))
    return _block(naming, counts, cols.ravel(), np.tile(vals, steps), 0.0, 0.0, row_steps)


def _cap_rows(network, users: dict[str, list], lengths: np.ndarray):
    """``cap`` rows per used edge and step; ``users[e]`` lists, per flow on
    edge e, its column at step 1, its column stride per step, its demand."""
    steps = np.arange(len(lengths))[:, None]
    for e in network.edges:
        if e.id in users:
            first, stride, demand = map(np.array, zip(*users[e.id]))
            yield _block(
                ("cap_{}_{}", ((e.id,), range(1, len(lengths) + 1))),
                len(first),
                (first + steps * stride).ravel(),
                np.tile(demand, len(lengths)),
                -math.inf,
                lengths * e.cap,
                steps.ravel() + 1,
            )


def _first_prefix(instance: Instance, boundaries: np.ndarray) -> int:
    """The step holding the latest end of a :func:`_lower_bound_terms`
    term, each counted from the first of ``boundaries`` at or after its
    release (on slot boundaries, :func:`horizon_lower_bound`), or one more
    than the step count when that end lies past the last boundary."""
    term_release, term_slots = np.array(_lower_bound_terms(instance)).T
    ends = boundaries[np.searchsorted(boundaries, term_release - 1e-9)] + term_slots
    return int(np.searchsorted(boundaries, ends.max() - 1e-9))


def _assemble(instance: Instance, boundaries, edges: FlowEdges, steps: int | None = None) -> LPProblem:
    """Either relaxation over the steps between consecutive ``boundaries``:
    step t is ``(boundaries[t-1], boundaries[t]]``, with the free-path
    flows on ``edges`` (from :func:`flow_edges` when None).

    A flow may transmit only in steps that start at or after its release
    (on slot boundaries, slots ``t > release``), the completion columns
    are bounded by the last boundary plus one, and the step map's first
    prefix is :func:`_first_prefix`.

    With ``steps``, only the columns and rows of steps ``1..steps`` are
    built: the prefix rung the solver hands HiGHS (see
    :func:`coflownet.solver.solve_relaxation`). A rung keeps the whole
    relaxation's completion bound and ``fin`` right-hand side less the
    later steps' lengths, summed in step order as ``A @ x`` sums the later
    ``X`` pinned at 1. So its arrays are bitwise those the solver slices
    from the whole relaxation, with the later columns pinned, for the same
    prefix.
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
    fin_lower = 1.0 + math.fsum(lengths)
    if steps is not None and steps < len(lengths):
        fin_lower -= np.cumsum(lengths[steps:])[-1]
        lengths, open_steps = lengths[:steps], open_steps[:, :steps]
    J, F, T = len(instance.coflows), len(flows), len(lengths)
    tags = [f"{j + 1}_{i + 1}" for j, i, _, _ in flows]
    owner = np.array([j for j, _, _, _ in flows], dtype=np.int64)
    j_range, t_range = range(1, J + 1), range(1, T + 1)
    # column blocks: C (J), X (J x T), x (F x T), S (F x T), then xe per flow
    X = J + np.arange(J * T, dtype=np.int64).reshape(J, T)
    x = J * (T + 1) + np.arange(F * T, dtype=np.int64).reshape(F, T)
    S = x + F * T
    cols = J * (T + 1) + 2 * F * T
    col_naming = [
        ("C_{}", (j_range,)), ("X_{}_{}", (j_range, t_range)),
        ("x_{}_{}", (tags, t_range)), ("S_{}_{}", (tags, t_range)),
    ]
    upper = [np.full(J, boundaries[-1] + 1.0), np.ones(J * T), open_steps.ravel().astype(float)]
    upper.append(np.ones(F * T))
    step = np.arange(1, T + 1)
    col_step = [np.zeros(J, dtype=np.int64), np.tile(step, J), np.tile(step, F), np.tile(step, F)]
    col_after = [np.zeros(J), np.ones(J * T), np.zeros(F * T), np.ones(F * T)]
    # the dem rows are the first F rows
    col_dem = [np.full(J * (T + 1) + F * T, -1), np.repeat(np.arange(F), T)]

    # cum: per (flow, step) the rows S - x - S_prev = 0 (no S_prev at step 1), X - S <= 0
    cum_cols = np.stack([S, x, S - 1, X[owner], S], axis=-1)
    later = np.arange(T) > 0
    keep = np.broadcast_to(later[:, None] | (np.arange(5) != 2), cum_cols.shape)
    cum_counts = np.broadcast_to(np.stack([2 + later, np.full(T, 2)], axis=-1), (F, T, 2))
    blocks = [
        _block(("dem_{}", (tags,)), T, x.ravel(), 1.0, 1.0, 1.0, 0),
        _block(
            ("cum_{}_{}{}", (tags, t_range, ("_s", ""))),
            cum_counts.ravel(),
            cum_cols[keep],
            np.broadcast_to([1.0, -1.0, -1.0, 1.0, -1.0], keep.shape)[keep],
            np.tile([0.0, -math.inf], F * T),
            0.0,
            np.repeat(np.tile(step, F), 2),
        ),
        _block(
            ("fin_{}", (j_range,)),
            T + 1,
            np.hstack([np.arange(J, dtype=np.int64)[:, None], X]).ravel(),
            np.tile(np.concatenate([[1.0], lengths]), J),
            fin_lower,
            math.inf,
            0,
        ),
    ]

    users: dict[str, list] = {}
    xe = None
    if instance.model is RoutingModel.SINGLE_PATH:
        for f, (_, _, _, fl) in enumerate(flows):
            for eid in fl.path:
                users.setdefault(eid, []).append((x[f, 0], 1, fl.demand))
    else:
        xe = []
        edges = edges if edges is not None else flow_edges(instance)
        for f, ((_, _, _, fl), usable, tag) in enumerate(zip(flows, edges, tags)):
            width = len(usable)
            col_naming.append(("xe_{}_{}_{}", ((tag,), t_range, [e.id for e in usable])))
            # the bound its cap row implies when the flow carries the edge alone
            implied = lengths[:, None] * np.array([e.cap for e in usable]) / fl.demand
            upper.append(np.where(open_steps[f][:, None], implied, 0.0).ravel())
            col_step.append(np.repeat(step, width))
            col_after.append(np.zeros(width * T))
            col_dem.append(np.full(width * T, -1))
            blocks.append(_flow_rows(tag, fl, usable, x[f], cols))
            series = cols + np.arange(width)[:, None] + width * np.arange(T)
            xe.append({e.id: series[k] for k, e in enumerate(usable)})
            for k, e in enumerate(usable):
                users.setdefault(e.id, []).append((cols + k, width, fl.demand))
            cols += width * T
        xe = tuple(xe)
    blocks.extend(_cap_rows(instance.network, users, lengths))

    row_naming, counts, indices, data, row_lower, row_upper, row_step = zip(*blocks)
    counts = np.concatenate(counts)
    # the cum_j_i_t_s rows follow the F dem rows, every second row per (flow, step)
    row_dem = np.full(len(counts), -1, dtype=np.int64)
    row_dem[F + 2 * np.arange(F * T)] = np.repeat(np.arange(F), T)
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    A = CSR(indptr, np.concatenate(indices), np.concatenate(data), (len(counts), cols))
    return LPProblem(
        objective=np.concatenate([[c.weight for c in instance.coflows], np.zeros(cols - J)]),
        col_lower=np.zeros(cols),
        col_upper=np.concatenate(upper),
        A=A,
        row_lower=np.concatenate(row_lower),
        row_upper=np.concatenate(row_upper),
        col_naming=tuple(col_naming),
        row_naming=row_naming,
        layout=ColumnLayout(completion=np.arange(J, dtype=np.int64), x=x, xe=xe),
        step_map=StepMap(
            col_step=np.concatenate(col_step),
            col_after=np.concatenate(col_after),
            row_step=np.concatenate(row_step),
            row_dem=row_dem,
            col_dem=np.concatenate(col_dem),
            step_count=T,
            first_prefix=first_prefix,
        ),
    )


def build_time_indexed_lp(instance: Instance, horizon: int, edges: FlowEdges = None) -> LPProblem:
    """The slot-indexed relaxation over slots ``1..horizon``, with the
    free-path flows on ``edges`` (from :func:`flow_edges` when None).

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
    return _assemble(instance, np.arange(horizon + 1.0), edges)


def build_interval_lp(instance: Instance, grid: IntervalGrid, edges: FlowEdges = None) -> LPProblem:
    """The geometric-interval relaxation on ``grid``, with the free-path
    flows on ``edges`` (from :func:`flow_edges` when None).

    Step t is the interval ``(tau_{t-1}, tau_t]``; capacities scale with
    interval length and the completion bound weighs progress by it. A
    flow may be scheduled only in intervals wholly after its release, so
    uniform-speed expansion never transmits early.
    """
    return _assemble(instance, grid.boundaries, edges)


# ---------------------------------------------------------------------------
# solution extraction


def _collect(problem: LPProblem, x: np.ndarray, instance: Instance, steps: int):
    """Pull per-flow step fractions (and free-path edge splits) out of a
    solved column vector, clipping solver dust and renormalizing each flow
    to sum exactly to one.

    ``problem`` may be a prefix rung of the ``steps``-step relaxation: each
    series is padded with zeros to ``steps`` first, the values the later
    columns take, so the sums, and so every fraction, are bitwise those of
    the whole relaxation's point.
    """
    layout = problem.layout
    if layout is None or layout.x.shape[0] != instance.flow_count or layout.x.shape[1] > steps:
        raise ValueError("problem has no column layout for this instance and step count")
    built = layout.x.shape[1]
    fractions = [[] for _ in instance.coflows]
    edge_fractions = [[] for _ in instance.coflows]
    for f, (j, i, _, _) in enumerate(instance.iter_flows()):
        series = np.zeros(steps)
        series[:built] = np.clip(x[layout.x[f]], 0.0, None)
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
    completion = tuple(float(v) for v in x[layout.completion])
    edges = tuple(map(tuple, edge_fractions)) if layout.xe is not None else None
    return tuple(map(tuple, fractions)), edges, completion


def extract_fractional(
    problem: LPProblem, x: np.ndarray, instance: Instance, horizon: int
) -> FractionalSchedule:
    """FractionalSchedule over ``horizon`` slots from a solved
    slot-indexed LP column vector; ``problem`` may be a rung of fewer
    slots, whose later slots carry nothing."""
    fractions, edge_fractions, completion = _collect(problem, x, instance, horizon)
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
    lp_completion: tuple[float, ...]


def extract_interval_solution(
    problem: LPProblem, x: np.ndarray, instance: Instance, grid: IntervalGrid
) -> IntervalSolution:
    fractions, edge_fractions, completion = _collect(
        problem, x, instance, grid.interval_count
    )
    return IntervalSolution(
        grid=grid,
        fractions=fractions,
        edge_fractions=edge_fractions,
        lp_completion=completion,
    )

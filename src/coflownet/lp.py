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

Release times are enforced by fixing variables to zero rather than by
rows: a flow released at ``r`` gets ``x`` (and ``xe``) upper bounds of 0
for every slot ``t <= r``, or for every interval not lying wholly after
``r`` in the interval relaxation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .graphs import max_flow_value, path_bottleneck, usable_edges
from .model import FractionalSchedule, Instance, RoutingModel


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
class LPProblem:
    """``min objective @ x`` subject to ``row_lower <= A @ x <= row_upper``
    and ``col_lower <= x <= col_upper``; immutable after construction.

    ``A`` is a CSR matrix. Every row is an equality (equal bounds) or
    one-sided (the other bound infinite). Build problems with
    :meth:`from_rows`; ``layout`` is set by the relaxation builders and
    is what solution extraction reads.
    """

    objective: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    col_names: tuple[str, ...]
    row_names: tuple[str, ...]
    A: sp.csr_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    layout: ColumnLayout | None = None

    def __post_init__(self):
        if len(set(self.col_names)) != len(self.col_names):
            raise ValueError("column names are not unique")
        if len(set(self.row_names)) != len(self.row_names):
            raise ValueError("row names are not unique")
        if self.A.shape != (self.num_rows, self.num_cols):
            raise ValueError(f"matrix shape {self.A.shape} does not match the names")
        one_sided = np.isinf(self.row_lower) != np.isinf(self.row_upper)
        if not np.all(one_sided | (self.row_lower == self.row_upper)):
            raise ValueError("every row must be an equality or one-sided")

    @classmethod
    def from_rows(cls, objective, col_lower, col_upper, col_names, rows, layout=None) -> "LPProblem":
        """Assemble the CSR matrix from ``rows``, a sequence of
        ``(name, cols, vals, relation, rhs)`` with relation one of
        ``<=``, ``=``, ``>=``."""
        names, cols, vals, relations, rhs = zip(*rows) if rows else ((),) * 5
        if not set(relations) <= {"<=", "=", ">="}:
            raise ValueError(f"bad relation in {sorted(set(relations))}")
        indptr = np.zeros(len(names) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, cols), dtype=np.int64, count=len(names)), out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.fromiter(chain.from_iterable(cols), dtype=np.int64, count=nnz)
        if nnz and (indices.min() < 0 or indices.max() >= len(col_names)):
            raise ValueError("row references an unknown column")
        data = np.fromiter(chain.from_iterable(vals), dtype=float, count=nnz)
        relations = np.array(relations, dtype=object)
        rhs = np.array(rhs, dtype=float)
        return cls(
            objective=np.array(objective, dtype=float),
            col_lower=np.array(col_lower, dtype=float),
            col_upper=np.array(col_upper, dtype=float),
            col_names=tuple(col_names),
            row_names=tuple(names),
            A=sp.csr_matrix((data, indices, indptr), shape=(len(names), len(col_names))),
            row_lower=np.where(relations == "<=", -math.inf, rhs),
            row_upper=np.where(relations == ">=", math.inf, rhs),
            layout=layout,
        )

    @property
    def num_cols(self) -> int:
        return len(self.col_names)

    @property
    def num_rows(self) -> int:
        return len(self.row_names)

    @cached_property
    def name_map(self) -> dict[str, int]:
        return {name: idx for idx, name in enumerate(self.col_names)}

    @cached_property
    def row_cols(self) -> tuple[np.ndarray, ...]:
        """Column indices of each row, as read-only views into ``A``."""
        indices = self.A.indices.view()
        indices.flags.writeable = False
        bounds = self.A.indptr.tolist()
        return tuple(indices[a:b] for a, b in zip(bounds[:-1], bounds[1:]))

    def permuted_rows(self, order) -> "LPProblem":
        """Same LP with rows reordered (for solver-invariance checks)."""
        order = np.asarray(order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(self.num_rows)):
            raise ValueError("order is not a permutation of the rows")
        return replace(
            self,
            row_names=tuple(self.row_names[r] for r in order),
            A=self.A[order],
            row_lower=self.row_lower[order],
            row_upper=self.row_upper[order],
        )


class _LPBuilder:
    def __init__(self):
        self._obj: list[float] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._col_names: list[str] = []
        self._rows: list[tuple[str, list[int], list[float], str, float]] = []

    def add_col(self, name: str, obj: float = 0.0, lb: float = 0.0, ub: float = math.inf) -> int:
        self._col_names.append(name)
        self._obj.append(obj)
        self._lb.append(lb)
        self._ub.append(ub)
        return len(self._col_names) - 1

    def add_row(self, name: str, cols: list[int], vals: list[float], rel: str, rhs: float) -> None:
        self._rows.append((name, cols, vals, rel, rhs))

    def build(self, layout: ColumnLayout) -> LPProblem:
        return LPProblem.from_rows(
            self._obj, self._lb, self._ub, self._col_names, self._rows, layout=layout
        )


# ---------------------------------------------------------------------------
# horizon


def _ceil_slots(value: float) -> int:
    # guard against 3.0000000001-style float noise before taking the ceiling
    return max(1, int(math.ceil(value - 1e-9)))


def horizon_upper_bound(instance: Instance) -> int:
    """A slot count by which some feasible schedule finishes everything.

    max release plus, summed over flows, the slots one flow needs alone:
    demand over the path bottleneck (single-path) or over the source-sink
    max-flow value (free-path). Scheduling flows one at a time after the
    last release realizes this bound, so it is always feasible.
    """
    total = instance.max_release
    for j, i, _, fl in instance.iter_flows():
        if instance.model is RoutingModel.SINGLE_PATH:
            rate = path_bottleneck(instance.network, fl.path)
        else:
            rate = max_flow_value(instance.network, fl.src, fl.dst)
            if rate <= 1e-12:
                raise ValueError(f"unroutable flow: coflow {j + 1} flow {i + 1}")
        total += _ceil_slots(fl.demand / rate)
    return total


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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
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


def geometric_intervals(horizon: int, epsilon: float) -> IntervalGrid:
    """Grid whose k-th boundary is ``(1+eps)^(k-1)``, covering ``horizon``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if horizon == 1:
        count = 1
    else:
        ratio = math.log(horizon) / math.log1p(epsilon)
        count = 1 + math.ceil(ratio - 1e-9)
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
    boundary at or beyond the max release.
    """
    bound = horizon_upper_bound(instance)
    release = instance.max_release
    demand_slots = bound - release
    target = bound
    while True:
        grid = geometric_intervals(target, epsilon)
        first_after = next(b for b in grid.boundaries if b >= release - 1e-9)
        if grid.horizon >= first_after + demand_slots - 1e-9:
            return grid
        target = int(math.ceil(first_after + demand_slots))


# ---------------------------------------------------------------------------
# LP assembly


def _add_schedule_columns(
    b: _LPBuilder,
    instance: Instance,
    steps: int,
    step_allowed,
    completion_ub: float,
):
    """Columns shared by both relaxations. Returns index lookup tables."""
    c_col = {}
    x_col = {}
    cum_col = {}
    for j, cf in enumerate(instance.coflows):
        c_col[j] = b.add_col(f"C_{j + 1}", obj=cf.weight, ub=completion_ub)
    for j, cf in enumerate(instance.coflows):
        for t in range(1, steps + 1):
            cum_col[j, t] = b.add_col(f"X_{j + 1}_{t}", ub=1.0)
    for j, i, _, fl in instance.iter_flows():
        for t in range(1, steps + 1):
            ub = 1.0 if step_allowed(fl, t) else 0.0
            x_col[j, i, t] = b.add_col(f"x_{j + 1}_{i + 1}_{t}", ub=ub)
    return c_col, x_col, cum_col


def _add_shared_rows(b, instance, steps, step_lengths, c_col, x_col, cum_col):
    """Rows shared by both relaxations, plus the prefix columns ``S``
    that only the ``cum`` rows read."""
    for j, i, _, fl in instance.iter_flows():
        cols = [x_col[j, i, t] for t in range(1, steps + 1)]
        b.add_row(f"dem_{j + 1}_{i + 1}", cols, [1.0] * steps, "=", 1.0)
    for j, i, _, fl in instance.iter_flows():
        prev = None
        for t in range(1, steps + 1):
            tag = f"{j + 1}_{i + 1}_{t}"
            s = b.add_col(f"S_{tag}", ub=1.0)
            cols, vals = [s, x_col[j, i, t]], [1.0, -1.0]
            if prev is not None:
                cols.append(prev)
                vals.append(-1.0)
            b.add_row(f"cum_{tag}_s", cols, vals, "=", 0.0)
            b.add_row(f"cum_{tag}", [cum_col[j, t], s], [1.0, -1.0], "<=", 0.0)
            prev = s
    total_len = math.fsum(step_lengths)
    for j in range(len(instance.coflows)):
        cols = [c_col[j]] + [cum_col[j, t] for t in range(1, steps + 1)]
        vals = [1.0] + [step_lengths[t - 1] for t in range(1, steps + 1)]
        b.add_row(f"fin_{j + 1}", cols, vals, ">=", 1.0 + total_len)


def _add_single_path_capacity(b, instance, steps, step_lengths, x_col):
    by_edge: dict[str, list[tuple[int, int, float]]] = {}
    for j, i, _, fl in instance.iter_flows():
        for eid in fl.path:
            by_edge.setdefault(eid, []).append((j, i, fl.demand))
    for e in instance.network.edges:
        users = by_edge.get(e.id)
        if not users:
            continue
        for t in range(1, steps + 1):
            cols = [x_col[j, i, t] for j, i, _ in users]
            vals = [demand for _, _, demand in users]
            b.add_row(f"cap_{e.id}_{t}", cols, vals, "<=", step_lengths[t - 1] * e.cap)


def _add_free_path_rows(b, instance, steps, step_lengths, x_col, step_allowed):
    edge_col = {}
    flow_edges = {}
    for j, i, _, fl in instance.iter_flows():
        edges = usable_edges(instance.network, fl.src, fl.dst)
        if not any(e.src == fl.src for e in edges):
            raise ValueError(f"unroutable flow: coflow {j + 1} flow {i + 1}")
        flow_edges[j, i] = edges
        for t in range(1, steps + 1):
            ub = math.inf if step_allowed(fl, t) else 0.0
            for e in edges:
                edge_col[j, i, t, e.id] = b.add_col(
                    f"xe_{j + 1}_{i + 1}_{t}_{e.id}", ub=ub
                )
    for j, i, _, fl in instance.iter_flows():
        edges = flow_edges[j, i]
        nodes = {e.src for e in edges} | {e.dst for e in edges}
        for t in range(1, steps + 1):
            out_src = [edge_col[j, i, t, e.id] for e in edges if e.src == fl.src]
            b.add_row(
                f"src_{j + 1}_{i + 1}_{t}",
                out_src + [x_col[j, i, t]],
                [1.0] * len(out_src) + [-1.0],
                "=",
                0.0,
            )
            in_snk = [edge_col[j, i, t, e.id] for e in edges if e.dst == fl.dst]
            b.add_row(
                f"snk_{j + 1}_{i + 1}_{t}",
                in_snk + [x_col[j, i, t]],
                [1.0] * len(in_snk) + [-1.0],
                "=",
                0.0,
            )
            for v in sorted(nodes - {fl.src, fl.dst}):
                cols = [edge_col[j, i, t, e.id] for e in edges if e.dst == v]
                vals = [1.0] * len(cols)
                outs = [edge_col[j, i, t, e.id] for e in edges if e.src == v]
                cols += outs
                vals += [-1.0] * len(outs)
                b.add_row(f"bal_{j + 1}_{i + 1}_{t}_{v}", cols, vals, "=", 0.0)
    for e in instance.network.edges:
        users = [
            (j, i, fl.demand)
            for j, i, _, fl in instance.iter_flows()
            if (j, i, 1, e.id) in edge_col
        ]
        if not users:
            continue
        for t in range(1, steps + 1):
            cols = [edge_col[j, i, t, e.id] for j, i, _ in users]
            vals = [demand for _, _, demand in users]
            b.add_row(f"cap_{e.id}_{t}", cols, vals, "<=", step_lengths[t - 1] * e.cap)
    return tuple(
        {e.id: np.array([edge_col[j, i, t, e.id] for t in range(1, steps + 1)]) for e in edges}
        for (j, i), edges in flow_edges.items()
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

    def allowed(fl, t: int) -> bool:
        return t > fl.release

    return _assemble(instance, horizon, [1.0] * horizon, allowed, horizon + 1.0)


def build_interval_lp(instance: Instance, grid: IntervalGrid) -> LPProblem:
    """The geometric-interval relaxation on ``grid``.

    Step t is the interval ``(tau_{t-1}, tau_t]``; capacities scale with
    interval length and the completion bound weighs progress by it. A
    flow may be scheduled only in intervals wholly after its release, so
    uniform-speed expansion never transmits early.
    """
    steps = grid.interval_count
    lengths = list(grid.lengths)
    bounds = grid.boundaries

    def allowed(fl, t: int) -> bool:
        return bounds[t - 1] >= fl.release - 1e-9

    for j, i, _, fl in instance.iter_flows():
        if not any(allowed(fl, t) for t in range(1, steps + 1)):
            raise ValueError(
                f"grid horizon {grid.horizon} leaves no interval after release "
                f"of coflow {j + 1} flow {i + 1}"
            )
    return _assemble(instance, steps, lengths, allowed, grid.horizon + 1.0)


def _assemble(instance, steps, lengths, allowed, completion_ub) -> LPProblem:
    b = _LPBuilder()
    c_col, x_col, cum_col = _add_schedule_columns(b, instance, steps, allowed, completion_ub)
    _add_shared_rows(b, instance, steps, lengths, c_col, x_col, cum_col)
    xe = None
    if instance.model is RoutingModel.SINGLE_PATH:
        _add_single_path_capacity(b, instance, steps, lengths, x_col)
    else:
        xe = _add_free_path_rows(b, instance, steps, lengths, x_col, allowed)
    x = [[x_col[j, i, t] for t in range(1, steps + 1)] for j, i, _, _ in instance.iter_flows()]
    return b.build(
        ColumnLayout(
            completion=np.array(list(c_col.values()), dtype=np.int64),
            x=np.array(x, dtype=np.int64).reshape(len(x), steps),
            xe=xe,
        )
    )


# ---------------------------------------------------------------------------
# solution extraction


def _collect(problem: LPProblem, x: np.ndarray, instance: Instance, steps: int):
    """Pull per-flow step fractions (and free-path edge splits) out of a
    solved column vector, clipping solver dust and renormalizing each flow
    to sum exactly to one."""
    layout = problem.layout
    if layout is None or layout.x.shape != (instance.flow_count, steps):
        raise ValueError("problem has no column layout for this instance and step count")
    fractions = [[] for _ in instance.coflows]
    edge_fractions = [[] for _ in instance.coflows]
    for f, (j, i, _, _) in enumerate(instance.iter_flows()):
        series = np.clip(x[layout.x[f]], 0.0, None)
        total = series.sum()
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-5):
            raise ValueError(
                f"flow (coflow {j + 1}, flow {i + 1}) schedules {total}, expected 1"
            )
        series /= total
        fractions[j].append(series)
        if layout.xe is not None:
            splits = {eid: np.clip(x[cols], 0.0, None) / total for eid, cols in layout.xe[f].items()}
            edge_fractions[j].append({eid: v for eid, v in splits.items() if np.any(v > 0)})
    completion = tuple(float(v) for v in x[layout.completion])
    edges = tuple(map(tuple, edge_fractions)) if layout.xe is not None else None
    return tuple(map(tuple, fractions)), edges, completion


def extract_fractional(
    problem: LPProblem, x: np.ndarray, instance: Instance, horizon: int
) -> FractionalSchedule:
    """FractionalSchedule from a solved slot-indexed LP column vector."""
    fractions, edge_fractions, completion = _collect(problem, x, instance, horizon)
    cumulative = tuple(
        np.clip(np.minimum.reduce([np.cumsum(s) for s in rows]), 0.0, 1.0)
        for rows in fractions
    )
    return FractionalSchedule(
        slot_count=horizon,
        fractions=fractions,
        cumulative=cumulative,
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

"""Independent schedule verification and continuous-time analysis checks.

``verify_schedule`` re-derives feasibility straight from the instance.
It first checks that the schedule fits the instance: one amount series
per flow, one dict of edge series per flow when given (required for
free path), every series ``slot_count`` long, every single-path flow
with a path, and every edge id, of a series or a path, known.
It then walks each flow once: no negative amount, demand, release, and
one ledger of edge series (the path's edges carrying the flow's amount
for single path, the flow's edge series for free path) that adds up the
edge loads, the net flow at each node and the gross flow out of the
source and into the sink. Conservation follows per flow, and one
capacity loop ends the check. Every comparison is written so that NaN
fails it, and a malformed schedule gives a ``shape`` violation, not an
exception.

It imports nothing from the LP, solver, rounding or pipeline modules,
so it can referee all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    FEAS_TOL,
    FractionalSchedule,
    Instance,
    RateSchedule,
    RoutingModel,
)


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    slot: int | None
    magnitude: float

    def __str__(self) -> str:
        where = f" slot {self.slot}" if self.slot is not None else ""
        return f"{self.kind}: {self.subject}{where} (by {self.magnitude:.3e})"


@np.errstate(invalid="ignore")  # inf - inf is reported as a NaN excess, not warned about
def verify_schedule(schedule: RateSchedule, instance: Instance) -> list[Violation]:
    """All feasibility violations of ``schedule`` on ``instance`` (empty =
    ok), each by more than ``FEAS_TOL``."""
    misfit = _misfit(schedule, instance)
    if misfit is not None:
        return [Violation("shape", misfit, None, 0.0)]
    slots = schedule.slot_count
    edges = instance.network.edge_by_id
    loads = {e.id: np.zeros(slots) for e in instance.network.edges}
    out: list[Violation] = []
    for j, i, _, fl in instance.iter_flows():
        tag = f"coflow {j + 1} flow {i + 1}"
        series = schedule.amounts[j][i]
        declared = schedule.edge_amounts[j][i] if schedule.edge_amounts is not None else {}
        signs = [("", series), *((f" edge {eid}", s) for eid, s in declared.items())]
        negative = [(f"{tag}{where} amount negative or NaN", -s) for where, s in signs]
        _per_slot(out, "amount", negative)
        prefix = np.cumsum(series)
        over = prefix.max(initial=0.0) - (1.0 + FEAS_TOL)
        if not over <= 0:
            out.append(Violation("demand", f"{tag} cumulative exceeds demand", None, over))
        short = abs(prefix[-1] - 1.0) if slots else 1.0
        if not short <= FEAS_TOL:
            out.append(Violation("demand", f"{tag} final cumulative != 1", None, short))
        _per_slot(out, "release", [(f"{tag} transmits before release", series[: fl.release])])

        if instance.model is RoutingModel.SINGLE_PATH:
            out.extend(_path_mismatches(tag, fl.path, series, declared))
            ledger = {eid: series for eid in fl.path}
        else:
            ledger = declared
        net: dict[str, np.ndarray] = {}
        src_out, snk_in = np.zeros(slots), np.zeros(slots)
        for eid, s in ledger.items():
            e = edges[eid]
            loads[eid] += s * fl.demand
            net[e.src] = net.get(e.src, 0.0) + s
            net[e.dst] = net.get(e.dst, 0.0) - s
            if e.src == fl.src:
                src_out += s
            if e.dst == fl.dst:
                snk_in += s
        # gross flow at the two ends; net flow there is net[fl.src] and -net[fl.dst]
        gaps = [("source out-flow != slot amount", src_out - series)]
        gaps += [("sink in-flow != slot amount", snk_in - series)]
        gaps += [(f"imbalance at node {v}", b) for v, b in net.items() if v not in (fl.src, fl.dst)]
        _per_slot(out, "conservation", [(f"{tag} {what}", np.abs(gap)) for what, gap in gaps])

    excess = [(f"edge {e.id} overloaded", loads[e.id] - e.cap) for e in instance.network.edges]
    _per_slot(out, "capacity", excess)
    return out


def _misfit(schedule: RateSchedule, instance: Instance) -> str | None:
    """Why ``schedule`` does not fit ``instance`` (series counts and
    lengths, edge ids), or None when it does."""
    coflows = instance.coflows
    edge_amounts = schedule.edge_amounts
    if len(schedule.amounts) != len(coflows):
        return "coflow count mismatch"
    if edge_amounts is None:
        if instance.model is RoutingModel.FREE_PATH:
            return "free-path schedule lacks per-edge amounts"
    elif len(edge_amounts) != len(coflows):
        return "per-edge coflow count mismatch"
    shape = (schedule.slot_count,)
    known = instance.network.edge_by_id
    single = instance.model is RoutingModel.SINGLE_PATH
    for j, cf in enumerate(coflows):
        if len(schedule.amounts[j]) != len(cf.flows):
            return f"coflow {j + 1} flow count mismatch"
        if edge_amounts is not None and len(edge_amounts[j]) != len(cf.flows):
            return f"coflow {j + 1} per-edge flow count mismatch"
        for i, (series, fl) in enumerate(zip(schedule.amounts[j], cf.flows)):
            tag = f"coflow {j + 1} flow {i + 1}"
            if np.shape(series) != shape:
                return f"{tag} slot count"
            if single:
                if fl.path is None:
                    return f"{tag} has no path"
                unknown = [eid for eid in fl.path if eid not in known]
                if unknown:
                    return f"{tag} path references unknown edge {unknown[0]}"
            for eid, s in (edge_amounts[j][i] if edge_amounts is not None else {}).items():
                if eid not in known:
                    return f"{tag} references unknown edge {eid}"
                if np.shape(s) != shape:
                    return f"{tag} edge {eid} slot count"
    return None


def _path_mismatches(tag, path, series, declared):
    """``path`` violations of optional single-path edge series: each must
    equal the flow's amount on a path edge and be 0 off it."""
    on_path = set(path)
    for eid, s in declared.items():
        if eid in on_path:
            gap, subject = np.abs(s - series), f"{tag} edge {eid} differs from flow amount"
        else:
            gap, subject = np.abs(s), f"{tag} uses off-path edge {eid}"
        worst = float(np.max(gap, initial=0.0))
        if not worst <= FEAS_TOL:
            yield Violation("path", subject, int(np.argmax(gap)) + 1, worst)


def _per_slot(out: list[Violation], kind: str, rows) -> None:
    """Append one ``kind`` violation per row and slot where the row's
    excess is above ``FEAS_TOL`` or NaN; ``rows`` pairs a subject with an
    excess series, all of one length."""
    excess = np.array([series for _, series in rows])
    for k, t in zip(*(~(excess <= FEAS_TOL)).nonzero()):
        out.append(Violation(kind, rows[k][0], int(t) + 1, float(excess[k, t])))


# ---------------------------------------------------------------------------
# continuous-time interpolation checks


@dataclass(frozen=True)
class InterpolationReport:
    """Per-coflow residuals tying the discrete progress sums to their
    continuous counterparts.

    - ``integral``: area under ``1 - X(tau)`` with X piecewise linear
    - ``identity_residual``: |integral - (discrete bound - 1/2)|, an exact
      algebraic identity up to float noise
    - ``completion_slack``: ``lp_completion - 1/2 - integral`` (must be
      >= -1e-9 on solver output; None without LP completions)
    - ``quadrature_residual``: |mean of the inverse progress curve over
      the unit interval - integral|, an independent change-of-variables
      route to the same area
    """

    integral: float
    identity_residual: float
    completion_slack: float | None
    quadrature_residual: float


#: Midpoints of the unit interval the quadrature route averages over.
QUADRATURE_POINTS = 400_001


def continuous_interpolation_checks(fractional: FractionalSchedule) -> list[InterpolationReport]:
    reports = []
    horizon = fractional.slot_count
    lams = (np.arange(QUADRATURE_POINTS) + 0.5) / QUADRATURE_POINTS
    for j, levels in enumerate(fractional.cumulative):
        padded = np.concatenate([[0.0], np.maximum.accumulate(levels)])
        trapezoid = float(horizon - (0.5 * (padded[0] + padded[-1]) + padded[1:-1].sum()))
        discrete = 1.0 + float(np.sum(1.0 - padded[1:-1]))
        identity_residual = abs(trapezoid - (discrete - 0.5))
        slack = None
        if fractional.lp_completion is not None:
            slack = fractional.lp_completion[j] - 0.5 - trapezoid
        inverse = _lambda_points_vector(padded, lams)
        quadrature = float(inverse.mean())
        reports.append(
            InterpolationReport(
                integral=trapezoid,
                identity_residual=identity_residual,
                completion_slack=slack,
                quadrature_residual=abs(quadrature - trapezoid),
            )
        )
    return reports


def _lambda_points_vector(levels: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Vectorized earliest time at which the progress curve reaches each
    requested fraction (same semantics as ``rounding.lambda_point``)."""
    top = levels[-1]
    lams = np.minimum(lams, top)
    ks = np.searchsorted(levels, lams, side="left")
    ks = np.clip(ks, 1, levels.size - 1)
    lo = levels[ks - 1]
    hi = levels[ks]
    rise = np.where(hi > lo, hi - lo, 1.0)
    return (ks - 1) + (lams - lo) / rise


#: Random unit vectors :func:`check_identity_on_vectors` tries, and the
#: longest of them.
IDENTITY_TRIALS, IDENTITY_MAX_LEN = 100, 40


def check_identity_on_vectors(rng: np.random.Generator) -> float:
    """Max residual of the prefix-sum identity
    ``sum_t t*x(t) == 1 + sum_{t<T} (1 - X(t))`` over random unit vectors.
    """
    worst = 0.0
    for _ in range(IDENTITY_TRIALS):
        n = int(rng.integers(1, IDENTITY_MAX_LEN + 1))
        x = rng.random(n)
        x /= x.sum()
        prefix = np.cumsum(x)
        lhs = float(np.sum((np.arange(n) + 1) * x))
        rhs = 1.0 + float(np.sum(1.0 - prefix[:-1]))
        worst = max(worst, abs(lhs - rhs))
    return worst

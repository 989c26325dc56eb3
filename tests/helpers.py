"""Test references and fixtures: a ``CSR`` matrix as ``scipy.sparse``
sees it, an LP assembled from a row list, an LP read back from an MPS
file, a row-permuted LP, a hand-checked optimal schedule of the demo
instance, and the replay of an open-shop permutation. No production path
calls them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from coflownet import Instance, LPProblem, RateSchedule, RoutingModel
from coflownet.csr import CSR
from coflownet.lp import _named
from coflownet.openshop import OpenShopInstance
from coflownet.solver import HighsStatus, _Highs, _set


def as_scipy(matrix: CSR) -> sp.csr_matrix:
    """``matrix`` as a ``scipy.sparse`` matrix over the same arrays, the
    independent reference of the tests."""
    return sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


def from_rows(objective, col_lower, col_upper, col_names, rows, layout=None) -> LPProblem:
    """Assemble the CSR matrix from ``rows``, a sequence of
    ``(name, cols, vals, relation, rhs)`` with relation one of
    ``<=``, ``=``, ``>=``. Column and row names must be unique."""
    names, cols, vals, relations, rhs = zip(*rows) if rows else ((),) * 5
    if len(set(col_names)) != len(col_names):
        raise ValueError("column names are not unique")
    if len(set(names)) != len(names):
        raise ValueError("row names are not unique")
    if not set(relations) <= {"<=", "=", ">="}:
        raise ValueError(f"bad relation in {sorted(set(relations))}")
    indptr = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, cols), dtype=np.int64, count=len(names)), out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter(chain.from_iterable(cols), dtype=np.int64, count=nnz)
    data = np.fromiter(chain.from_iterable(vals), dtype=float, count=nnz)
    relations = np.array(relations, dtype=object)
    rhs = np.array(rhs, dtype=float)
    return LPProblem(
        objective=np.array(objective, dtype=float),
        col_lower=np.array(col_lower, dtype=float),
        col_upper=np.array(col_upper, dtype=float),
        A=CSR(indptr, indices, data, (len(names), len(col_names))),
        row_lower=np.where(relations == "<=", -math.inf, rhs),
        row_upper=np.where(relations == ">=", math.inf, rhs),
        col_naming=_named(col_names),
        row_naming=_named(names),
        layout=layout,
    )


def load_mps(path: str | Path) -> LPProblem:
    """The problem HiGHS reads from the MPS file ``path``, names and
    objective constant included, and without a layout or step map; OSError
    when it cannot, ValueError when two columns or rows share a name."""
    highs = _Highs()
    _set(highs, "output_flag", False)
    if highs.readModel(str(path)) == HighsStatus.kError:
        raise OSError(f"HiGHS could not read {path}")
    highs.ensureRowwise()
    lp = highs.getLp()
    # HiGHS drops a file's names when two of them are the same
    if len(set(lp.col_names_)) != lp.num_col_:
        raise ValueError("column names are not unique")
    if len(set(lp.row_names_)) != lp.num_row_:
        raise ValueError("row names are not unique")
    m = lp.a_matrix_
    A = CSR(m.start_, m.index_, m.value_, (lp.num_row_, lp.num_col_))
    columns = [np.array(v, dtype=float) for v in (lp.col_cost_, lp.col_lower_, lp.col_upper_)]
    rows = [np.array(v, dtype=float) for v in (lp.row_lower_, lp.row_upper_)]
    return LPProblem(
        *columns, A, *rows, _named(lp.col_names_), _named(lp.row_names_), offset=lp.offset_
    )


def permuted_rows(problem: LPProblem, order) -> LPProblem:
    """Same LP with rows reordered (for solver-invariance checks)."""
    order = np.asarray(order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(problem.num_rows)):
        raise ValueError("order is not a permutation of the rows")
    return replace(
        problem,
        row_naming=_named(problem.row_names[r] for r in order),
        A=problem.A.select_rows(order),
        row_lower=problem.row_lower[order],
        row_upper=problem.row_upper[order],
        step_map=(
            replace(problem.step_map, row_step=problem.step_map.row_step[order])
            if problem.step_map else None
        ),
    )


def demo_optimal_schedule(model: RoutingModel) -> RateSchedule:
    """A hand-checked optimal schedule for
    :func:`coflownet.generate.demo_instance`.

    Single path: the three unit flows go in slot 1; the big flow needs
    its shared edge alone, so it runs in slots 2-4 (objective 7). Free
    path: unit flows in slot 1, the big flow splits over all three
    relays in slot 2 (objective 5).
    """
    if model is RoutingModel.SINGLE_PATH:
        third = np.array([0.0, 1 / 3, 1 / 3, 1 / 3])
        one = np.array([1.0, 0.0, 0.0, 0.0])
        return RateSchedule(
            slot_count=4,
            amounts=((one,), (one,), (one,), (third,)),
            edge_amounts=None,
        )
    one = np.array([1.0, 0.0])
    blue = np.array([0.0, 1.0])
    split = np.array([0.0, 1 / 3])
    return RateSchedule(
        slot_count=2,
        amounts=((one,), (one,), (one,), (blue,)),
        edge_amounts=(
            ({"v1-t": one},),
            ({"v2-t": one},),
            ({"v3-t": one},),
            (
                {
                    "s-v1": split, "v1-t": split,
                    "s-v2": split, "v2-t": split,
                    "s-v3": split, "v3-t": split,
                },
            ),
        ),
    )


def permutation_schedule(shop: OpenShopInstance, order, instance: Instance) -> RateSchedule:
    """Replay a permutation on the reduced instance as a rate schedule.

    Machine work runs back to back at unit rate, so each slot moves a
    ``1/demand`` fraction. Requires integer processing times.
    """
    horizon = max(1, int(math.ceil(max(math.fsum(row[i] for row in shop.processing) for i in range(shop.machines)))))
    amounts: list[list[np.ndarray]] = []
    for j, row in enumerate(shop.processing):
        amounts.append([np.zeros(horizon) for p in row if p > 0])
    starts = [0.0] * shop.machines
    for j in order:
        row = shop.processing[j]
        flow_idx = 0
        for i in range(shop.machines):
            if row[i] <= 0:
                continue
            p = int(row[i])
            if p != row[i]:
                raise ValueError("permutation replay needs integer processing times")
            begin = int(starts[i])
            for t in range(begin, begin + p):
                amounts[j][flow_idx][t] = 1.0 / p
            starts[i] += p
            flow_idx += 1
    return RateSchedule(
        slot_count=horizon,
        amounts=tuple(tuple(flows) for flows in amounts),
        edge_amounts=None,
    )


def assert_bitwise_schedule(got, want):
    """Two schedules agree bit for bit, edge series in the same order."""
    assert got.slot_count == want.slot_count
    for flows_got, flows_want in zip(got.amounts, want.amounts, strict=True):
        for a, b in zip(flows_got, flows_want, strict=True):
            np.testing.assert_array_equal(a, b)
    assert (got.edge_amounts is None) == (want.edge_amounts is None)
    if got.edge_amounts is not None:
        for flows_got, flows_want in zip(got.edge_amounts, want.edge_amounts, strict=True):
            for a, b in zip(flows_got, flows_want, strict=True):
                assert list(a) == list(b)
                for eid in a:
                    np.testing.assert_array_equal(a[eid], b[eid])

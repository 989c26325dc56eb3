"""``CSR`` runs scipy's own sparse kernels: every product and selection is
bitwise equal to ``scipy.sparse``'s, and a malformed matrix is refused
before any kernel could read out of bounds."""

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import as_scipy

from coflownet.csr import CSR


def _random_csr(rng, rows, cols, index):
    """A random ``rows`` x ``cols`` matrix with ``index`` index arrays and
    some empty rows and columns."""
    dense = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < 0.3)
    dense[rng.random(rows) < 0.2] = 0.0
    dense[:, rng.random(cols) < 0.2] = 0.0
    m = sp.csr_matrix(dense)
    return CSR(m.indptr.astype(index), m.indices.astype(index), m.data, m.shape)


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_matrix(got, want):
    assert isinstance(got, CSR) and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        _same(getattr(got, name), getattr(want, name))


SHAPES = [(0, 0), (0, 4), (5, 0), (1, 1), (1, 7), (7, 1), (9, 13), (40, 25)]


@pytest.mark.parametrize("index", [np.int32, np.int64])
@pytest.mark.parametrize("shape", SHAPES)
def test_products_and_selections_match_scipy_bit_for_bit(index, shape):
    rng = np.random.default_rng(sum(shape))
    rows, cols = shape
    a = _random_csr(rng, rows, cols, index)
    ref = as_scipy(a)
    # the index dtype scipy picks for the same arrays
    assert a.indptr.dtype == a.indices.dtype == ref.indptr.dtype == np.int32
    x, y = rng.standard_normal(cols), rng.standard_normal(rows)
    _same(a @ x, ref @ x)
    _same(y @ a, ref.T @ y)
    _same(y @ a, y @ ref)
    for stack in (0, 1, 3):
        X = rng.standard_normal((stack, rows))
        _same(X @ a, X @ ref)
        assert (X @ a).flags.c_contiguous == (X @ ref).flags.c_contiguous
    for picked in ([], rng.permutation(rows), rng.integers(0, max(rows, 1), 2 * rows)):
        picked = np.asarray(picked, dtype=np.int64)
        _same_matrix(a.select_rows(picked), ref[picked])
    for picked in ([], np.flatnonzero(rng.random(cols) < 0.5), rng.permutation(cols)):
        picked = np.asarray(picked, dtype=np.int64)
        _same_matrix(a.select_columns(picked), ref[:, picked])
    assert a.nnz == ref.nnz


def test_lp_matrices_match_scipy_products(solved_free):
    p, _, _ = solved_free
    ref = as_scipy(p.A)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(p.num_cols), rng.standard_normal(p.num_rows)
    _same(p.A @ x, ref @ x)
    _same(y @ p.A, ref.T @ y)
    rows = np.flatnonzero(rng.random(p.num_rows) < 0.6)
    cols = np.flatnonzero(rng.random(p.num_cols) < 0.6)
    _same_matrix(p.A.select_rows(rows).select_columns(cols), ref[rows][:, cols])


def test_large_shapes_get_int64_indices():
    a = CSR([0, 1], [2**31], [1.0], (1, 2**31 + 1))
    assert a.indptr.dtype == a.indices.dtype == np.int64
    assert a.select_rows([0, 0]).indices.dtype == np.int64


@pytest.mark.parametrize(
    "indptr, indices, data, shape",
    [
        ([0, 1], [0], [1.0, 2.0], (1, 2)),  # data longer than indices
        ([0, 1, 2], [0, 1], [1.0, 2.0], (1, 2)),  # one indptr entry too many
        ([0, 2], [0, 1], [1.0, 2.0], (2, 2)),  # one too few
        ([1, 2], [0, 1], [1.0, 2.0], (1, 2)),  # does not start at 0
        ([0, 1], [0, 1], [1.0, 2.0], (1, 2)),  # does not end at nnz
        ([0, 2, 1, 2], [0, 1], [1.0, 2.0], (3, 2)),  # decreases
        ([0, 2], [0, 2], [1.0, 2.0], (1, 2)),  # column out of range
        ([0, 2], [-1, 1], [1.0, 2.0], (1, 2)),  # negative column
        ([0, 2], [0.0, 1.0], [1.0, 2.0], (1, 2)),  # float indices
        ([[0, 2]], [0, 1], [1.0, 2.0], (0, 2)),  # 2-D indptr
        ([0, 2], [0, 1], [[1.0, 2.0]], (1, 2)),  # 2-D data
        ([0], [], [], (-1, 2)),  # negative shape
    ],
)
def test_malformed_matrices_are_refused(indptr, indices, data, shape):
    with pytest.raises(ValueError):
        CSR(np.asarray(indptr), np.asarray(indices), np.asarray(data), shape)


def test_out_of_range_operands_are_refused():
    a = CSR([0, 1, 2], [0, 2], [1.0, 2.0], (2, 3))
    for bad in ([2], [-1], [2**32]):
        with pytest.raises(ValueError):
            a.select_rows(np.array(bad))
    for bad in ([3], [-1], [2**32]):
        with pytest.raises(ValueError):
            a.select_columns(np.array(bad))
    for bad in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError):
            a @ bad
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((1, 1, 2))):
        with pytest.raises(ValueError):
            bad @ a

"""Row-compressed sparse matrices over scipy's own compiled kernels.

The LP matrix and the slot-overlap matrix of the rounding need five
sparse operations: ``A @ x``, ``y @ A``, ``X @ A`` for a stack of rows
``X``, a row gather and a column selection. :class:`CSR` holds the four
arrays of a row-compressed matrix and runs each operation through the C
loop ``scipy.sparse`` itself calls for it (``csr_matvec``,
``csc_matvec``, ``csc_matvecs``, ``csr_row_index``,
``csr_column_index1``/``2``), so every result is bitwise equal to
``scipy.sparse``'s. Those loops live in the extension module
``scipy.sparse._sparsetools``, which :func:`_load_extension` loads from
its file: the ``scipy.sparse`` package around it is never imported. Its
``__init__`` pulls in scipy's array-API layer, and with it
``numpy.f2py``, ``numpy.testing`` and ``charset_normalizer``; skipping
it took a cold ``coflownet solve`` of ``gen --jobs 10 --seed 1`` from
0.68 s and 58 MB to 0.41 s and 45 MB (median of 5 fresh processes,
2-vCPU VM). The solver loads scipy's HiGHS binding the same way (see
:mod:`coflownet.solver`).

The kernels check no bounds, so the constructor checks everything they
index by, once: a matrix that passes it can be handed to any of them.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy


def _load_extension(name: str):
    """The extension module ``name`` (a dotted name under ``scipy``), loaded
    from its file so that the packages around it are never imported.

    A module already in ``sys.modules`` is reused. Otherwise the file is
    found beside scipy and registered under its own name before it runs,
    so a later import of its package finds this module object rather than
    loading the extension again. Only when no such file exists does the
    plain import run.
    """
    if name in sys.modules:
        return sys.modules[name]
    _, *packages, module = name.split(".")
    folder = Path(scipy.__file__).parent.joinpath(*packages)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"{module}{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            loaded = importlib.util.module_from_spec(spec)
            sys.modules[name] = loaded
            try:
                spec.loader.exec_module(loaded)
            except BaseException:
                del sys.modules[name]
                raise
            return loaded
    return importlib.import_module(name)


_sparsetools = _load_extension("scipy.sparse._sparsetools")

_INT32_MAX = np.iinfo(np.int32).max


def _integers(values, what: str, bound: int | None = None) -> np.ndarray:
    """``values`` as a 1-D integer array; ValueError when it is not one, or
    when ``bound`` is given and an entry lies outside ``[0, bound)``."""
    array = np.asarray(values)
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        raise ValueError(f"{what} must be a 1-D integer array")
    if bound is not None and array.size and (array.min() < 0 or array.max() >= bound):
        raise ValueError(f"{what} must lie in [0, {bound})")
    return array


@dataclass(frozen=True, eq=False)
class CSR:
    """A ``shape[0]`` x ``shape[1]`` matrix in compressed sparse row form:
    the entries of row r are ``data[indptr[r]:indptr[r + 1]]``, in the
    columns ``indices[indptr[r]:indptr[r + 1]]``.

    The constructor checks that ``indptr`` has one entry per row plus one,
    starts at 0, never decreases and ends at ``len(data)``, and that every
    column index lies in the matrix (ValueError otherwise). It stores the
    index arrays as int32 when every index and the entry count fit, int64
    otherwise, as ``scipy.sparse`` does, and ``data`` as float64.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    #: ``ndarray @ CSR`` hands the product to :meth:`__rmatmul__`.
    __array_ufunc__ = None

    def __post_init__(self):
        rows, cols = map(int, self.shape)
        if rows < 0 or cols < 0:
            raise ValueError(f"bad shape {self.shape}")
        indptr = _integers(self.indptr, "indptr")
        indices = _integers(self.indices, "column indices", cols)
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 1 or len(indices) != len(data):
            raise ValueError("indices and data must be 1-D arrays of one length")
        if len(indptr) != rows + 1 or indptr[0] != 0 or indptr[-1] != len(data):
            raise ValueError(f"indptr must run from 0 to {len(data)} over {rows + 1} entries")
        if np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("indptr must not decrease")
        index = np.int32 if max(rows, cols, len(data)) <= _INT32_MAX else np.int64
        object.__setattr__(self, "indptr", indptr.astype(index, copy=False))
        object.__setattr__(self, "indices", indices.astype(index, copy=False))
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", (rows, cols))

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return len(self.data)

    def __matmul__(self, x) -> np.ndarray:
        """``A @ x`` for a vector ``x`` of ``shape[1]`` entries."""
        rows, cols = self.shape
        if np.shape(x) != (cols,):
            raise ValueError(f"cannot multiply a {self.shape} matrix by shape {np.shape(x)}")
        out = np.zeros(rows)
        _sparsetools.csr_matvec(rows, cols, self.indptr, self.indices, self.data, x, out)
        return out

    def __rmatmul__(self, other) -> np.ndarray:
        """``y @ A`` for a vector ``y`` of ``shape[0]`` entries, or ``X @ A``
        for the rows of a 2-D ``X``: the product of the transpose, a
        column-compressed matrix over the same arrays, as scipy forms it."""
        rows, cols = self.shape
        other = np.asarray(other)
        if other.ndim not in (1, 2) or other.shape[-1] != rows:
            raise ValueError(f"cannot multiply shape {other.shape} by a {self.shape} matrix")
        if other.ndim == 1:
            out = np.zeros(cols)
            _sparsetools.csc_matvec(cols, rows, self.indptr, self.indices, self.data, other, out)
            return out
        # column k of out is row k of the result: scipy's layout, transposed
        out = np.zeros((cols, len(other)))
        _sparsetools.csc_matvecs(
            cols, rows, len(other), self.indptr, self.indices, self.data,
            other.T.ravel(), out.ravel(),
        )
        return out.T

    def select_rows(self, rows) -> CSR:
        """The rows ``rows`` (indices into ``shape[0]``, in that order)."""
        index = self.indptr.dtype
        rows = _integers(rows, "rows", self.shape[0]).astype(index, copy=False)
        indptr = np.zeros(len(rows) + 1, dtype=index)
        np.cumsum(self.indptr[rows + 1] - self.indptr[rows], out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=index)
        data = np.empty(indptr[-1])
        _sparsetools.csr_row_index(
            len(rows), rows, self.indptr, self.indices, self.data, indices, data
        )
        return CSR(indptr, indices, data, (len(rows), self.shape[1]))

    def select_columns(self, cols) -> CSR:
        """The columns ``cols`` (indices into ``shape[1]``, in that order)."""
        rows, width = self.shape
        index = self.indptr.dtype
        cols = _integers(cols, "columns", width).astype(index, copy=False)
        # pass 1 counts each column's uses and each row's entries, pass 2 copies
        offsets = np.zeros(width, dtype=index)
        indptr = np.empty_like(self.indptr)
        _sparsetools.csr_column_index1(
            len(cols), cols, rows, width, self.indptr, self.indices, offsets, indptr
        )
        indices = np.empty(indptr[-1], dtype=index)
        data = np.empty(indptr[-1])
        _sparsetools.csr_column_index2(
            np.argsort(cols).astype(index, copy=False), offsets, self.nnz,
            self.indices, self.data, indices, data,
        )
        return CSR(indptr, indices, data, (rows, len(cols)))

"""MPS export/import so any external LP solver can be swapped in.

The writer emits the classic fixed-layout sections (NAME, ROWS, COLUMNS,
RHS, BOUNDS, ENDATA) with aligned fields; field widths grow with the
longest name so generated column names like ``xe_2_1_4_s-v1`` never
truncate. The reader accepts exactly this dialect, which is also plain
free-format MPS, so files round-trip through third-party solvers.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .lp import LPProblem

_OBJ = "OBJ"
_TAG_TO_REL = {"L": "<=", "G": ">=", "E": "="}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def write_mps(problem: LPProblem, name: str = "COFLOW") -> str:
    width = max(
        [8]
        + [len(c) for c in problem.col_names]
        + [len(r) for r in problem.row_names]
    ) + 2
    vwidth = 14

    def field(s: str) -> str:
        return s.ljust(width)

    equality = problem.row_lower == problem.row_upper
    rhs = np.where(np.isinf(problem.row_upper), problem.row_lower, problem.row_upper)
    lines = [f"NAME          {name}", "ROWS", f" N  {_OBJ}"]
    for r, row_name in enumerate(problem.row_names):
        tag = "E" if equality[r] else "L" if np.isinf(problem.row_lower[r]) else "G"
        lines.append(f" {tag}  {row_name}")

    csc = problem.A.tocsc()
    entries: list[list[tuple[str, float]]] = [[] for _ in range(problem.num_cols)]
    for c in range(problem.num_cols):
        if problem.objective[c] != 0.0:
            entries[c].append((_OBJ, float(problem.objective[c])))
        span = slice(csc.indptr[c], csc.indptr[c + 1])
        for r, v in zip(csc.indices[span], csc.data[span]):
            if v != 0.0:
                entries[c].append((problem.row_names[r], float(v)))

    lines.append("COLUMNS")
    for c in range(problem.num_cols):
        pairs = entries[c]
        for k in range(0, len(pairs), 2):
            chunk = pairs[k : k + 2]
            parts = [f"    {field(problem.col_names[c])}"]
            for row_name, v in chunk:
                parts.append(f"{field(row_name)}{_fmt(v).rjust(vwidth)}")
            lines.append("  ".join(parts))

    lines.append("RHS")
    for r in range(problem.num_rows):
        if rhs[r] != 0.0:
            lines.append(f"    {field('RHS')}{field(problem.row_names[r])}{_fmt(rhs[r]).rjust(vwidth)}")

    lines.append("BOUNDS")
    for c in range(problem.num_cols):
        lo, hi = problem.col_lower[c], problem.col_upper[c]
        cname = field(problem.col_names[c])
        if lo == hi:
            lines.append(f" FX {field('BND')}{cname}{_fmt(lo).rjust(vwidth)}")
            continue
        if lo != 0.0:
            lines.append(f" LO {field('BND')}{cname}{_fmt(lo).rjust(vwidth)}")
        if math.isfinite(hi):
            lines.append(f" UP {field('BND')}{cname}{_fmt(hi).rjust(vwidth)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def save_mps(problem: LPProblem, path: str | Path, name: str = "COFLOW") -> None:
    Path(path).write_text(write_mps(problem, name=name))


def read_mps(text: str) -> LPProblem:
    """Parse the dialect produced by :func:`write_mps`."""
    section = None
    obj_row = None
    row_rel: dict[str, str] = {}
    row_order: list[str] = []
    col_order: list[str] = []
    col_idx: dict[str, int] = {}
    objective: list[float] = []
    lower: list[float] = []
    upper: list[float] = []
    row_entries: dict[str, tuple[list[int], list[float]]] = {}
    rhs: dict[str, float] = {}

    def ensure_col(name: str) -> int:
        if name not in col_idx:
            col_idx[name] = len(col_order)
            col_order.append(name)
            objective.append(0.0)
            lower.append(0.0)
            upper.append(math.inf)
        return col_idx[name]

    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        head = raw[:1] != " "
        tokens = raw.split()
        if head:
            section = tokens[0]
            continue
        if section == "ROWS":
            tag, name = tokens
            if tag == "N":
                obj_row = name
            else:
                row_rel[name] = _TAG_TO_REL[tag]
                row_order.append(name)
                row_entries[name] = ([], [])
        elif section == "COLUMNS":
            col = ensure_col(tokens[0])
            pairs = tokens[1:]
            if len(pairs) % 2:
                raise ValueError(f"odd COLUMNS record: {raw!r}")
            for rname, val in zip(pairs[::2], pairs[1::2]):
                if rname == obj_row:
                    objective[col] += float(val)
                else:
                    row_entries[rname][0].append(col)
                    row_entries[rname][1].append(float(val))
        elif section == "RHS":
            pairs = tokens[1:]
            for rname, val in zip(pairs[::2], pairs[1::2]):
                if rname != obj_row:
                    rhs[rname] = float(val)
        elif section == "BOUNDS":
            kind, _, cname = tokens[:3]
            col = ensure_col(cname)
            if kind == "UP":
                upper[col] = float(tokens[3])
            elif kind == "LO":
                lower[col] = float(tokens[3])
            elif kind == "FX":
                lower[col] = upper[col] = float(tokens[3])
            elif kind == "MI":
                lower[col] = -math.inf
            elif kind == "PL":
                upper[col] = math.inf
            else:
                raise ValueError(f"unsupported bound kind {kind!r}")

    rows = [(r, *row_entries[r], row_rel[r], rhs.get(r, 0.0)) for r in row_order]
    return LPProblem.from_rows(objective, lower, upper, col_order, rows)


def load_mps(path: str | Path) -> LPProblem:
    return read_mps(Path(path).read_text())

"""Matrix Market coordinate I/O plus one-real-per-line right-hand sides.

External ids are 1-based; conversion to the library's 0-based ids happens
here and nowhere else.  Values are written with 17 significant digits so
write -> read -> write is byte-identical.
"""
from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from .core import SparseSystem
from .errors import DimensionMismatchError, ParseError

BANNER = "%%MatrixMarket matrix coordinate real general"


def _fmt(v: float) -> str:
    return "%.17g" % v


def write_matrix_market(sys: SparseSystem, path: str) -> None:
    lines = [BANNER, f"{sys.n} {sys.n} {len(sys.data)}"]
    for i, j, v in zip(sys.rows.tolist(), sys.indices.tolist(),
                       sys.data.tolist()):  # CSR order: sorted (row, col)
        lines.append(f"{i + 1} {j + 1} {_fmt(v)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_rhs(b: Sequence[float], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(_fmt(float(v)) for v in b) + "\n")


def read_matrix_market(path: str) -> tuple[int, list[tuple[int, int, float]]]:
    """Parse a coordinate real general file into (n, 0-based entries).

    Square only; ParseError carries the offending 1-based line number.
    """
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise ParseError("empty file", line=1)
    banner = raw[0].strip()
    if not banner.lower().startswith("%%matrixmarket"):
        raise ParseError(f"missing MatrixMarket banner, got {banner!r}", line=1)
    fields = banner.lower().split()
    if fields[1:5] != ["matrix", "coordinate", "real", "general"]:
        raise ParseError(
            f"unsupported format {banner!r}; need coordinate real general",
            line=1)
    size_line = None
    lineno = 1
    for lineno, text in enumerate(raw[1:], start=2):
        s = text.strip()
        if not s or s.startswith("%"):
            continue
        size_line = (lineno, s)
        break
    if size_line is None:
        raise ParseError("no size line found", line=lineno)
    lineno, s = size_line
    parts = s.split()
    if len(parts) != 3:
        raise ParseError(f"size line needs 'rows cols nnz', got {s!r}",
                         line=lineno)
    try:
        rows, cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"size line has non-integer fields: {s!r}",
                         line=lineno) from None
    if rows != cols:
        raise DimensionMismatchError(
            f"matrix is {rows}x{cols}; only square systems are read")
    if rows < 1 or nnz < 0:
        raise ParseError(f"bad sizes in {s!r}", line=lineno)
    entries: list[tuple[int, int, float]] = []
    seen: dict[tuple[int, int], int] = {}
    for lineno, text in enumerate(raw[lineno:], start=lineno + 1):
        s = text.strip()
        if not s or s.startswith("%"):
            continue
        if len(entries) == nnz:
            raise ParseError(
                f"extra entry line after the declared {nnz}", line=lineno)
        parts = s.split()
        if len(parts) != 3:
            raise ParseError(f"entry needs 'row col value', got {s!r}",
                             line=lineno)
        try:
            i = int(parts[0])
            j = int(parts[1])
            v = float(parts[2])
        except ValueError:
            raise ParseError(f"malformed entry {s!r}", line=lineno) from None
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise ParseError(
                f"index ({i}, {j}) outside 1..{rows}", line=lineno)
        if not np.isfinite(v):
            raise ParseError(f"entry ({i}, {j}) has non-finite value {v!r}",
                             line=lineno)
        if (i, j) in seen:
            raise ParseError(
                f"duplicate entry ({i}, {j}); first seen on line "
                f"{seen[(i, j)]}", line=lineno)
        seen[(i, j)] = lineno
        entries.append((i - 1, j - 1, v))
    if len(entries) != nnz:
        raise ParseError(
            f"declared {nnz} entries but found {len(entries)}",
            line=len(raw))
    return rows, entries


def read_rhs(path: str) -> np.ndarray:
    with open(path) as fh:
        raw = fh.read().splitlines()
    values = []
    for lineno, text in enumerate(raw, start=1):
        s = text.strip()
        if not s or s.startswith("%"):
            continue
        try:
            values.append(float(s))
        except ValueError:
            raise ParseError(f"not a real number: {s!r}", line=lineno) from None
        if not np.isfinite(values[-1]):
            raise ParseError(f"non-finite value {s!r}", line=lineno)
    return np.array(values, dtype=float)


def load_system(matrix_path: str, rhs_path: str) -> SparseSystem:
    n, entries = read_matrix_market(matrix_path)
    b = read_rhs(rhs_path)
    if b.shape != (n,):
        raise DimensionMismatchError(
            f"matrix is {n}x{n} but right-hand side has {b.shape[0]} values")
    return SparseSystem(n, entries, b)


def default_rhs_path(matrix_path: str) -> str:
    root, _ = os.path.splitext(matrix_path)
    return root + ".rhs"

"""Matrix Market coordinate I/O plus one-real-per-line right-hand sides.

The matrix grammar is the coordinate format of Boisvert et al., "Matrix
Market: A Web Resource for Test Matrix Collections" (1997), restricted to
square real general matrices:

- line 1 is the banner ``%%MatrixMarket matrix coordinate real general``
  (case-insensitive; words after the fourth are ignored);
- then the size line ``rows cols nnz``, with rows == cols >= 1 and
  nnz >= 0;
- then exactly nnz entry lines ``i j value``: 1-based indices in
  1..rows, each (i, j) at most once, and a finite value.

A right-hand side is one finite real per line.  In both files, blank lines
and whole-line ``%`` comments may stand between any two lines after the
banner; a ``%`` after an entry or a value is an error.  Lines are those of
``str.splitlines``, tokens are separated by whitespace, and a token is
whatever Python's ``int`` (indices) or ``float`` (values) accepts.  Every
violation raises a ParseError (a non-square size line a
DimensionMismatchError) that names the first offending line, 1-based.

A body is parsed in one ``np.loadtxt`` pass and checked as arrays.  When
that parse or a check refuses it, the per-line loop reads it again and
raises the error of the first offending line; it also reads the tokens
that only Python's ``int`` and ``float`` accept, such as ``1_0``.

External ids are 1-based; conversion to the library's 0-based ids happens
here and nowhere else.  Values are written with 17 significant digits so
write -> read -> write is byte-identical.
"""
from __future__ import annotations

import io
import os
import re
import warnings
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import MAX_KEYED_NODES, SparseSystem
from .errors import DimensionMismatchError, ParseError

BANNER = "%%MatrixMarket matrix coordinate real general"

# the line breaks of str.splitlines, once text mode has read \r and \r\n
# as \n; np.loadtxt splits lines at \n only and reads the others as spaces
_BREAK = re.compile("[\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_SPACE_BREAKS = "\x0b\x0c\x1c\x1d\x1e"
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def write_matrix_market(sys: SparseSystem, path: str) -> None:
    # CSR order: sorted (row, col)
    entries = zip((sys.rows + 1).tolist(), (sys.indices + 1).tolist(),
                  sys.data.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join([BANNER, f"{sys.n} {sys.n} {len(sys.data)}",
                            *map("%d %d %.17g".__mod__, entries)]) + "\n")


def write_rhs(b: Sequence[float], path: str) -> None:
    values = np.asarray(b, dtype=float).tolist()
    with open(path, "w") as fh:
        fh.write("\n".join(map("%.17g".__mod__, values)) + "\n")


def _read_text(path: str) -> str:
    """The file's text, read as UTF-8; ParseError naming the file and the
    line of its first bad byte when it is not."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:  # read() decodes the whole file
        raise ParseError(f"{path} is not UTF-8 text ({exc.reason})",
                         exc.object.count(b"\n", 0, exc.start) + 1) from None


def _lines(text: str) -> Iterator[tuple[int, str, int]]:
    """(lineno, line, end) for the lines of text.splitlines(), lazily;
    end is the offset just past the line's break."""
    pos = lineno = 0
    while pos < len(text):
        m = _BREAK.search(text, pos)
        stop, end = (m.start(), m.end()) if m else (len(text), len(text))
        lineno += 1
        yield lineno, text[pos:stop], end
        pos = end


def _loadtxt(body: str, dtype, ndmin: int) -> Optional[np.ndarray]:
    """np.loadtxt of body, one row per line, or None when body holds a
    line break that np.loadtxt does not split at, or the parse fails or
    warns (an empty body, or a blank line under max_rows)."""
    if not body.isascii() or any(c in body for c in _SPACE_BREAKS):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            # max_rows sizes the buffer once: no more rows than lines
            return np.loadtxt(io.StringIO(body), dtype=dtype, comments=None,
                              ndmin=ndmin, max_rows=body.count("\n") + 1)
        except (ValueError, Warning):
            return None


def _array_entries(body: str, n: int, nnz: int) -> Optional[np.ndarray]:
    """The entries of a well-formed body as an (nnz, 3) array of 0-based
    row, col and value; None when the per-line loop must judge it."""
    if n > MAX_KEYED_NODES:  # a key i * n + j would not fit in int64
        return None
    got = _loadtxt(body, _ENTRY, ndmin=1)
    if got is None or len(got) != nnz:
        return None
    i, j, v = got["i"] - 1, got["j"] - 1, got["v"]
    if not (((0 <= i) & (i < n) & (0 <= j) & (j < n)).all()
            and np.isfinite(v).all()):
        return None
    keys = np.sort(i * n + j)
    if (keys[1:] == keys[:-1]).any():
        return None
    return np.column_stack((i, j, v))


def _line_entries(body: str, lineno: int, n: int, nnz: int) -> np.ndarray:
    """The per-line reading of the entry lines after the size line
    ``lineno``: what _array_entries returns, or the ParseError of the
    first offending line."""
    lines = body.splitlines()
    entries: list[tuple[int, int, float]] = []
    seen: dict[tuple[int, int], int] = {}
    last = lineno + len(lines)
    for lineno, text in enumerate(lines, start=lineno + 1):
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
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(
                f"index ({i}, {j}) outside 1..{n}", line=lineno)
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
            f"declared {nnz} entries but found {len(entries)}", line=last)
    return np.array(entries, dtype=float).reshape(nnz, 3)


def read_matrix_market(path: str) -> tuple[int, np.ndarray]:
    """Parse a coordinate real general file into (n, entries), entries
    an (nnz, 3) float array of 0-based row, col and value in file order.

    Square only; ParseError carries the offending 1-based line number.
    """
    text = _read_text(path)
    lines = _lines(text)
    first = next(lines, None)
    if first is None:
        raise ParseError("empty file", line=1)
    banner = first[1].strip()
    if not banner.lower().startswith("%%matrixmarket"):
        raise ParseError(f"missing MatrixMarket banner, got {banner!r}", line=1)
    fields = banner.lower().split()
    if fields[1:5] != ["matrix", "coordinate", "real", "general"]:
        raise ParseError(
            f"unsupported format {banner!r}; need coordinate real general",
            line=1)
    lineno = 1
    for lineno, line, start in lines:
        s = line.strip()  # the size line: the first that is no comment
        if s and not s.startswith("%"):
            break
    else:
        raise ParseError("no size line found", line=lineno)
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
    body = text[start:]
    entries = _array_entries(body, rows, nnz)
    if entries is None:
        entries = _line_entries(body, lineno, rows, nnz)
    return rows, entries


def _line_rhs(text: str) -> np.ndarray:
    """The per-line reading of a right-hand side: what read_rhs returns,
    or the ParseError of the first offending line."""
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("%"):
            continue
        try:
            values.append(float(s))
        except ValueError:
            raise ParseError(f"not a real number: {s!r}", line=lineno) from None
        if not np.isfinite(values[-1]):
            raise ParseError(f"non-finite value {s!r}", line=lineno)
    return np.array(values, dtype=float)


def read_rhs(path: str) -> np.ndarray:
    text = _read_text(path)
    values = _loadtxt(text, float, ndmin=2)
    if (values is None or values.shape[1] != 1
            or not np.isfinite(values).all()):
        return _line_rhs(text)
    return values.reshape(-1)


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

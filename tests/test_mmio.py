import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walksolve import mmio
from walksolve.core import GeneratorSpec, SparseSystem, generate_instance
from walksolve.errors import (
    DimensionMismatchError,
    MissingDiagonalError,
    ParseError,
)
from walksolve.mmio import (
    default_rhs_path,
    load_system,
    read_matrix_market,
    read_rhs,
    write_matrix_market,
    write_rhs,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_round_trip_is_byte_stable(tmp_path):
    sys = generate_instance(GeneratorSpec(kind="random-sparse", n=9, seed=5,
                                          density=0.4))
    p1 = tmp_path / "a.mtx"
    p2 = tmp_path / "b.mtx"
    write_matrix_market(sys, str(p1))
    n, entries = read_matrix_market(str(p1))
    assert n == sys.n
    assert entries.dtype == float and entries.shape == (len(sys.data), 3)
    assert tuple(map(tuple, entries.tolist())) == sys.entries
    write_matrix_market(SparseSystem(n, entries, sys.b), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_rhs_round_trip(tmp_path):
    values = [1.0, -2.5, 1e-17, 3.141592653589793]
    p = tmp_path / "x.rhs"
    write_rhs(values, str(p))
    back = read_rhs(str(p))
    assert list(back) == values


def test_load_system(tmp_path, two_node):
    mp = tmp_path / "sys.mtx"
    rp = tmp_path / "sys.rhs"
    write_matrix_market(two_node, str(mp))
    write_rhs(two_node.b, str(rp))
    again = load_system(str(mp), str(rp))
    assert again.entries == two_node.entries
    assert np.array_equal(again.b, two_node.b)


def test_default_rhs_path():
    assert default_rhs_path("dir/sys.mtx") == "dir/sys.rhs"
    assert default_rhs_path("plain") == "plain.rhs"


def test_banner_errors_point_at_line_one(tmp_path):
    p = _write(tmp_path / "bad.mtx", "%%NotMatrixMarket\n2 2 2\n")
    with pytest.raises(ParseError, match="line 1") as ei:
        read_matrix_market(p)
    assert ei.value.line == 1
    p = _write(tmp_path / "sym.mtx",
               "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n"
               "1 1 1.0\n")
    with pytest.raises(ParseError, match="general"):
        read_matrix_market(p)
    with pytest.raises(ParseError, match="empty"):
        read_matrix_market(_write(tmp_path / "empty.mtx", ""))


def test_size_line_errors(tmp_path):
    head = "%%MatrixMarket matrix coordinate real general\n"
    with pytest.raises(ParseError, match="line 2"):
        read_matrix_market(_write(tmp_path / "a.mtx", head + "2 2\n"))
    with pytest.raises(ParseError, match="line 3"):
        read_matrix_market(
            _write(tmp_path / "b.mtx", head + "% comment\n2 2 x\n"))
    with pytest.raises(DimensionMismatchError):
        read_matrix_market(_write(tmp_path / "c.mtx", head + "2 3 1\n"
                                  "1 1 1.0\n"))
    with pytest.raises(ParseError, match="no size line"):
        read_matrix_market(_write(tmp_path / "d.mtx", head + "% only\n"))
    with pytest.raises(ParseError, match="bad sizes") as ei:
        read_matrix_market(_write(tmp_path / "e.mtx", head + "0 0 0\n"))
    assert ei.value.line == 2


def test_entry_errors_carry_line_numbers(tmp_path):
    head = ("%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n"
            "1 1 1.0\n")
    with pytest.raises(ParseError, match="line 5") as ei:
        read_matrix_market(_write(
            tmp_path / "dup.mtx", head + "2 2 1.0\n2 2 4.0\n"))
    assert "duplicate" in str(ei.value)
    assert ei.value.line == 5
    with pytest.raises(ParseError, match="outside"):
        read_matrix_market(_write(
            tmp_path / "rng.mtx", head + "2 2 1.0\n3 1 1.0\n"))
    with pytest.raises(ParseError, match="malformed"):
        read_matrix_market(_write(
            tmp_path / "bad.mtx", head + "2 2 1.0\n1 2 oops\n"))
    with pytest.raises(ParseError, match="row col value"):
        read_matrix_market(_write(
            tmp_path / "short.mtx", head + "2 2 1.0\n1 2\n"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_entry_is_a_parse_error(tmp_path, value):
    text = ("%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n"
            "1 1 1.0\n"
            f"2 2 {value}\n"
            "1 2 1.0\n")
    with pytest.raises(ParseError) as ei:
        read_matrix_market(_write(tmp_path / "nan.mtx", text))
    assert ei.value.line == 4
    assert str(ei.value) == (f"line 4: entry (2, 2) has non-finite value "
                             f"{float(value)!r}")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_rhs_is_a_parse_error(tmp_path, value):
    with pytest.raises(ParseError) as ei:
        read_rhs(_write(tmp_path / "x.rhs", f"1.0\n% note\n{value}\n"))
    assert ei.value.line == 3
    assert str(ei.value) == f"line 3: non-finite value {value!r}"


def test_entry_count_mismatches(tmp_path):
    head = ("%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 1.0\n")
    with pytest.raises(ParseError, match="declared 2"):
        read_matrix_market(_write(tmp_path / "few.mtx", head))
    with pytest.raises(ParseError, match="extra entry"):
        read_matrix_market(_write(
            tmp_path / "many.mtx", head + "2 2 1.0\n1 2 1.0\n"))


def test_comments_and_blanks_are_tolerated(tmp_path):
    text = ("%%MatrixMarket matrix coordinate real general\n"
            "% produced by hand\n"
            "\n"
            "2 2 2\n"
            "% entries follow\n"
            "1 1 2.0\n"
            "\n"
            "  \t\n"
            "2 2 2.0\n")
    n, entries = read_matrix_market(_write(tmp_path / "c.mtx", text))
    assert n == 2
    assert entries.tolist() == [[0, 0, 2.0], [1, 1, 2.0]]
    text = "% b\n\n1.0\n  \t\n2.0\n"
    assert read_rhs(_write(tmp_path / "c.rhs", text)).tolist() == [1.0, 2.0]


def test_rhs_errors(tmp_path):
    with pytest.raises(ParseError, match="line 2"):
        read_rhs(_write(tmp_path / "bad.rhs", "1.0\nnope\n"))
    mp = _write(tmp_path / "m.mtx",
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 2\n1 1 1.0\n2 2 1.0\n")
    rp = _write(tmp_path / "short.rhs", "1.0\n")
    with pytest.raises(DimensionMismatchError):
        load_system(mp, rp)


def test_missing_diagonal_detected_at_load(tmp_path):
    mp = _write(tmp_path / "m.mtx",
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 2\n1 1 1.0\n1 2 1.0\n")
    rp = _write(tmp_path / "r.rhs", "1.0\n1.0\n")
    with pytest.raises(MissingDiagonalError):
        load_system(mp, rp)


# The per-line loops are the reference for the array parse: the reader with
# the array parse refused reads every body line by line.


def _outcome(read, path):
    """What read(path) gives: its values as int64 bit patterns, or its
    error's (type, message, line)."""
    try:
        got = read(path)
    except (ParseError, DimensionMismatchError) as exc:
        return type(exc), str(exc), exc.line
    if isinstance(got, tuple):  # (n, entries)
        return got[0], got[1].shape, got[1].view(np.int64).tolist()
    return got.shape, got.view(np.int64).tolist()


def _by_line(read, path):
    """_outcome of the reader with the array parse refused."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mmio, "_loadtxt", lambda *args, **kwargs: None)
        return _outcome(read, path)


HEAD = "%%MatrixMarket matrix coordinate real general\n"
# 17 significant digits, -0.0 and subnormals come from st.floats; a token
# is one of four spellings of the value
VALUES = st.builds(
    lambda v, style: ("%.17g", "%r", "%.6e", " %+.17g\t")[style] % v,
    st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 3))


@st.composite
def bodies(draw, lines):
    """(lines, filler): filler[k] holds the blank and comment lines put
    before line k, and filler[-1] those after the last; half the bodies
    have none."""
    lines = draw(lines)
    count = len(lines) + 1
    filler = draw(st.one_of(st.just([[]] * count), st.lists(
        st.lists(st.sampled_from(["", "   ", "\t", "% a comment", "%",
                                  " % indented"]), max_size=2),
        min_size=count, max_size=count)))
    return lines, filler


def _text(lines, filler):
    return "".join(f"{f}\n" for k, line in enumerate(lines)
                   for f in filler[k] + [line]) \
        + "".join(f"{f}\n" for f in filler[-1])


@st.composite
def entry_lines(draw, n, min_size):
    cells = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          unique=True, min_size=min_size, max_size=n * n))
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    return [draw(st.sampled_from([str(i), f"+{i}", f"0{i}"]))
            + f"{sep}{j}{sep}{draw(VALUES)}" for i, j in cells]


def matrix_files(min_size=0):
    """(n, lines, filler) of a well-formed matrix file."""
    return st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), bodies(entry_lines(n, min_size))))


def _write_matrix(path, n, nnz, lines, filler):
    path.write_text(f"{HEAD}{n} {n} {nnz}\n{_text(lines, filler)}")
    return path


@settings(max_examples=100, deadline=None)
@given(matrix_files())
def test_reader_equals_the_line_reference_on_valid_files(
        tmp_path_factory, case):
    n, (lines, filler) = case
    path = _write_matrix(tmp_path_factory.getbasetemp() / "valid.mtx", n,
                         len(lines), lines, filler)
    got = _outcome(read_matrix_market, path)
    assert got == _by_line(read_matrix_market, path)
    assert got[:2] == (n, (len(lines), 3))
    if lines and not any(filler):  # one array parse, no line loop
        assert mmio._array_entries(_text(lines, filler), n,
                                   len(lines)) is not None


def _corrupt(line, kind, n, other):
    i, j, v = line.split()
    return {"drop-token": f"{i} {j}", "add-token": f"{line} 1",
            "text": f"{i} x{j} {v}", "index-0": f"0 {j} {v}",
            "index-n+1": f"{i} {n + 1} {v}", "duplicate": other,
            "nan": f"{i} {j} nan", "inf": f"{i} {j} -inf",
            "note": f"{line} % note", "form-feed": f"{i} {j}\f{v}",
            "line-separator": f"{i}\u2028{j} {v}",
            "underscore": f"1_{i} {j} {v}"}[kind]


CORRUPTIONS = ("drop-token", "add-token", "text", "index-0", "index-n+1",
               "duplicate", "nan", "inf", "note", "extra-line",
               "missing-line", "form-feed", "line-separator", "underscore")


@settings(max_examples=150, deadline=None)
@given(matrix_files(min_size=1), st.sampled_from(CORRUPTIONS), st.data())
def test_reader_raises_the_line_reference_error_on_one_bad_line(
        tmp_path_factory, case, kind, data):
    n, (lines, filler) = case
    nnz = len(lines)
    k = data.draw(st.integers(0, nnz - 1))
    if kind == "extra-line":
        lines = lines[:k] + [lines[k]] + lines[k:]
    elif kind == "missing-line":
        lines = lines[:k] + lines[k + 1:]
    else:
        # another line's (row, col), when there is another line
        other = lines[(k + data.draw(st.integers(1, max(1, nnz - 1)))) % nnz]
        lines = lines[:k] + [_corrupt(lines[k], kind, n, other)] \
            + lines[k + 1:]
    path = _write_matrix(tmp_path_factory.getbasetemp() / "corrupt.mtx", n,
                         nnz, lines, filler)
    assert _outcome(read_matrix_market, path) \
        == _by_line(read_matrix_market, path)


@settings(max_examples=75, deadline=None)
@given(bodies(st.lists(VALUES, max_size=12)))
def test_rhs_reader_equals_the_line_reference_on_valid_files(
        tmp_path_factory, case):
    lines, filler = case
    path = tmp_path_factory.getbasetemp() / "valid.rhs"
    path.write_text(_text(lines, filler))
    got = _outcome(read_rhs, path)
    assert got == _by_line(read_rhs, path)
    assert got[0] == (len(lines),)
    if lines and not any(filler):
        assert mmio._loadtxt(_text(lines, filler), float, ndmin=2) \
            is not None


RHS_CORRUPTIONS = {"two-tokens": "{v} 1", "text": "{v}x", "nan": "nan",
                   "inf": "inf", "note": "{v} % note", "form-feed": "1\f{v}",
                   "line-separator": "1\u2029{v}", "underscore": "1_0"}


@settings(max_examples=100, deadline=None)
@given(bodies(st.lists(VALUES, min_size=1, max_size=12)),
       st.sampled_from(sorted(RHS_CORRUPTIONS)), st.data())
def test_rhs_reader_raises_the_line_reference_error_on_one_bad_line(
        tmp_path_factory, case, kind, data):
    lines, filler = case
    k = data.draw(st.integers(0, len(lines) - 1))
    lines[k] = RHS_CORRUPTIONS[kind].format(v=lines[k].strip())
    path = tmp_path_factory.getbasetemp() / "corrupt.rhs"
    path.write_text(_text(lines, filler))
    assert _outcome(read_rhs, path) == _by_line(read_rhs, path)


def test_an_entry_with_a_trailing_comment_is_rejected(tmp_path):
    # np.loadtxt would strip "% note" as a comment; the reader must not
    text = HEAD + "2 2 2\n1 1 1.0\n2 2 2.0 % note\n"
    with pytest.raises(ParseError) as ei:
        read_matrix_market(_write(tmp_path / "note.mtx", text))
    assert str(ei.value) == \
        "line 4: entry needs 'row col value', got '2 2 2.0 % note'"
    with pytest.raises(ParseError, match="line 2: not a real number"):
        read_rhs(_write(tmp_path / "note.rhs", "1.0\n2.0 % note\n"))


def test_empty_bodies_read_without_a_warning(tmp_path):
    # np.loadtxt warns on a body with no data; warnings fail tier-1
    n, entries = read_matrix_market(_write(tmp_path / "a.mtx",
                                           HEAD + "3 3 0\n"))
    assert n == 3 and entries.shape == (0, 3)
    n, entries = read_matrix_market(_write(tmp_path / "b.mtx",
                                           HEAD + "3 3 0\n\n% none\n  \n"))
    assert n == 3 and entries.shape == (0, 3)
    with pytest.raises(ParseError, match="line 4: declared 2 entries but "
                                         "found 0"):
        read_matrix_market(_write(tmp_path / "c.mtx",
                                  HEAD + "3 3 2\n\n\n"))
    for text in ("", "\n", "% nothing\n"):
        assert read_rhs(_write(tmp_path / "e.rhs", text)).shape == (0,)


def test_the_parse_buffer_is_sized_by_the_lines_not_the_count(tmp_path):
    # np.loadtxt allocates max_rows rows at once: sized by a declared
    # 10**12 entries, that would be 24 TB
    text = HEAD + "2 2 1000000000000\n1 1 1.0\n2 2 2.0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="line 4: declared "
                                             "1000000000000 entries"):
            read_matrix_market(_write(tmp_path / "big.mtx", text))
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def test_a_size_beyond_int64_keys_reads_as_before(tmp_path):
    # 10**10 squared does not fit in int64, and 10**20 not even once
    for n in (10 ** 10, 10 ** 20):
        path = _write(tmp_path / "huge.mtx",
                      f"{HEAD}{n} {n} 2\n1 1 1.5\n2 1 2.5\n")
        assert read_matrix_market(path)[0] == n
        assert _outcome(read_matrix_market, path) \
            == _by_line(read_matrix_market, path)


def test_tokens_only_python_accepts_read_as_before(tmp_path):
    # underscores, non-ASCII digits and a no-break space send the body to
    # the per-line loop, which reads them with str.split, int and float
    text = (HEAD + "1_0 1_0 3\n1_0 1 2.5\n\u0661 \u0661 \u0662.\u0665\n"
            "1\xa02 1_0.5\n")
    n, entries = read_matrix_market(_write(tmp_path / "py.mtx", text))
    assert n == 10
    assert entries.tolist() == [[9, 0, 2.5], [0, 0, 2.5], [0, 1, 10.5]]
    assert read_rhs(_write(tmp_path / "py.rhs", "1_0\n\u0663\n")).tolist() \
        == [10.0, 3.0]


@pytest.mark.parametrize("name,data,line", [
    ("bad.rhs", b"abc\xff\n", 1),
    ("bad.mtx", b"1\n2\n\xff\n", 3),
    ("bad.mtx", (HEAD + "2 2 1\n1 1 1.0\n").encode() + b"\xc3(\n", 4),
    # beyond the first 8 KiB buffer, and after \r\n line ends
    ("long.rhs", b"1.0\r\n" * 3000 + b"2.0\xff\r\n", 3001),
])
def test_a_file_that_is_not_utf8_names_itself_and_its_line(tmp_path, name,
                                                            data, line):
    path = tmp_path / name
    path.write_bytes(data)
    read = read_rhs if name.endswith(".rhs") else read_matrix_market
    with pytest.raises(ParseError) as info:
        read(str(path))
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: {path} is not UTF-8 "
                                      "text (")


import numpy as np
import pytest

from walksolve.core import GeneratorSpec, generate_instance
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
    assert tuple(entries) == sys.entries
    from walksolve.core import SparseSystem
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
            "2 2 2.0\n")
    n, entries = read_matrix_market(_write(tmp_path / "c.mtx", text))
    assert n == 2
    assert entries == [(0, 0, 2.0), (1, 1, 2.0)]


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

"""Matrix file format: parsing, serialization, bit-exact round-trips."""

import numpy as np
import pytest

from detcs import MatrixParseError
from detcs.fuzz import complex_normal
from detcs.matrixio import load_matrix, parse_matrix, save_matrix, serialize_matrix


def test_parse_identity():
    assert np.array_equal(parse_matrix("2 2\n1 0 0 0\n0 0 1 0"), np.eye(2, dtype=complex))


def test_parse_imaginary_unit():
    assert np.array_equal(parse_matrix("1 1\n0 1"), np.array([[1j]]))


def test_parse_skips_comments_and_blanks():
    text = "# a comment\n\n2 1\n# interior comment\n1.5 -2.5\n\n0 3\n"
    out = parse_matrix(text)
    assert np.array_equal(out, np.array([[1.5 - 2.5j], [3j]]))


def test_round_trip_is_bit_exact():
    rng = np.random.default_rng(70)
    a = complex_normal(rng, 3, 4)
    a[0, 0] = complex(-0.0, 0.0)
    again = parse_matrix(serialize_matrix(a))
    assert a.tobytes() == again.tobytes()
    # any memory order writes the same text
    assert serialize_matrix(np.asfortranarray(a)) == serialize_matrix(a)


def test_serialize_uses_shortest_decimals():
    out = serialize_matrix(np.array([[0.1 + 0.25j]]))
    assert out == "1 1\n0.1 0.25\n"


def test_parse_bad_header():
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("2\n1 0\n")
    assert err.value.line == 1
    with pytest.raises(MatrixParseError):
        parse_matrix("two 2\n")
    with pytest.raises(MatrixParseError):
        parse_matrix("0 2\n")


def test_parse_wrong_entry_count():
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("1 2\n1 0 0\n")
    assert err.value.line == 2


def test_parse_bad_number():
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("1 1\n1 x\n")
    assert err.value.line == 2


def test_parse_refuses_digit_group_underscores():
    # int() and float() read PEP 515 underscores: unchecked, the first file
    # is [[15+20j]] and the second a 10-row matrix
    with pytest.raises(MatrixParseError, match="line 2: bad number '1_5'") as err:
        parse_matrix("1 1\n1_5 2_0\n")
    assert err.value.line == 2
    with pytest.raises(MatrixParseError, match="line 1: header must hold integers") as err:
        parse_matrix("1_0 1\n" + "1 0\n" * 10)
    assert err.value.line == 1
    # a comment line may hold one
    assert np.array_equal(parse_matrix("# a_b\n1 1\n1 2\n"), np.array([[1 + 2j]]))


def test_parse_refuses_characters_past_printable_ascii():
    # str.strip and float read Unicode digits and spaces: unchecked, this
    # text was the 1 x 1 matrix [[1]]
    with pytest.raises(MatrixParseError, match="line 1: '１' is not printable ASCII") as err:
        parse_matrix("1 １\n١ ０\n")
    assert err.value.line == 1
    for bad in ["\x00", "\x0b", "\x0c", "\x1c", "\x7f", "\x85", "\xa0", "\u2028", "é"]:
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(f"1 1\n1 0{bad}\n")
        assert str(err.value) == f"line 2: {bad!r} is not printable ASCII"
    # a comment holds the same characters as a data line
    with pytest.raises(MatrixParseError, match="line 1: 'é'"):
        parse_matrix("# café\n1 1\n1 0\n")
    # tabs and spaces separate numbers
    assert np.array_equal(parse_matrix("1\t1\n \t1 \t 2\t\n"), np.array([[1 + 2j]]))


def test_parse_ends_lines_at_lf_crlf_and_cr_only():
    for end in ["\n", "\r\n", "\r"]:
        text = end.join(["# two rows", "2 1", "1 0", "", "0 3"]) + end
        assert np.array_equal(parse_matrix(text), np.array([[1], [3j]])), repr(end)
    # a form feed does not end a line: unchecked, this one data line read as two
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("2 1\n1 0\x0c3 0\n")
    assert str(err.value) == "line 2: '\\x0c' is not printable ASCII"
    # a line count goes up once at CR LF, and once at each lone CR or LF
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("1 1\r\n\r\r\n1\n")
    assert err.value.line == 4


def test_parse_rejects_non_finite():
    with pytest.raises(MatrixParseError):
        parse_matrix("1 1\nnan 0\n")
    with pytest.raises(MatrixParseError):
        parse_matrix("1 1\n1 inf\n")


def test_parse_row_count_mismatches():
    with pytest.raises(MatrixParseError):
        parse_matrix("2 1\n1 0\n")
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("1 1\n1 0\n2 0\n")
    assert err.value.line == 3


def test_parse_empty_input():
    with pytest.raises(MatrixParseError):
        parse_matrix("# only comments\n")


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    a = complex_normal(rng, 4, 2)
    path = tmp_path / "a.mat"
    save_matrix(path, a)
    assert load_matrix(path).tobytes() == a.tobytes()
    # a second save writes identical bytes
    text = path.read_text()
    save_matrix(path, load_matrix(path))
    assert path.read_text() == text


def test_load_names_file_in_error(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("1 1\n1\n")
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    assert str(err.value) == f"{path}: line 2: expected 2 numbers (re im pairs for 1 entries), got 1"
    # the line survives the file name, as parse_matrix reports it
    assert err.value.line == 2
    path.write_bytes(b"1 1\n\xff 0\n")
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    assert str(err.value) == f"{path}: line 2: byte 0xff is not ASCII"
    assert err.value.line == 2


def test_load_names_file_and_line_of_non_ascii_byte(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"2 1\n1 0\n1\xc3\xa9 0\n")
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    assert str(err.value) == f"{path}: line 3: byte 0xc3 is not ASCII"
    # lines are counted as the parser counts them, CR LF included
    path.write_bytes(b"# caf\xc3\xa9\r\n1 1\n1 0\n")
    with pytest.raises(MatrixParseError, match="line 1: byte 0xc3"):
        load_matrix(path)
    path.write_bytes(b"1 1\r\n\r\n\xff 0\n")
    with pytest.raises(MatrixParseError, match="line 3: byte 0xff"):
        load_matrix(path)


def test_load_refuses_a_form_feed_inside_a_line(tmp_path):
    # every byte is ASCII, yet a form feed split the data line in two
    path = tmp_path / "ff.mat"
    path.write_bytes(b"2 1\n1 0\x0c3 0\n")
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    assert str(err.value) == f"{path}: line 2: '\\x0c' is not printable ASCII"
    assert err.value.line == 2

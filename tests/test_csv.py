"""The compiled CSV reader: held to the csv.reader loop it replaced
(tests/oracles.py::load_csv_rows) bit for bit and message for message,
and the inputs where it reads what that loop could not."""

import numpy as np
import pytest

from hgdl import cli
from hgdl.data import load_csv, load_features, save_binmat
from hgdl.errors import FormatError

from oracles import load_csv_rows


def _outcome(load, path):
    """The arrays, as bits, with their shape and strides, or the
    FormatError's message."""
    try:
        X, labels = load(path)
    except FormatError as exc:
        return "error", str(exc)
    return ("read", X.shape, X.strides,
            np.ascontiguousarray(X).view(np.uint64).tolist(),
            None if labels is None else (labels.dtype, labels.tolist()))


def _write(tmp_path, content, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes)
                     else content.encode("ascii"))
    return path


def _exit_code(tmp_path, path, fmt="csv"):
    return cli.main(["train", "--train", str(path), "--format", fmt,
                     "--out", str(tmp_path / "never.json")])


# ---------------------------------------------------------------- differential


def test_compiled_reader_matches_the_csv_reader_loop_property(
        tmp_path_factory):
    """Generated ASCII files, with and without a header or a label
    column, quoted cells, "" escapes and quoted line ends, blank and
    ragged rows, bad tokens and LF, CRLF or CR line ends, read to the
    same arrays and labels, or fail with the same message, as the loop
    over csv.reader, float() and int() did. Labels stay within int64,
    whose overflow that loop did not catch."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    path = tmp_path_factory.mktemp("csv") / "generated.csv"

    digits = r"[0-9](_?[0-9]){0,20}"
    number = st.one_of(
        st.floats().map(repr),
        st.floats().map(lambda x: "%.18e" % x),
        st.floats().map(lambda x: "%g" % x),
        st.from_regex(rf"\A[+-]?({digits})?(\.({digits})?)?"
                      rf"([eE][+-]?({digits})?)?\Z"),
        st.sampled_from([
            "inf", "-Infinity", "+iNfInItY", "nan", "-NaN", "infinit", "in",
            "nan(1)", "1e400", "-1e-400", "0e99999999999999999999",
            "1" + "0" * 400 + "e-400", "0." + "0" * 330 + "1e10",
            "4.9406564584124654e-324", "2.4703282292062328e-324",
            "1__0", "_1", "1_", "1_.5", "1._5", "1e_5", "0x10", "1d5",
            "--1", "+-1", "1.5.5", ".", "e5", "abc", "label", ""]),
    )
    label = st.one_of(st.integers(-2**63, 2**63 - 1).map(str),
                      st.sampled_from(["+3", "007", "0_7", "1_0", "-0",
                                       "1.0", "1e3", "x", "", "_1"]))
    pad = st.sampled_from(["", "", " ", "\t", " \x0b\x0c"])
    line_end = st.sampled_from(["\n", "\r\n", "\r"])

    @st.composite
    def cell(draw, text):
        text = draw(pad) + draw(text) + draw(pad)
        style = draw(st.sampled_from(["plain"] * 6 + ["quoted", "broken",
                                                      "after"]))
        if style == "plain":
            return text
        if style == "broken":
            # a line end inside the quotes, counted as a line
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(line_end) + text[at:]
        quoted = '"' + text.replace('"', '""') + '"'
        # text after the closing quote is kept
        return quoted + (draw(st.sampled_from(["0", " ", 'x"'])) if
                         style == "after" else "")

    @st.composite
    def csv_file(draw):
        width = draw(st.integers(1, 4))
        labeled = draw(st.booleans())
        rows = []
        if draw(st.booleans()):
            names = [f"f{i}" for i in range(width)]
            if labeled:
                names.append(draw(st.sampled_from(
                    ["label", " label ", '"label"', "Label", "lab el"])))
            rows.append(",".join(names))
        for _ in range(draw(st.integers(0, 5))):
            if draw(st.integers(0, 9)) == 0:
                rows.append(draw(st.sampled_from(
                    ["", " ", ",,,", " , ", '""', '" ",', "\t"])))
                continue
            count = width + labeled + draw(st.sampled_from([0] * 12 + [-1, 1]))
            cells = [draw(cell(number)) for _ in range(max(count, 0))]
            if labeled and cells and draw(st.booleans()):
                cells[-1] = draw(cell(label))
            rows.append(",".join(cells))
        text = draw(line_end).join(rows)
        if draw(st.booleans()):
            text += draw(line_end)
        return text

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(text=csv_file())
    def check(text):
        path.write_bytes(text.encode("ascii"))
        assert _outcome(load_csv, path) == _outcome(load_csv_rows, path)

    check()


@pytest.mark.parametrize("content", [
    "f0,f1,label\r\n1.5,2.0,0\r\n3.0,4.0,1\r\n",
    "f0,f1,label\r1.5,2.0,0\r3.0,4.0,1",
    '"f0","f1","label"\n"1.5","2.0","0"\n"3.0"," 4.0 ","1"\n',
    '"a\nb",f1\n1,2\n3,"4\r\n"\n',
    'f0,f1\n"1,5",2\n',
    'f0,f1\n1,2\n3,"4\n\n',
    "f0,f1\n1,2\n\n3,x\n",
    'f0,f1\n"1"x,2\n',
    "1_0.5,-1e1_0\n+inf,-NaN\n",
    "f0,f1,f2\n1,infinit,2\n", "f0\n-infinityy\n", "f0\nnana\n",
    "1.0,,2.0\n3,4,5\n",
    "label\n5\n",
])
def test_compiled_reader_matches_the_csv_reader_loop_on_examples(
        tmp_path, content):
    path = _write(tmp_path, content)
    assert _outcome(load_csv, path) == _outcome(load_csv_rows, path)


def test_quoted_line_ends_count_as_lines(tmp_path):
    path = _write(tmp_path, 'f0,f1\n"1\n",2\n"3\r\n\r\n",x\n')
    with pytest.raises(FormatError, match=r"^line 6: non-numeric value 'x'$"):
        load_csv(path)


# ---------------------------------------------------------------- fixes


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    """Before, the mark made the first cell non-numeric, so the first
    row was dropped as a header."""
    path = _write(tmp_path, b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n")
    X, labels = load_csv(path)
    assert X.tolist() == [[1.0, 3.0], [2.0, 4.0]]
    assert labels is None
    path = _write(tmp_path, b"\xef\xbb\xbff0,label\n1.0,2\n")
    X, labels = load_csv(path)
    assert X.tolist() == [[1.0]] and labels.tolist() == [2]


def test_csv_label_beyond_int64_names_the_line_and_exits_3(tmp_path):
    big = "99999999999999999999999"
    path = _write(tmp_path, f"f0,label\n1.0,0\n2.0,{big}\n")
    with pytest.raises(FormatError,
                       match=rf"^line 3: label '{big}' is outside the 64-bit"):
        load_csv(path)
    assert _exit_code(tmp_path, path) == 3
    ends = "f0,label\n1.0,9223372036854775807\n2.0,-9223372036854775808\n"
    assert load_csv(_write(tmp_path, ends))[1].tolist() == [2**63 - 1,
                                                            -2**63]
    for beyond in ("9223372036854775808", "-9223372036854775809"):
        with pytest.raises(FormatError, match="line 2: .*outside"):
            load_csv(_write(tmp_path, f"f0,label\n1.0,{beyond}\n"))


def test_sidecar_label_beyond_int64_names_the_line_and_exits_3(tmp_path):
    path = tmp_path / "x.binmat"
    save_binmat(path, np.ones((2, 2)))
    (tmp_path / "x.binmat.labels").write_text("0\n 99999999999999999999999\n")
    with pytest.raises(FormatError,
                       match=r"line 2: label '99999999999999999999999' is "
                             "outside the 64-bit"):
        load_features(path, fmt="binmat")
    assert _exit_code(tmp_path, path, fmt="binmat") == 3


def test_sidecar_bytes_that_are_not_utf8_name_the_line_and_exit_3(tmp_path):
    path = tmp_path / "x.binmat"
    save_binmat(path, np.ones((2, 3)))
    sidecar = tmp_path / "x.binmat.labels"
    sidecar.write_bytes(b"0\r1\r\n2\n")
    assert load_features(path, fmt="binmat")[1].tolist() == [0, 1, 2]
    sidecar.write_bytes(b"0\n\n1\xff\n2\n")
    with pytest.raises(FormatError,
                       match=r"^line 3: label '1\\xff' is not UTF-8$"):
        load_features(path, fmt="binmat")
    assert _exit_code(tmp_path, path, fmt="binmat") == 3


def test_bytes_that_are_not_utf8_name_the_line_and_exit_3(tmp_path, capsys):
    path = _write(tmp_path, b"f0,f1\n1.0,2.0\n3.0,4\xff5\n")
    with pytest.raises(FormatError,
                       match=r"^line 3: value '4\\xff5' is not UTF-8$"):
        load_csv(path)
    assert _exit_code(tmp_path, path) == 3
    assert "line 3" in capsys.readouterr().err
    # in a header too, and an overlong form or a surrogate is not UTF-8
    for bad in (b"f\xc0\xafo", b"\xed\xa0\x80", b"\xf4\x90\x80\x80",
                b"\xe2\x82"):
        with pytest.raises(FormatError, match="^line 1: .* is not UTF-8$"):
            load_csv(_write(tmp_path, bad + b",label\n1,2\n"))


def test_non_ascii_numbers_are_refused_and_non_ascii_names_kept(tmp_path):
    """float() and int() read Unicode digits and spaces; the compiled
    reader refuses such a number, naming it, where it would be read,
    and still reads a non-ASCII header or blank cell as before."""
    for content, line in (("١,2\n3,4\n", 1),
                          ("f0,f1\n1,\xa01.5\n", 2),
                          ("f0,label\n1,１\n", 2)):
        path = tmp_path / "unicode.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(FormatError,
                           match=rf"^line {line}: numeric value .* is not "
                                 "ASCII$"):
            load_csv(path)
    for content in ("gr\xf6\xdfe,h\xf6he\n1,2\n", "f0,\xe9,label\n1,2,0\n",
                    "\xa0,　\n1,2\n", "1,2\n ,\xa0\n3,4\n",
                    "f0,label\xa0\n1,0\n", "f0,f1\n1,x\xe9\n",
                    "f0,label\n1,x\xe9\n"):
        path = tmp_path / "unicode.csv"
        path.write_text(content, encoding="utf-8")
        assert _outcome(load_csv, path) == _outcome(load_csv_rows, path)

import contextlib
import os
import signal
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epso import ContractError, DataError, normalize_minmax, synth_dataset
from epso import datasets
from epso.datasets import Dataset, cfo_index, complexity_index, load_csv, save_csv, stratified_folds


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------

def test_labels_mapped_in_first_occurrence_order(tmp_path):
    d = load_csv(write(tmp_path, "1.0,2.0,A\n3.0,4.0,B\n5.0,6.0,A\n"))
    assert d.labels.tolist() == [0, 1, 0]
    assert d.n_features == 2


def test_header_auto_detection(tmp_path):
    d = load_csv(write(tmp_path, "x,y,label\n1,2,A\n3,4,B\n"))
    assert d.feature_names == ("x", "y")
    assert d.n_samples == 2


def test_label_column_by_name_and_first(tmp_path):
    d = load_csv(write(tmp_path, "cls,x,y\nA,1,2\nB,3,4\n"), label_column="cls")
    assert d.feature_names == ("x", "y")
    d2 = load_csv(write(tmp_path, "A,1,2\nB,3,4\n", "f.csv"), label_column="first")
    assert d2.labels.tolist() == [0, 1]


def test_unparseable_cell_names_row_and_column(tmp_path):
    with pytest.raises(DataError, match="row 3") as exc:
        load_csv(write(tmp_path, "x,y,label\n1,2,A\n1,oops,B\n"))
    assert "y" in str(exc.value)


@pytest.mark.parametrize(
    "text, label_column, message",
    [
        ("x,y,label\n1,2,A\n1,oops,B\n", "last",
         "row 3, column 'y': cannot parse 'oops' as a number"),
        ("A,1,2\nB,3,zz\n", "first", "row 2, column 'f1': cannot parse 'zz' as a number"),
        ("A,1,2\nB,3,inf\n", "first",
         "non-finite feature value inf in observation 1 (from 0), column 'f1'"),
        ("a,label,b\n1,A,2\n3,B, x \n", "label",
         "row 3, column 'b': cannot parse 'x' as a number"),
        ("1,2,A\n3,4,B\nq,4,B\n", "last", "row 3, column 'f0': cannot parse 'q' as a number"),
        ("x,y,l\n1,2,A\n\n\n3,zz,B\n", "last",
         "row 5, column 'y': cannot parse 'zz' as a number"),
        # no feature cell in the first record, so no header: "label" is read as a class
        ("label\nA\nB\nA\nB\n", "last", "features must have at least one column"),
    ],
)
def test_unparseable_cell_message_is_exact(tmp_path, text, label_column, message):
    with pytest.raises(DataError) as exc:
        load_csv(write(tmp_path, text), label_column)
    assert str(exc.value) == message


@pytest.mark.parametrize("quoted", [False, True])
def test_overlong_cell_is_a_data_error_naming_its_record(tmp_path, quoted):
    cell = "z" * 140_000
    cell = f'"{cell}"' if quoted else cell
    with pytest.raises(DataError) as exc:
        load_csv(write(tmp_path, f"x,y,label\n1,2,A\n\n3,{cell},B\n5,6,B\n"))
    assert str(exc.value) == "row 4: field larger than field limit (131072)"
    with pytest.raises(DataError, match="^row 1: field larger"):
        load_csv(write(tmp_path, f"x,{cell},label\n1,2,A\n3,4,B\n"))


def test_non_utf8_file_is_a_data_error(tmp_path):
    early = tmp_path / "early.csv"
    early.write_bytes(b"x,y,label\n1,2,A\n3,4,B\n5,6,caf\xe9\n7,8,B\n")
    with pytest.raises(DataError) as exc:
        load_csv(early)
    assert str(exc.value) == f"{early} is not UTF-8 text: cannot decode byte 0xe9"
    # past the text reader's first chunk: the head reads, then both parsers meet the byte
    late = tmp_path / "late.csv"
    late.write_bytes(b"x,y,label\n" + b"1,2,A\n3,4,B\n" * 20_000 + b"5,6,caf\xe9\n")
    assert datasets._read_head(late, "last").names == ("x", "y")
    with pytest.raises(DataError) as exc:
        load_csv(late)
    assert str(exc.value) == f"{late} is not UTF-8 text: cannot decode byte 0xe9"


@pytest.mark.parametrize(
    "text, label_column, names, features, labels",
    [
        # headerless: the first row stays a data row
        ("1.5,2,A\n3,4,B\n5,6,A\n", "last", ("f0", "f1"), [[1.5, 2], [3, 4], [5, 6]], [0, 1, 0]),
        # the first header name is "label", not "\ufefflabel"
        ("label,x,y\nA,1,2\nB,3,4\n", "label", ("x", "y"), [[1, 2], [3, 4]], [0, 1]),
        # the first label is "A", not a third class "\ufeffA"
        ("A,1\nB,2\nA,3\nB,4\n", "first", ("f0",), [[1], [2], [3], [4]], [0, 1, 0, 1]),
    ],
    ids=["headerless", "header", "label-first"],
)
def test_byte_order_mark_is_not_part_of_the_first_cell(tmp_path, text, label_column, names,
                                                       features, labels):
    p = write(tmp_path, "\ufeff" + text)
    for d in (load_csv(p, label_column), load_by_rows(p, label_column)):
        assert d.feature_names == names
        assert d.features.tolist() == features
        assert d.labels.tolist() == labels


def test_r_style_quoted_file_is_read_by_numpy(tmp_path, monkeypatch):
    # R's write.csv quotes the header and the class labels, not the numbers
    p = write(tmp_path, '"x","y","class"\n1.5,2,"A"\n3,4,"B, b"\n5,6,"A"\n7,8,"C ""c"""\n')

    def refuse(*args):
        raise AssertionError("the row parser was reached")

    monkeypatch.setattr(datasets, "_parse_rows", refuse)
    d = load_csv(p, "class")
    assert d.feature_names == ("x", "y")
    assert d.features.tolist() == [[1.5, 2], [3, 4], [5, 6], [7, 8]]
    assert d.labels.tolist() == [0, 1, 0, 2]


def test_quoted_header_spanning_lines_goes_to_the_row_parser(tmp_path):
    # np.loadtxt skips the lines the header spans, not its record count
    p = write(tmp_path, 'x,"y\nsecond",label\n1,2,A\n3,4,B\n')
    assert datasets._parse_numbers(p, datasets._read_head(p, "last"))[1] == ["A", "B"]
    assert outcome(lambda: load_csv(p)) == outcome(lambda: load_by_rows(p, "last"))
    assert load_csv(p).feature_names == ("x", "y\nsecond")


def test_blank_record_spanning_lines_before_a_numeric_header(tmp_path):
    # a quoted whitespace cell spans two lines, so numpy must skip three lines
    # for two records, or it reads the header "1,2,label" as a data row
    p = write(tmp_path, '"\n"\n1,2,label\n1,2,A\n3,4,B\n')
    d = load_csv(p, "label")
    assert d.feature_names == ("1", "2")
    assert d.features.tolist() == [[1, 2], [3, 4]]
    assert d.labels.tolist() == [0, 1]
    assert outcome(lambda: load_csv(p, "label")) == outcome(lambda: load_by_rows(p, "label"))


def test_line_breaks_in_quoted_labels_are_kept_as_written(tmp_path):
    # numpy reads "A\r\nB" as "A\nB", which would make these two labels one class
    p = tmp_path / "d.csv"
    p.write_bytes(b'x,label\n1,"A\r\nB"\n2,"A\nB"\n3,C\n')
    assert load_csv(p).labels.tolist() == [0, 1, 2]
    assert outcome(lambda: load_csv(p)) == outcome(lambda: load_by_rows(p, "last"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2,A\n3,4\n", "row 2: expected 3 cells, got 2"),
        ("\nx,y,l\n1,2,A\n\n3,4\n", "row 5: expected 3 cells, got 2"),
    ],
)
def test_ragged_row_message_counts_blank_lines(tmp_path, text, message):
    with pytest.raises(DataError) as exc:
        load_csv(write(tmp_path, text))
    assert str(exc.value) == message


def test_single_class_rejected(tmp_path):
    with pytest.raises(DataError, match="single class"):
        load_csv(write(tmp_path, "1,2,A\n3,4,A\n"))


def test_missing_cells_drop_rows_with_warning(tmp_path):
    p = write(tmp_path, "1,2,A\n3,,B\n5,6,B\n")
    with pytest.warns(UserWarning, match="dropped 1"):
        d = load_csv(p)
    assert d.n_samples == 2


def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "absent.csv")


def test_save_load_roundtrip(tmp_path):
    d = synth_dataset(20, 5, 2, seed=3)
    p = tmp_path / "rt.csv"
    save_csv(d, p)
    d2 = load_csv(p)
    assert np.allclose(d2.features, d.features)
    # labels are re-encoded by first occurrence, so check the partition instead
    remap = {}
    for old, new in zip(d.labels.tolist(), d2.labels.tolist()):
        assert remap.setdefault(old, new) == new


@st.composite
def small_datasets(draw):
    """Finite float64 matrices up to 8 x 4, names f0..., and dense labels
    in which every class occurs."""
    n_classes = draw(st.integers(2, 4))
    n = draw(st.integers(n_classes, 8))
    f = draw(st.integers(1, 4))
    x = draw(arrays(np.float64, (n, f), elements=st.floats(allow_nan=False, allow_infinity=False)))
    labels = draw(st.permutations(list(range(n_classes)) + draw(
        st.lists(st.integers(0, n_classes - 1), min_size=n - n_classes, max_size=n - n_classes))))
    return Dataset(x, np.array(labels), tuple(f"f{i}" for i in range(f)), "rt")


@settings(max_examples=100, deadline=None)
@given(small_datasets())
def test_property_save_load_roundtrip_is_exact(d):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "rt.csv"
        save_csv(d, p)
        d2 = load_csv(p)
    assert d2.feature_names == d.feature_names
    assert d2.features.dtype == np.float64
    assert d2.features.tobytes() == d.features.tobytes()  # bit-identical, -0.0 included
    first_seen = {}
    for lab in d.labels.tolist():
        first_seen.setdefault(lab, len(first_seen))
    assert d2.labels.tolist() == [first_seen[lab] for lab in d.labels.tolist()]


# Cells numpy's C reader refuses, so a file holding one goes through the row
# parser: empty, underscored, a non-ASCII digit, and '#' (no comments).
ROW_PARSER_CELLS = ["", "1_0", "\u0661", "#3"]


@st.composite
def csv_files(draw):
    """Small CSV texts with a label column, optional header, blank and
    whitespace-only records, ragged rows, quoted cells and the cells either
    parser may meet, with or without a byte-order mark. Returns (text,
    label_column, fast) where fast says numpy's reader must take the file."""
    width = draw(st.integers(2, 4))
    header = draw(st.booleans())
    label_column = draw(st.sampled_from(["first", "last", "label"] if header else ["first", "last"]))
    label_idx = {"first": 0, "last": width - 1}.get(label_column)
    if label_idx is None:
        label_idx = draw(st.integers(0, width - 1))
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-9, 9).map(str)
    odd = draw(st.lists(st.sampled_from(["inf", "nan", '"1.5"'] + ROW_PARSER_CELLS), max_size=2))
    cell = st.one_of(number, number.map(" {} ".format), *([st.sampled_from(odd)] if odd else []))
    # quoted labels: R's write.csv style, a comma, a doubled quote, line breaks, empty
    label = st.sampled_from(["1", "1.0", " A ", "", '"A"', '"A,B"', '"A""B"', '"A\nB"',
                             '"A\r\nB"', '"A\rB"', '""'])

    records, fast = [], True
    if header:
        names = [f"c{i}" for i in range(width)]
        names[label_idx] = "label"
        names = [f'"{n}"' if draw(st.booleans()) else n for n in names]
        if draw(st.integers(0, 5)) == 0:  # a quoted feature name spanning two lines
            i = (label_idx + 1) % width
            names[i] = f'"c\n{i}"'
            fast = False
        records.append(",".join(names))
    for kind in draw(st.lists(st.sampled_from(["row"] * 6 + ["blank", "spaces", "ragged"]),
                              min_size=1, max_size=8)):
        if kind == "blank":
            records.append("")
            continue
        if kind == "spaces":
            records.append("  ")
            fast = False
            continue
        cells = [draw(cell) for _ in range(width - 1)]
        cells.insert(label_idx, draw(label))
        if kind == "ragged":
            cells.pop()
        fast = (fast and kind == "row" and cells[label_idx] not in ("", '""')
                and not set(cells[label_idx]) & set("\r\n")  # numpy may translate those
                and not set(cells) & set(ROW_PARSER_CELLS))
        records.append(",".join(cells))
    fast = fast and any(records[header:])  # at least one data row
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(records) + draw(st.sampled_from(["", newline]))
    return draw(st.sampled_from(["", "\ufeff"])) + text, label_column, fast


def outcome(load):
    """What a loader gives: the dataset's bytes, labels and names, or the
    error, plus every warning text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            d = load()
            got = (d.features.shape, d.features.tobytes(), d.labels.tolist(), d.feature_names)
        except Exception as exc:  # noqa: BLE001 - the error itself is compared
            got = (type(exc).__name__, str(exc))
    return got, [str(w.message) for w in caught]


def load_by_rows(path, label_column):
    head = datasets._read_head(path, label_column)
    return datasets._dataset(path, head, *datasets._parse_rows(path, head))


def open_fds():
    """This process's open file descriptors, or None where /proc/self/fd does not exist."""
    try:
        return sorted(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


fds_at_split = None  # open_fds() when split() was last entered


@contextlib.contextmanager
def split(floor=4, cpus=3):
    """load_csv with the range floor and the usable CPU count patched, so
    that small files are cut into up to cpus ranges; this process's open
    file descriptors are recorded for assert_no_child_left."""
    global fds_at_split
    fds_at_split = open_fds()
    with mock.patch.object(datasets, "_RANGE_FLOOR", floor), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
        yield


def assert_no_child_left():
    """No child is left to reap, and no file descriptor opened since split()
    was last entered is left open (unchecked without /proc/self/fd)."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    global fds_at_split
    before, fds_at_split = fds_at_split, None
    assert open_fds() == before


@settings(max_examples=300, deadline=None)
@given(csv_files())
def test_property_fast_path_matches_the_row_parser(case):
    text, label_column, fast = case
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        if fast:
            datasets._parse_numbers(p, datasets._read_head(p, label_column))  # must not raise
        one_range = outcome(lambda: load_csv(p, label_column))
        assert one_range == outcome(lambda: load_by_rows(p, label_column))
        with split():
            assert outcome(lambda: load_csv(p, label_column)) == one_range
        assert_no_child_left()


def wide_csv(tmp_path, n=12, f=40, last_label="B", name="wide.csv"):
    """A headed n x f CSV of distinct floats with labels A and B."""
    rows = [",".join([f"g{j}" for j in range(f)] + ["label"])]
    for i in range(n):
        rows.append(",".join([repr((i * f + j) / 7) for j in range(f)] + ["AB"[i % 2]]))
    rows[-1] = rows[-1].rsplit(",", 1)[0] + "," + last_label
    return write(tmp_path, "\n".join(rows) + "\n", name)


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returned to this process."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def row_parser_calls(monkeypatch):
    calls, parse_rows = [], datasets._parse_rows

    def counted(*args):
        calls.append(args)
        return parse_rows(*args)

    monkeypatch.setattr(datasets, "_parse_rows", counted)
    return calls


def test_split_parse_is_bit_identical_to_one_pass(tmp_path, forks, row_parser_calls):
    d = synth_dataset(40, 700, 5, class_count=3, seed=4)
    p = tmp_path / "big.csv"
    save_csv(d, p)  # about 0.5 MB
    head = datasets._read_head(p, "last")
    with split(floor=100_000, cpus=4), open(p, "rb") as fh:
        ranges = datasets._data_ranges(fh.fileno(), p.stat().st_size, head)
    text = p.read_bytes()
    assert len(ranges) == 4 and ranges[-1][1] == len(text)
    for (start, end), (after, _) in zip(ranges, ranges[1:]):
        assert start < end == after and text[end - 1:end] == b"\n"
    want = outcome(lambda: load_csv(p))
    with split(floor=100_000, cpus=4):
        assert outcome(lambda: load_csv(p)) == want
    assert len(forks) == 3 and not row_parser_calls
    assert want[0][1] == d.features.tobytes() and not want[1]
    assert_no_child_left()


def test_byte_order_mark_at_a_range_start_is_not_skipped(tmp_path, forks):
    # only the first bytes of the file may be a byte-order mark
    p = wide_csv(tmp_path)
    with split(), open(p, "rb") as fh:
        cut = datasets._data_ranges(fh.fileno(), p.stat().st_size, datasets._read_head(p, "last"))[1][0]
    text = p.read_bytes()
    p.write_bytes(text[:cut] + "\ufeff".encode() + text[cut:])
    want = outcome(lambda: load_csv(p))
    assert want[0][0] == "DataError" and "cannot parse '\\ufeff28." in want[0][1]
    with split():
        assert outcome(lambda: load_csv(p)) == want
    assert len(forks) == 2
    assert_no_child_left()


def test_quote_in_the_last_range_is_read_by_numpy_in_one_range(tmp_path, monkeypatch, forks):
    p = wide_csv(tmp_path, last_label='"B, b"')

    def refuse(*args):
        raise AssertionError("the row parser was reached")

    monkeypatch.setattr(datasets, "_parse_rows", refuse)
    with split():
        d = load_csv(p)
    assert not forks
    assert d.labels.tolist() == [0, 1] * 5 + [0, 2]
    assert d.features[-1, -1] == (12 * 40 - 1) / 7
    assert_no_child_left()


def test_unparseable_cell_in_a_child_range_gives_the_row_parser_message(tmp_path, forks,
                                                                        row_parser_calls):
    p = wide_csv(tmp_path)
    p.write_text(p.read_text().replace(repr(460 / 7), "oops"), encoding="utf-8")  # row 12
    with split(), pytest.raises(DataError) as exc:
        load_csv(p)
    assert str(exc.value) == "row 13, column 'g20': cannot parse 'oops' as a number"
    assert len(forks) == 2 and len(row_parser_calls) == 1
    assert_no_child_left()


@pytest.mark.parametrize("failure", ["exit status 3", "killed after sending", "killed before sending"])
def test_a_failed_child_makes_load_csv_fall_back(tmp_path, monkeypatch, forks, row_parser_calls,
                                                 failure):
    p = wide_csv(tmp_path)
    want = outcome(lambda: load_csv(p))
    parent, exit_now, parse_range = os.getpid(), os._exit, datasets._parse_range
    if failure == "exit status 3":
        monkeypatch.setattr(os, "_exit", lambda code: exit_now(3))
    elif failure == "killed after sending":
        monkeypatch.setattr(os, "_exit", lambda code: os.kill(os.getpid(), signal.SIGKILL))
    else:
        def die_in_a_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return parse_range(*args)

        monkeypatch.setattr(datasets, "_parse_range", die_in_a_child)
    with split():
        assert outcome(lambda: load_csv(p)) == want
    assert len(forks) == 2 and len(row_parser_calls) == 1
    assert_no_child_left()


def test_keyboard_interrupt_in_the_parent_reaps_every_child(tmp_path, monkeypatch, forks):
    p = wide_csv(tmp_path)
    parent, parse_range = os.getpid(), datasets._parse_range

    def interrupt_the_parent(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return parse_range(*args)

    monkeypatch.setattr(datasets, "_parse_range", interrupt_the_parent)
    with split(), pytest.raises(KeyboardInterrupt):
        load_csv(p)
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("case", ["one CPU", "another thread", "no sched_getaffinity",
                                  "lone CR in the header"])
def test_no_split(tmp_path, monkeypatch, forks, case):
    p = wide_csv(tmp_path)
    want = outcome(lambda: load_csv(p))
    cpus, stop = 3, threading.Event()
    if case == "one CPU":
        cpus = 1
    elif case == "another thread":
        threading.Thread(target=stop.wait).start()
    elif case == "lone CR in the header":
        p.write_bytes(b"\r" + p.read_bytes())  # a blank line, which numpy skips as one
        assert outcome(lambda: load_csv(p)) == want
    try:
        with split(cpus=cpus):
            if case == "no sched_getaffinity":
                monkeypatch.delattr(os, "sched_getaffinity")
            assert outcome(lambda: load_csv(p)) == want
    finally:
        stop.set()
    assert not forks
    assert_no_child_left()


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def make_dataset(cols, labels=(0, 1, 0)):
    x = np.column_stack(cols).astype(float)
    return Dataset(x, np.array(labels), tuple(f"f{i}" for i in range(x.shape[1])), "t")


def test_normalize_minmax_column_mapping():
    d = normalize_minmax(make_dataset([[0.0, 5.0, 10.0]]))
    assert d.features[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_normalize_constant_column_becomes_zero():
    d = normalize_minmax(make_dataset([[7.0, 7.0, 7.0]]))
    assert d.features[:, 0].tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("order", ["C", "F"])
def test_normalize_matches_the_column_formula_bit_for_bit(order):
    x = np.random.default_rng(3).normal(size=(9, 6)) * np.array([1, 1e-8, 1e8, 3, 1, 1])
    x[:, 1], x[:, 4] = 2.5, 0.0  # constant columns
    d = normalize_minmax(Dataset(np.asarray(x, order=order), np.arange(9) % 2, tuple("abcdef")))
    lo, span = x.min(axis=0), np.ptp(x, axis=0)
    want = (x - lo) / np.where(span == 0.0, 1.0, span)
    want[:, span == 0.0] = 0.0
    assert d.features.tobytes("C") == want.tobytes("C")
    assert d.features.flags.f_contiguous


def test_normalize_halves_only_a_column_whose_span_overflows():
    # 1e308 - -1e308 overflows to inf; halved first, the column maps into [0, 1]
    x = np.column_stack([[1e308, -1e308, 0.0, 1e308], [0.0, 5.0, 10.0, 2.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning
        d = normalize_minmax(Dataset(x, [0, 1, 0, 1], ("x", "y")))
    assert d.features[:, 0].tolist() == [1.0, 0.0, 0.5, 1.0]
    alone = normalize_minmax(Dataset(x[:, 1:], [0, 1, 0, 1], ("y",)))
    assert d.features[:, 1].tobytes() == alone.features[:, 0].tobytes()


def test_normalize_idempotent():
    d = normalize_minmax(make_dataset([[1.0, 4.0, 9.0], [2.0, 2.0, 8.0]]))
    d2 = normalize_minmax(d)
    assert np.array_equal(d.features, d2.features)
    assert np.all(d.features >= 0) and np.all(d.features <= 1)


# ---------------------------------------------------------------------------
# stratified folds
# ---------------------------------------------------------------------------

def test_folds_partition_and_balance():
    d = synth_dataset(10, 3, 1, class_count=2, seed=0)
    folds = stratified_folds(d, 2, seed=1)
    assert len(folds) == 2
    union = np.sort(np.concatenate(folds))
    assert union.tolist() == list(range(10))
    for fold in folds:
        assert fold.size == 5
        per_class = np.bincount(d.labels[fold], minlength=2)
        assert np.all(np.abs(per_class - 2.5) <= 0.5)


def test_folds_disjoint_and_per_class_balanced():
    d = synth_dataset(53, 4, 2, class_count=3, seed=5)
    folds = stratified_folds(d, 5, seed=2)
    seen = np.concatenate(folds)
    assert len(seen) == len(set(seen.tolist())) == 53
    for c in range(3):
        counts = [int(np.sum(d.labels[f] == c)) for f in folds]
        assert max(counts) - min(counts) <= 1


def test_folds_deterministic():
    d = synth_dataset(30, 4, 2, seed=8)
    a = stratified_folds(d, 3, seed=4)
    b = stratified_folds(d, 3, seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@st.composite
def fold_cases(draw):
    """Shuffled labels in which every class has at least k members, with k and a seed."""
    k = draw(st.integers(2, 6))
    counts = draw(st.lists(st.integers(k, k + 7), min_size=2, max_size=5))
    labels = np.array(draw(st.permutations(np.repeat(np.arange(len(counts)), counts).tolist())))
    d = Dataset(np.zeros((labels.size, 1)), labels, ("f0",), "folds")
    return d, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(fold_cases())
def test_property_folds_partition_balance_and_determinism(case):
    d, k, seed = case
    folds = stratified_folds(d, k, seed)
    assert len(folds) == k
    for fold in folds:
        assert np.array_equal(fold, np.sort(fold))
    rows = np.concatenate(folds)
    assert np.array_equal(np.sort(rows), np.arange(d.n_samples))  # disjoint and covering
    sizes = [fold.size for fold in folds]
    assert max(sizes) - min(sizes) <= 1
    per_class = np.array([np.bincount(d.labels[fold], minlength=d.n_classes) for fold in folds])
    assert np.all(per_class.max(axis=0) - per_class.min(axis=0) <= 1)
    again = stratified_folds(d, k, seed)
    assert all(np.array_equal(a, b) for a, b in zip(folds, again))


def test_folds_reduced_to_smallest_class_with_warning():
    labels = np.array([0] * 10 + [1] * 3)
    d = Dataset(np.random.default_rng(0).normal(size=(13, 2)), labels, ("a", "b"), "t")
    with pytest.warns(UserWarning, match="reducing folds"):
        folds = stratified_folds(d, 10, seed=0)
    assert len(folds) == 3


def test_folds_k_too_small():
    d = synth_dataset(10, 2, 1, seed=0)
    with pytest.raises(ContractError):
        stratified_folds(d, 1, seed=0)


# ---------------------------------------------------------------------------
# complexity index
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c,f,o,expected", [(26, 15010, 308, 1267), (2, 2000, 62, 65), (4, 2308, 82, 113)])
def test_cfo_index_reference_rows(c, f, o, expected):
    assert abs(round(cfo_index(c, f, o)) - expected) <= 1


def test_complexity_index_on_dataset():
    d = synth_dataset(62, 2000, 5, class_count=2, seed=0)
    assert round(complexity_index(d)) == 65


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_synth_deterministic():
    a = synth_dataset(40, 12, 3, seed=9)
    b = synth_dataset(40, 12, 3, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.name == b.name


def test_synth_records_informative_indices_in_name():
    d = synth_dataset(40, 12, 3, seed=9)
    assert "inf[" in d.name
    inside = d.name.split("inf[")[1].rstrip("]")
    idx = [int(i) for i in inside.split(",")]
    assert len(idx) == 3 and all(0 <= i < 12 for i in idx)


def test_synth_all_or_none_informative():
    d = synth_dataset(20, 4, 4, seed=1)
    assert d.n_features == 4
    d0 = synth_dataset(20, 4, 0, seed=1)
    assert "inf[]" in d0.name


def test_synth_parameter_validation():
    with pytest.raises(DataError):
        synth_dataset(20, 4, 5, seed=0)
    with pytest.raises(DataError):
        synth_dataset(20, 4, 1, class_count=1, seed=0)


def test_dataset_rejects_single_class():
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), ("a", "b"), "t")


@pytest.mark.parametrize("features, labels, message", [
    (np.zeros((4, 0)), [0, 1, 0, 1], "features must have at least one column"),
    (np.zeros((4, 2)), [-1, 0, 1, 1], "labels must be non-negative integers, got -1"),
    (np.zeros((4, 2)), [0.5, 1.5, 0, 1], "labels must be non-negative integers, got 0.5"),
    (np.zeros((4, 2)), ["a", "b", "a", "b"], "labels must be non-negative integers, got a"),
    (np.zeros((4, 2)), [0, np.nan, 0, 1], "labels must be non-negative integers, got nan"),
    (np.zeros((4, 2)), [0, 1, np.inf, 1], "labels must be non-negative integers, got inf"),
])
def test_dataset_rejects_no_features_and_labels_that_are_not_class_indices(features, labels,
                                                                           message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning before the DataError
        with pytest.raises(DataError) as exc:
            Dataset(features, labels, ("a", "b")[:features.shape[1]], "t")
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features_naming_the_first(value):
    x = np.zeros((4, 3))
    x[2, 1] = value
    x[3, 0] = np.nan  # a later one is not named
    with pytest.raises(DataError) as exc:
        Dataset(x, np.array([0, 1, 0, 1]), ("a", "b", "c"), "t")
    assert str(exc.value) == (
        f"non-finite feature value {value} in observation 2 (from 0), column 'b'")


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def test_features_are_feature_major_from_every_source(tmp_path):
    fast = write(tmp_path, "x,y,label\n1,2,A\n3,4,B\n5,6,A\n", "fast.csv")
    rows = write(tmp_path, "x,y,label\n1,2,A\n3,4,B\n5,6,A\n7,,B\n", "rows.csv")  # an empty cell
    with pytest.raises(ValueError):
        datasets._parse_numbers(rows, datasets._read_head(rows, "last"))
    with pytest.warns(UserWarning, match="dropped 1"):
        from_rows = load_csv(rows)
    c_order = np.arange(12.0).reshape(4, 3)
    assert c_order.flags.c_contiguous
    strided = np.arange(60.0).reshape(6, 10)[::2, ::3]
    made = {
        "load_csv fast path": load_csv(fast),
        "load_csv row parser": from_rows,
        "normalize_minmax": normalize_minmax(make_dataset([[1.0, 4.0, 9.0], [2.0, 2.0, 8.0]])),
        "synth_dataset": synth_dataset(20, 5, 2, seed=1),
        "C-ordered array": Dataset(c_order, np.array([0, 1, 0, 1]), ("a", "b", "c"), "t"),
        "F-ordered array": Dataset(np.asfortranarray(c_order), np.array([0, 1, 0, 1]), ("a", "b", "c"), "t"),
        "strided array": Dataset(strided, np.array([0, 1, 0]), ("a", "b", "c", "d"), "t"),
    }
    for source, d in made.items():
        assert d.features.flags.f_contiguous, source
        # the wrapper kernel gathers a mask's features as whole rows of features.T
        assert d.features.T.flags.c_contiguous, source
        assert d.features.dtype == np.float64, source
    assert np.array_equal(made["strided array"].features, strided)
    assert load_csv(fast).features.tobytes() == from_rows.features.tobytes()

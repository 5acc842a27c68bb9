import tempfile
import warnings
from pathlib import Path

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
# parser: empty, underscored, a non-ASCII digit, quoted, and '#' (no comments).
ROW_PARSER_CELLS = ["", "1_0", "\u0661", '"1.5"', "#3"]


@st.composite
def csv_files(draw):
    """Small CSV texts with a label column, optional header, blank and
    whitespace-only records, ragged rows and the cells either parser may
    meet. Returns (text, label_column, fast) where fast says numpy's reader
    must take the file."""
    width = draw(st.integers(2, 4))
    header = draw(st.booleans())
    label_column = draw(st.sampled_from(["first", "last", "label"] if header else ["first", "last"]))
    label_idx = {"first": 0, "last": width - 1}.get(label_column)
    if label_idx is None:
        label_idx = draw(st.integers(0, width - 1))
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-9, 9).map(str)
    odd = draw(st.lists(st.sampled_from(["inf", "nan"] + ROW_PARSER_CELLS), max_size=2))
    cell = st.one_of(number, number.map(" {} ".format), *([st.sampled_from(odd)] if odd else []))
    label = st.sampled_from(["1", "1.0", " A ", ""])

    records, fast = [], True
    if header:
        names = [f"c{i}" for i in range(width)]
        names[label_idx] = "label"
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
        fast = fast and kind == "row" and cells[label_idx] != "" and not set(cells) & set(ROW_PARSER_CELLS)
        records.append(",".join(cells))
    fast = fast and any(records[header:])  # at least one data row
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(records) + draw(st.sampled_from(["", newline]))
    return text, label_column, fast


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


@settings(max_examples=300, deadline=None)
@given(csv_files())
def test_property_fast_path_matches_the_row_parser(case):
    text, label_column, fast = case
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        if fast:
            datasets._parse_numbers(p, datasets._read_head(p, label_column))  # must not raise
        assert outcome(lambda: load_csv(p, label_column)) == outcome(lambda: load_by_rows(p, label_column))


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
])
def test_dataset_rejects_no_features_and_labels_that_are_not_class_indices(features, labels,
                                                                           message):
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
    rows = write(tmp_path, '"x",y,label\n1,2,A\n3,4,B\n5,6,A\n', "rows.csv")
    with pytest.raises(ValueError):
        datasets._parse_numbers(rows, datasets._read_head(rows, "last"))
    c_order = np.arange(12.0).reshape(4, 3)
    assert c_order.flags.c_contiguous
    strided = np.arange(60.0).reshape(6, 10)[::2, ::3]
    made = {
        "load_csv fast path": load_csv(fast),
        "load_csv row parser": load_csv(rows),
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
    assert load_csv(fast).features.tobytes() == load_csv(rows).features.tobytes()

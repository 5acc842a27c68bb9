"""Labeled tabular datasets: CSV ingestion, normalization, stratified folds,
the class*features/observations complexity index, and a synthetic generator
for high-dimensional selection experiments.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DataError


@dataclass(frozen=True)
class Dataset:
    """An immutable, finite feature matrix (one column or more) with dense integer class labels.

    features is stored feature-major (Fortran order, each feature's column
    contiguous), so features.T is a C-contiguous (n_features, n_samples) view
    and the gather of a feature mask copies whole rows of it.
    """

    features: np.ndarray      # (n_samples, n_features) float, Fortran order
    labels: np.ndarray        # (n_samples,) int, dense 0..C-1
    feature_names: tuple[str, ...]
    name: str = "dataset"

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float, order="F")
        raw = np.asarray(self.labels)
        y = raw.astype(int)
        if x.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if x.shape[1] == 0:
            raise DataError("features must have at least one column")
        if y.shape != (x.shape[0],):
            raise DataError("labels must have one entry per observation")
        bad = (y < 0) | (y != raw)
        if bad.any():
            raise DataError(f"labels must be non-negative integers, got {raw[bad][0]}")
        if len(self.feature_names) != x.shape[1]:
            raise DataError("feature_names must have one entry per feature")
        if not np.isfinite(x).all():
            i, j = np.argwhere(~np.isfinite(x))[0]
            raise DataError(f"non-finite feature value {x[i, j]} in observation {i} "
                            f"(from 0), column {self.feature_names[j]!r}")
        counts = np.bincount(y) if y.size else np.empty(0)
        if counts.size < 2 or np.any(counts == 0):
            raise DataError("need at least 2 classes, each with >= 1 observation")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _csv_rows(path: Path):
    """The file's non-blank rows, read one at a time, each with its 1-based
    record number in the file (blank records count). A record the csv module
    refuses, such as a cell over its field size limit, is a DataError, and so
    is a byte that is not UTF-8 (the text reader decodes ahead of the csv
    reader, so that error names no record)."""
    line = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for line, row in enumerate(csv.reader(fh), start=1):
                if any(cell.strip() for cell in row):
                    yield line, row
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"row {line + 1}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: cannot decode byte "
                        f"0x{exc.object[exc.start]:02x}") from None


class _Head(NamedTuple):
    """What the first non-blank record says about the file's layout."""

    width: int
    label_idx: int
    names: tuple[str, ...]
    skip: int  # records before the first data record, blank ones included


def _read_head(path: Path, label_column: str) -> _Head:
    rows = _csv_rows(path)
    first_record = next(rows, None)
    rows.close()
    if first_record is None:
        raise DataError(f"{path} contains no data")
    line, first = first_record[0], [c.strip() for c in first_record[1]]

    width = len(first)
    by_name = label_column not in ("first", "last")

    if label_column == "first":
        label_idx = 0
    elif label_column == "last":
        label_idx = width - 1
    else:
        if label_column not in first:
            raise DataError(f"label column {label_column!r} not found in header")
        label_idx = first.index(label_column)

    has_header = by_name or any(
        not _is_number(c) for i, c in enumerate(first) if i != label_idx and c
    )
    if has_header:
        names = tuple(c for i, c in enumerate(first) if i != label_idx)
        return _Head(width, label_idx, names, line)
    return _Head(width, label_idx, tuple(f"f{i}" for i in range(width - 1)), line - 1)


def _parse_numbers(path: Path, head: _Head) -> tuple[np.ndarray, list[str]]:
    """The data records in one np.loadtxt pass: the (n, F) feature-major
    matrix and the stripped label cells.

    Raises on anything the C reader refuses (empty, unparseable or quoted
    cells, ragged rows, no data), so the caller can fall back to _parse_rows.
    """
    with open(path, "rb") as fh:  # a quoted record may span lines; skiprows counts lines
        if any(b'"' in chunk for chunk in iter(lambda: fh.read(1 << 20), b"")):
            raise ValueError("quoted cells are left to the csv module")
    labels: list[str] = []

    def label(cell: str) -> float:
        cell = cell.strip()
        if not cell:
            raise ValueError("empty label cell")
        labels.append(cell)
        return 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. "input contained no data"
        table = np.loadtxt(path, delimiter=",", comments=None, skiprows=head.skip,
                           ndmin=2, encoding="utf-8", converters={head.label_idx: label})
    if table.shape[1] != head.width or len(labels) != table.shape[0]:
        raise ValueError("data records do not match the first record")
    k = head.label_idx
    features = np.empty((table.shape[0], head.width - 1), order="F")
    features[:, :k] = table[:, :k]
    features[:, k:] = table[:, k + 1:]
    return features, labels


def _parse_rows(path: Path, head: _Head) -> tuple[np.ndarray, list[str]]:
    """The data records read one at a time with csv.reader: rows with empty
    cells are dropped with a warning, and any other fault is a DataError
    naming its record."""
    features: list[np.ndarray] = []
    raw_labels: list[str] = []
    dropped = 0
    for line, row in _csv_rows(path):
        if line <= head.skip:
            continue
        if len(row) != head.width:
            raise DataError(f"row {line}: expected {head.width} cells, got {len(row)}")
        cells = [c.strip() for c in row]
        if "" in cells:
            dropped += 1
            continue
        raw_labels.append(cells.pop(head.label_idx))
        try:
            features.append(np.array(list(map(float, cells))))
        except ValueError:
            j = next(j for j, c in enumerate(cells) if not _is_number(c))
            raise DataError(
                f"row {line}, column {head.names[j]!r}: cannot parse {cells[j]!r} as a number"
            ) from None

    if dropped:
        warnings.warn(f"{path.name}: dropped {dropped} row(s) with missing cells")
    if not features:
        raise DataError(f"{path} has no complete data rows")
    return np.asarray(features, dtype=float, order="F"), raw_labels


def load_csv(path, label_column: str = "last") -> Dataset:
    """Load a comma-delimited UTF-8 file into a Dataset.

    label_column is "first", "last", or a header name. A header row is
    auto-detected when any feature cell of the first row is non-numeric.
    Rows containing empty cells are dropped (with a warning giving the count);
    non-numeric feature cells are an error naming the row and column.
    Class identifiers map to dense integers in first-occurrence order.

    A file without a '"' is parsed in one np.loadtxt pass, which holds the
    numeric table and the feature matrix copied out of it. Anything that
    reader refuses (quoted, empty or unparseable cells, ragged rows, floats
    only Python's float() reads, such as 1_000 or non-ASCII digits) sends
    the file through the csv module row by row instead, so every accepted
    value, warning and error message is the row parser's.
    """
    path = Path(path)
    head = _read_head(path, label_column)
    try:
        parsed = _parse_numbers(path, head)
    except Exception:  # whatever the C reader refuses, the row parser reads or names
        parsed = _parse_rows(path, head)
    return _dataset(path, head, *parsed)


def _dataset(path: Path, head: _Head, features: np.ndarray, raw_labels: list[str]) -> Dataset:
    mapping: dict[str, int] = {}
    labels = [mapping.setdefault(lab, len(mapping)) for lab in raw_labels]
    if len(mapping) < 2:
        raise DataError(f"{path} has a single class ({next(iter(mapping))!r})")
    return Dataset(
        features=features,
        labels=np.asarray(labels, dtype=int),
        feature_names=head.names,
        name=path.stem,
    )


def save_csv(d: Dataset, path) -> None:
    """Write a Dataset back out with a header row and the label column last."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(d.feature_names) + ["label"])
        for row, lab in zip(d.features, d.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])


def normalize_minmax(d: Dataset) -> Dataset:
    """Map every feature column linearly to [0, 1]; constant columns become 0."""
    x = d.features
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo
    safe = np.where(span == 0.0, 1.0, span)
    scaled = (x - lo) / safe
    scaled[:, span == 0.0] = 0.0
    return Dataset(scaled, d.labels, d.feature_names, d.name)


def stratified_folds(d: Dataset, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint index folds with per-class counts differing by at most 1.

    If the smallest class has fewer than k members, k is reduced to that size
    (with a warning). Deterministic for a given seed.
    """
    if k < 2:
        raise ContractError("need at least 2 folds")
    counts = np.bincount(d.labels)
    smallest = int(counts.min())
    if smallest < k:
        warnings.warn(
            f"reducing folds from {k} to {smallest} (smallest class size)"
        )
        k = smallest
    if k < 2:
        raise ContractError("smallest class is too small for any stratified split")

    rng = np.random.default_rng(seed)
    # each class shuffled, in class order, then dealt round-robin
    order = np.concatenate([rng.permutation(np.flatnonzero(d.labels == c))
                            for c in range(counts.size)])
    return [np.sort(order[f::k]) for f in range(k)]


def cfo_index(n_classes: int, n_features: int, n_samples: int) -> float:
    """classes * features / observations; bigger means harder."""
    return n_classes * n_features / n_samples


def complexity_index(d: Dataset) -> float:
    return cfo_index(d.n_classes, d.n_features, d.n_samples)


def synth_dataset(
    n_samples: int,
    n_features: int,
    n_informative: int,
    class_count: int = 2,
    seed: int = 0,
    separation: float = 4.0,
) -> Dataset:
    """Gaussian classes separated only along a random informative feature set.

    Non-informative features are pure standard-normal noise. The informative
    index list is embedded in the dataset name so tests can introspect it.
    """
    if n_informative > n_features:
        raise DataError("n_informative cannot exceed n_features")
    if class_count < 2:
        raise DataError("need at least 2 classes")
    if n_samples < class_count:
        raise DataError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    informative = np.sort(rng.choice(n_features, size=n_informative, replace=False))
    labels = rng.permutation(np.arange(n_samples) % class_count)
    x = rng.standard_normal((n_samples, n_features))
    if n_informative:
        x[:, informative] += separation * labels[:, None]
    inf_str = ",".join(str(int(i)) for i in informative)
    name = f"synth_s{seed}_{n_samples}x{n_features}_inf[{inf_str}]"
    return Dataset(
        features=x,
        labels=labels,
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        name=name,
    )

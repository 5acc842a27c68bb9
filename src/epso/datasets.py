"""Labeled tabular datasets: CSV ingestion, normalization, stratified folds,
the class*features/observations complexity index, and a synthetic generator
for high-dimensional selection experiments.
"""

from __future__ import annotations

import codecs
import csv
import io
import mmap
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DataError


@dataclass(frozen=True)
class Dataset:
    """An immutable, finite feature matrix (one column or more) with dense integer class labels.

    features is stored feature-major (Fortran order, each feature's column
    contiguous), so features.T is a C-contiguous (n_features, n_samples) view,
    and the 1NN kernel's float32 copy of it gathers a feature mask as whole rows.
    """

    features: np.ndarray      # (n_samples, n_features) float, Fortran order
    labels: np.ndarray        # (n_samples,) int, dense 0..C-1
    feature_names: tuple[str, ...]
    name: str = "dataset"

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float, order="F")
        raw = np.asarray(self.labels)
        if x.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if x.shape[1] == 0:
            raise DataError("features must have at least one column")
        if raw.shape != (x.shape[0],):
            raise DataError("labels must have one entry per observation")
        num = raw if raw.dtype.kind in "biuf" else np.full(raw.shape, np.nan)  # e.g. strings
        bad = ~(np.isfinite(num) & (num >= 0) & (num == np.trunc(num)))
        if bad.any():  # checked before the cast, which would raise or warn on them
            raise DataError(f"labels must be non-negative integers, got {raw[bad][0]}")
        y = raw.astype(int)
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

    @cached_property
    def _features32(self) -> np.ndarray:
        """features.T as a C-ordered float32 (F, n) array for the 1NN kernel, built on first
        use: scaled by the power of two that brings its largest |value| to at most 1, so
        nothing overflows and the scaling adds no rounding."""
        xt = self.features.T
        exponent = np.frexp(max(xt.max(), -xt.min()))[1]
        return np.ldexp(xt, -exponent, out=np.empty(xt.shape, np.float32), casting="unsafe")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _csv_rows(path: Path):
    """The file's non-blank rows, read one at a time, each with its 1-based
    record number in the file (blank records count) and the file's line
    counts before and after it, a byte-order mark skipped. A record the csv
    module refuses, such as a cell over its field size limit, is a
    DataError, and so is a byte that is not UTF-8 (the text reader decodes
    ahead of the csv reader, so that error names no record)."""
    line = 0
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader, before = csv.reader(fh), 0
            for line, row in enumerate(reader, start=1):
                if any(cell.strip() for cell in row):
                    yield line, (before, reader.line_num), row
                before = reader.line_num
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
    skip: int  # lines before the first data record (np.loadtxt's skiprows)


def _read_head(path: Path, label_column: str) -> _Head:
    rows = _csv_rows(path)
    first_record = next(rows, None)
    rows.close()
    if first_record is None:
        raise DataError(f"{path} contains no data")
    _, (before, after), first = first_record
    first = [c.strip() for c in first]

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
        return _Head(width, label_idx, names, after)
    return _Head(width, label_idx, tuple(f"f{i}" for i in range(width - 1)), before)


# Data bytes per range below which a forked child costs more than it saves:
# the fork and the transfer of its rows, against about 70-80 MB/s of parsing.
# With 250 MB resident on 2 CPUs, two ranges broke even at 2-3 MB of data and
# took 17-38% off at 4-6 MB.
_RANGE_FLOOR = 2 << 20
_WINDOW = 1 << 24  # bytes of the file mapped at a time while searching it


def _find(fd: int, byte: bytes, start: int, end: int) -> int:
    """The offset of the first byte in [start, end), or -1, searched one
    memory-mapped window at a time, so little of the file stays resident."""
    while start < end:
        base = start - start % mmap.ALLOCATIONGRANULARITY
        length = min(end - base, _WINDOW)
        with mmap.mmap(fd, length, offset=base, access=mmap.ACCESS_READ) as window:
            found = window.find(byte, start - base)
        if found != -1:
            return base + found
        start = base + length
    return -1


def _data_ranges(fd: int, size: int, head: _Head) -> list[tuple[int, int]]:
    """The data records cut at line ends into K byte ranges, K = min(usable
    CPUs, data bytes // _RANGE_FLOOR); fewer than two mean one pass over
    the path.

    It is one pass where os.sched_getaffinity or os.fork is missing, beside
    another Python thread (a forked child could inherit a lock it holds),
    when a quote follows the skipped lines (a quoted cell may hold a line
    break), or when those lines hold a lone \r, which numpy counts as a line
    end and this count of \n would not."""
    if (not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork"))
            or threading.active_count() != 1):
        return []
    start = len(codecs.BOM_UTF8) if head.skip == 0 and os.pread(fd, 3, 0) == codecs.BOM_UTF8 else 0
    for _ in range(head.skip):
        start = _find(fd, b"\n", start, size) + 1
        if not start:
            return []
    k = min(len(os.sched_getaffinity(0)), (size - start) // _RANGE_FLOOR)
    if k < 2:
        return []
    skipped = os.pread(fd, start, 0)
    if skipped.count(b"\r") != skipped.count(b"\r\n") or _find(fd, b'"', start, size) != -1:
        return []
    cuts = [start]
    for i in range(1, k):
        cut = _find(fd, b"\n", start + i * (size - start) // k, size) + 1
        if cuts[-1] < cut < size:
            cuts.append(cut)
    return list(zip(cuts, cuts[1:] + [size]))


class _ByteRange(io.RawIOBase):
    """Bytes [start, end) of an open file as a raw stream, read with pread."""

    def __init__(self, fd: int, start: int, end: int):
        self.fd, self.at, self.end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        with memoryview(buffer) as view:
            n = os.preadv(self.fd, [view[:self.end - self.at]], self.at)
        self.at += n
        return n


def _range_text(fd: int, start: int, end: int) -> io.TextIOWrapper:
    """A byte range as numpy reads the path: UTF-8 with universal newlines (a
    range starts after the byte-order mark, at a line start)."""
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(fd, start, end), 1 << 20),
                            encoding="utf-8", newline=None)


def _parse_range(source, head: _Head, skip: int = 0) -> tuple[np.ndarray, list[str]]:
    """One np.loadtxt pass over a path or a range's text: the (n, width)
    table with the label column read as 0, and the stripped label cells."""
    labels: list[str] = []

    def label(cell: str) -> float:
        cell = cell.strip()
        if not cell:
            raise ValueError("empty label cell")
        if "\n" in cell:  # numpy reads a quoted \r\n or \r as \n; the csv module keeps it
            raise ValueError("line break in a label cell")
        labels.append(cell)
        return 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. "input contained no data"
        table = np.loadtxt(source, delimiter=",", comments=None, skiprows=skip,
                           ndmin=2, encoding="utf-8-sig", quotechar='"',
                           converters={head.label_idx: label})
    if table.shape[1] != head.width or len(labels) != table.shape[0]:
        raise ValueError("data records do not match the first record")
    return table, labels


def _serve_range(out: int, fd: int, start: int, end: int, head: _Head):
    """A forked child's work: parse one range, send the table and labels
    down the pipe as one pickle, exit."""
    code = 1
    try:
        with open(out, "wb") as pipe:
            pickle.dump(_parse_range(_range_text(fd, start, end), head), pipe, protocol=5)
        code = 0
    finally:
        os._exit(code)


def _parse_forked(fd: int, ranges: list[tuple[int, int]],
                  head: _Head) -> list[tuple[np.ndarray, list[str]]]:
    """Range 0 parsed here and every other range in a forked child, in
    order, read back as one pickle per child (protocol 5 sends the table's
    buffer in-band, and loading wraps it without a copy). A child's
    exception, short or corrupt send or non-zero exit raises here, and every
    child is reaped (killed first, on a failure) before this returns or
    raises."""
    pids: list[int] = []
    pipes: list[io.BufferedReader] = []
    try:
        for start, end in ranges[1:]:
            pipe, out = os.pipe()
            pipes.append(open(pipe, "rb"))
            # SIGINT waits until the pid is recorded, so a KeyboardInterrupt reaps it
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _serve_range(out, fd, start, end, head)
                pids.append(pid)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(out)
        parts = [_parse_range(_range_text(fd, *ranges[0]), head)]
        parts += [pickle.load(pipe) for pipe in pipes]
        while pids:
            status = os.waitpid(pids[-1], 0)[1]
            pids.pop()
            if os.waitstatus_to_exitcode(status):
                raise ChildProcessError(f"a parsing child exited with status {status}")
        return parts
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _parse_numbers(path: Path, head: _Head) -> tuple[np.ndarray, list[str]]:
    """The data records read by np.loadtxt, which reads quoted cells as the
    csv module does, in one pass or in _data_ranges' byte ranges: the (n, F)
    feature-major matrix and the stripped label cells. Raises on anything
    the C reader refuses, on a label with a line break, which that reader
    may have translated, and on any failure of a child, so the caller can
    fall back to _parse_rows."""
    with open(path, "rb") as fh:
        ranges = _data_ranges(fh.fileno(), os.fstat(fh.fileno()).st_size, head)
        parts = _parse_forked(fh.fileno(), ranges, head) if len(ranges) > 1 else [
            _parse_range(path, head, head.skip)]
    k = head.label_idx
    features = np.empty((sum(len(table) for table, _ in parts), head.width - 1), order="F")
    row = 0
    for table, _ in parts:
        features[row:row + len(table), :k] = table[:, :k]
        features[row:row + len(table), k:] = table[:, k + 1:]
        row += len(table)
    return features, [label for _, labels in parts for label in labels]


def _parse_rows(path: Path, head: _Head) -> tuple[np.ndarray, list[str]]:
    """The data records read one at a time with csv.reader: rows with empty
    cells are dropped with a warning, and any other fault is a DataError
    naming its record."""
    features: list[np.ndarray] = []
    raw_labels: list[str] = []
    dropped = 0
    for line, (_, end), row in _csv_rows(path):
        if end <= head.skip:
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

    A byte-order mark is skipped. The file is parsed by np.loadtxt, which
    reads quoted cells as the csv module does. Anything that reader
    refuses (empty or unparseable cells, whitespace-only records, ragged rows,
    or floats only Python's float() reads, such as 1_000), and a file with a
    line break inside a quoted label, is read again row by row with the csv
    module, so every accepted value, warning and error
    message is the row parser's.

    Where os.sched_getaffinity exists, and while this process has one
    Python thread, the data records are cut at line ends into one range per
    usable CPU, each at least a couple of MB (_RANGE_FLOOR), if no quote
    byte follows the header. Range 0 is parsed here and each other range in
    a forked child, which sends its rows and labels back as one pickle per
    child. Any other file takes one pass. Either way the features,
    labels and names are bit-identical, and no option controls the split.
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
    xt = d.features.T  # C-contiguous (F, n): each feature is one row
    lo, hi = xt.min(axis=1, keepdims=True), xt.max(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        span = hi - lo
    huge = np.isinf(span)
    if huge.any():
        # a span past the float64 range: those columns are halved first, which
        # rounds only subnormal values; the others are multiplied by 1, exactly
        half = np.where(huge, 0.5, 1.0)
        xt, lo = xt * half, lo * half
        span = hi * half - lo
    scaled = np.subtract(xt, lo)
    scaled /= np.where(span == 0.0, 1.0, span)
    scaled[span[:, 0] == 0.0] = 0.0
    return Dataset(scaled.T, d.labels, d.feature_names, d.name)


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

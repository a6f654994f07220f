"""Flow-CSV loading, cleaning, splitting, and standardization.

The functions here take a CICIDS-style flow export (one row per network
flow, header row, a categorical label column) and produce a numeric
dataset ready for training: non-numeric columns dropped, labels encoded
benign=0 / attack=1, NaN rows removed, infinities replaced by column
means, and features standardized with statistics fitted on the training
partition only.

All public functions are pure: they return new objects and never mutate
their inputs, so they are safe to call concurrently. The private
:func:`_scorable_in_place`, which readies a capture for ``evaluate`` and
``predict``, works inside the caller's matrix instead.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple, TextIO

import numpy as np

from .errors import DataError

__all__ = [
    "DataConfig",
    "FlowDataset",
    "ScalerParams",
    "SplitConfig",
    "load_flow_csv",
    "load_feature_matrix",
    "clean",
    "train_test_split",
    "fit_scaler",
    "apply_scaler",
    "save_flow_csv",
]


@dataclass(frozen=True)
class FlowDataset:
    """A dense feature matrix plus binary labels.

    Attributes:
        feature_names: Column names, one per feature column, unique.
        features: float64 matrix of shape (n_rows, n_features), C-order.
        labels: int64 vector of {0, 1}; 0 = benign, 1 = attack.

    Freshly loaded datasets may still contain NaN/inf in ``features``;
    :func:`clean` establishes the finite invariant.
    """

    feature_names: tuple[str, ...]
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names length must equal feature column count")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature names must be unique")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must equal row count")
        if self.labels.size and not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class _WithRoom(FlowDataset):
    """A training set whose ``features`` are the first rows of ``matrix``:
    the rows after them are room that :func:`~ddosflow.smote.oversample`
    fills with its synthetic rows, so the training rows are held once.
    Each call fills the same room, overwriting the last call's rows."""

    matrix: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class ScalerParams:
    """Per-column standardization parameters fitted on training rows.

    ``means`` and ``stds`` are the population mean and population standard
    deviation (divisor n) of each feature column; ``fitted_on`` records how
    many rows the fit saw, at least one.
    """

    means: np.ndarray
    stds: np.ndarray
    fitted_on: int

    def __post_init__(self) -> None:
        if self.means.shape != self.stds.shape or self.means.ndim != 1:
            raise ValueError("means and stds must be 1-D vectors of equal length")
        if np.any(self.stds < 0):
            raise ValueError("stds must be non-negative")
        if self.fitted_on < 1:
            raise ValueError(f"fitted_on must be at least 1, got {self.fitted_on}")

    def scale(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``X`` standardized, (x - mean) / std with zero-std columns 0, into a
        new C-ordered matrix (the only full-size array the call makes), or
        into ``out``, an array of ``X``'s shape, which is returned: ``out=X``
        scales ``X`` in place with the same bits. A value too far from its
        column's mean for float64 scales to +-inf."""
        if self.means.shape[0] != X.shape[1]:
            raise ValueError(f"scaler fits {len(self.means)} columns, not {X.shape[1]}")
        if out is not None and out.shape != X.shape:  # else X would broadcast into it
            raise ValueError(f"out has shape {out.shape}, not {X.shape}")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scaled = np.subtract(X, self.means, out=out, order="C")
            scaled /= self.stds
        scaled[:, ~(self.stds > 0)] = 0.0
        return scaled


@dataclass(frozen=True)
class SplitConfig:
    """Train/test split settings: ``test_fraction`` in (0,1) and a shuffle seed."""

    test_fraction: float = 0.2
    seed: int = 0
    stratify: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")


@dataclass(frozen=True)
class DataConfig:
    """CSV label conventions (CICIDS defaults): the header name of the label
    column and the tokens encoded 0 (benign) and 1 (attack), which must
    differ case-insensitively after trimming."""

    label_column: str = "Label"
    benign_token: str = "BENIGN"
    attack_token: str = "DDoS"

    def __post_init__(self) -> None:
        if not self.label_column:
            raise ValueError("label_column must be non-empty")
        if self.benign_token.strip().casefold() == self.attack_token.strip().casefold():
            raise ValueError("benign_token and attack_token must differ")


def _parse_cell(cell: str) -> tuple[float, bool]:
    """Parse one CSV cell as ``float(cell.strip())``.

    Returns ``(value, is_numeric_evidence)``. Empty cells become NaN and
    count as no evidence either way; cells that fail to parse as a float
    also become NaN without evidence. Parseable cells (including "inf",
    "Infinity", "NaN") are evidence that the column is numeric.
    """
    # float() strips the whitespace str.strip() strips but "\x1c"-"\x1f",
    # so a cell it takes has that value, and the strip is seldom needed
    try:
        return float(cell), True
    except ValueError:
        pass
    s = cell.strip()
    if s == cell:
        return math.nan, False
    try:
        return float(s), True
    except ValueError:
        return math.nan, False


# The reader takes a file this many characters at a time (whole lines), so
# its working memory stays bounded whatever the file's length. On a 14 MB
# CICIDS-shaped capture (78 columns, one BLAS thread), blocks of 128 Ki
# characters read it in 220-234 ms (medians of 5, three repeats), 32 Ki
# and 64 Ki in 226-285 ms, 256 Ki in 218-247 ms and 512 Ki in 264-273 ms;
# the last two held 0.7 and 2.2 MB more traced memory.
_BLOCK_CHARS = 1 << 17


class _Block(NamedTuple):
    """Data rows of one block: ``values`` holds the requested columns,
    ``evidence`` counts their cells that parse, ``labels`` is empty when no
    label column was requested, ``rows`` are 1-based row numbers, and
    ``records`` counts every record read, blank ones included."""

    values: np.ndarray
    evidence: np.ndarray
    labels: np.ndarray
    rows: np.ndarray
    records: int


def _read_header(fh: TextIO, path: str) -> list[str]:
    """The header's names, whitespace-stripped and made unique.

    A name that repeats an earlier one gets the first suffix ``.1``,
    ``.2``, ... that is free: not a name of the header and not given to an
    earlier repeat. So ``X, X, X`` reads as ``X, X.1, X.2``, as pandas
    names them, and ``X, X, X.1`` as ``X, X.2, X.1``: a name written in the
    file always finds the first column that holds it.
    """
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise DataError(f"{path}: empty file, expected a header row") from None
    except csv.Error as exc:  # a name longer than csv's field limit
        raise DataError(f"{path}: header: {exc}") from None
    names = [h.strip() for h in header]
    taken = set(names)
    seen: set[str] = set()
    for i, name in enumerate(names):
        if name in seen:
            n = 1
            while f"{name}.{n}" in taken:
                n += 1
            names[i] = f"{name}.{n}"
            taken.add(names[i])
        seen.add(name)
    return names


@contextlib.contextmanager
def _open_csv(path: str) -> Iterator[TextIO]:
    """The CSV at ``path``, open as UTF-8 text with a byte-order mark
    skipped; bytes that are not UTF-8 raise a DataError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _record_bound(path: str) -> int:
    """An upper bound on the records of the CSV at ``path``: one more than
    its line ends, which are "\\n", "\\r\\n" and a lone "\\r", as the reader
    splits lines."""
    ends = 1
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            ends += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
            if b"\r" in chunk:
                ends += chunk.count(b"\r") - chunk.count(b"\r\n")
    return ends


def _read_rows(
    fh: TextIO,
    path: str,
    n_fields: int,
    take: list[int],
    label_idx: int | None = None,
    tokens: dict[str, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read every record after the header, one block of lines at a time.

    Returns the float64 matrix of columns ``take``, the count of parsing
    cells per column, the label codes (``tokens`` maps a trimmed,
    casefolded label cell to its code) and the 1-based row numbers of the
    data rows. Each block goes to NumPy's C parser (:func:`_c_block`) first,
    and to :func:`_csv_block` when the C parser declines it; both give the
    same result. A requested column in which a :func:`_csv_block` block had
    a cell that ``float()`` rejects is loose from then on: the C parser
    hands its cells to ``float()`` one by one, so it no longer declines a
    block for them. Such cells (empty, "n/a", identifiers) mostly sit in a
    few columns, so after the first blocks that find them, about every
    block is one C-parser call.

    Every block is written into one matrix, allocated before the first for
    as many rows as :func:`_record_bound` allows, and the filled rows are
    returned (C-ordered): the file's values are held once. Rows that stay
    unwritten cost address space, not memory.

    Raises:
        DataError: ragged row, unknown label token, a cell longer than
            csv's field limit, no data rows, or a file that grew while it
            was read.
    """
    take_idx = np.asarray(take, dtype=np.intp)
    bound = _record_bound(path)
    values = np.empty((bound, len(take)))
    labels = np.empty(0 if label_idx is None else bound, dtype=np.int64)
    rows = np.empty(bound, dtype=np.int64)
    evidence = np.zeros(len(take), dtype=np.int64)
    loose: set[int] = set()
    n = row_no = 0
    while lines := fh.readlines(_BLOCK_CHARS):
        args = (row_no, n_fields, take_idx, label_idx, tokens)
        block = _c_block(lines, *args, loose)
        if block is None:
            block = _csv_block(lines, fh, path, *args)
            # a column with a cell float() rejects fails the C parser again
            loose.update(np.flatnonzero(block.evidence < block.rows.size).tolist())
        end = n + block.rows.size
        if end > bound:
            raise DataError(f"{path}: the file grew while it was read")
        values[n:end] = block.values
        labels[n:end] = block.labels  # both empty without a label column
        rows[n:end] = block.rows
        evidence += block.evidence
        n, row_no = end, row_no + block.records
    if not n:
        raise DataError(f"{path}: no data rows")
    return values[:n], evidence, labels[:n], rows[:n]


def _csv_block(
    lines: list[str],
    fh: TextIO,
    path: str,
    row_no: int,
    n_fields: int,
    take: np.ndarray,
    label_idx: int | None,
    tokens: dict[str, int] | None,
) -> _Block:
    """Parse a block record by record with csv.reader and :func:`_parse_cell`.

    A quoted field may run past the block's last line; the reader then
    takes the rest of that record from ``fh``.
    """
    reader = csv.reader(itertools.chain(lines, fh))
    columns = take.tolist()
    values: list[list[float]] = []
    labels: list[int] = []
    rows: list[int] = []
    evidence = np.zeros(len(columns), dtype=np.int64)
    records = 0
    while reader.line_num < len(lines):
        try:
            row = next(reader)
        except csv.Error as exc:  # a cell longer than csv's field limit
            raise DataError(f"{path}: row {row_no + records + 1}: {exc}") from None
        records += 1
        if not row or all(not c.strip() for c in row):
            continue  # skip blank lines
        if len(row) != n_fields:
            raise DataError(
                f"{path}: row {row_no + records} has {len(row)} fields, "
                f"expected {n_fields}"
            )
        if label_idx is not None:
            token = row[label_idx].strip()
            code = tokens.get(token.casefold(), -1)
            if code < 0:
                raise DataError(
                    f"{path}: row {row_no + records}: unknown label token {token!r}"
                )
            labels.append(code)
        parsed = [_parse_cell(row[i]) for i in columns]
        values.append([v for v, _ in parsed])
        evidence += [ok for _, ok in parsed]
        rows.append(row_no + records)
    return _Block(
        np.array(values, dtype=np.float64).reshape(len(rows), len(columns)),
        evidence,
        np.array(labels, dtype=np.int64),
        np.array(rows, dtype=np.int64),
        records,
    )


def _c_block(
    lines: list[str],
    row_no: int,
    n_fields: int,
    take: np.ndarray,
    label_idx: int | None,
    tokens: dict[str, int] | None,
    loose: set[int],
) -> _Block | None:
    """Parse a block with NumPy's C parser; None leaves it to :func:`_csv_block`.

    NumPy's parser and ``float()`` both strip whitespace and call CPython's
    string-to-double, so a cell the C parser accepts has the value
    :func:`_parse_cell` gives it. A cell it rejects sends the block to
    :func:`_csv_block`, which also reads the cells that ``float()`` takes
    and the C parser does not ("1_000", non-ASCII digits). The ``loose``
    columns (places in ``take``), where an earlier block held a cell that
    ``float()`` rejects, are read one cell at a time by the rule of
    :func:`_parse_cell` instead; their evidence counts the cells that parse.
    Every other column's evidence is the block's row count.

    Every line must be one record: the block is declined when it holds a
    quote, a NUL or a lone carriage return, a line longer than csv's field
    limit, a line without exactly ``n_fields - 1`` commas or an unknown
    label. It is declined, too, when every requested column is loose: a
    blank line fails the C parser only in a column the C parser reads.
    """
    text = "".join(lines)
    if (
        len(loose) == len(take)
        or '"' in text
        or "\0" in text
        or ("\r" in text and text.count("\r") != text.count("\r\n"))
        or max(map(len, lines)) > csv.field_size_limit()
        or set(map(str.count, lines, itertools.repeat(","))) != {n_fields - 1}
    ):
        return None
    labels = np.empty(0, dtype=np.int64)
    if label_idx is not None:
        # the label cell, split off from the nearer end of each line
        if 2 * label_idx < n_fields:
            cells = [line.split(",", label_idx + 1)[label_idx] for line in lines]
        else:
            cells = [line.rsplit(",", n_fields - label_idx)[1] for line in lines]
        code = {c: tokens.get(c.strip().casefold(), -1) for c in set(cells)}
        if -1 in code.values():
            return None
        labels = np.fromiter(map(code.__getitem__, cells), np.int64, len(cells))

    rejected = dict.fromkeys(loose, 0)

    def converter(j: int):
        def parse(cell: str) -> float:
            value, ok = _parse_cell(cell)
            rejected[j] += not ok
            return value

        return parse

    try:
        values = np.loadtxt(
            lines,
            delimiter=",",
            comments=None,
            usecols=take,
            ndmin=2,
            converters={int(take[j]): converter(j) for j in loose},
            encoding=None,  # converters get str; NumPy 1.x's default passes bytes
        )
    except ValueError:
        return None
    if values.shape[0] != len(lines):  # an empty line, which loadtxt skips
        return None
    evidence = np.full(len(take), len(lines), dtype=np.int64)
    for j, count in rejected.items():
        evidence[j] -= count
    rows = np.arange(row_no + 1, row_no + 1 + len(lines))
    return _Block(values, evidence, labels, rows, len(lines))


def _find_columns(path: str, header: Sequence[str], wanted: Sequence[str]) -> list[int]:
    """Where ``wanted`` sit in the (unique) ``header``; DataError names the
    columns requested twice or absent."""
    twice = sorted({n for n in wanted if wanted.count(n) > 1})
    if twice:
        raise DataError(f"columns requested more than once: {', '.join(twice)}")
    missing = sorted(set(wanted) - set(header))
    if missing:
        raise DataError(f"{path}: missing feature columns: {', '.join(missing)}")
    return [header.index(n) for n in wanted]


def load_flow_csv(
    path: str, data: DataConfig = DataConfig(), columns: Sequence[str] | None = None
) -> tuple[FlowDataset, list[str]]:
    """Load a flow CSV, encode labels, and drop non-numeric columns.

    Header names are whitespace-stripped (CICIDS exports pad some of
    them), and a repeated name gets a suffix: CICIDS2017's second
    ``Fwd Header Length`` reads as ``Fwd Header Length.1``, as pandas names
    it (see :func:`_read_header`). Every non-label cell is read as
    ``float(cell.strip())``; a cell that is empty or does not parse becomes
    NaN. A column is kept if at least one of its cells parses (so an
    all-"Infinity" or all-"nan" column stays), which drops identifier
    columns (flow IDs, IP addresses, timestamps) wholesale while a numeric
    column with a few corrupt cells survives with NaNs for :func:`clean` to
    handle. Rows whose cells are all blank are skipped.

    Label cells, in the column ``data.label_column`` names, must equal
    ``data.benign_token`` or ``data.attack_token``, case-insensitively after
    trimming; they are encoded 0 and 1.

    The file is read in blocks of whole lines, about 128 K characters
    each, by NumPy's C parser, which gives a cell the value ``float()``
    gives it. The columns where a cell failed it in an earlier block
    (identifier columns, a rate column with empty cells) go through
    ``float()`` one cell at a time, and a block the C parser cannot read
    (quoted fields, blank lines, cells such as "1_000") goes through
    csv.reader, with the same results.

    Args:
        path: CSV file with a header row (RFC 4180, UTF-8).
        data: The label column and tokens.
        columns: Read only these columns, in this order, whatever their
            cells hold (as :func:`load_feature_matrix` does).

    Returns:
        ``(dataset, dropped_columns)`` where ``dropped_columns`` lists the
        names of non-numeric columns that were discarded.

    Raises:
        DataError: missing header or label column, unknown label token
            (named with its row), ragged row, a header name or cell longer
            than csv's field limit (named by its row), zero numeric
            columns, a requested column absent or requested twice, or bytes
            that are not UTF-8.
        OSError: the file cannot be read.
    """
    tokens = {data.benign_token.strip().casefold(): 0, data.attack_token.strip().casefold(): 1}
    with _open_csv(path) as fh:
        names = _read_header(fh, path)
        if data.label_column not in names:
            raise DataError(f"{path}: label column {data.label_column!r} not found in header")
        label_idx = names.index(data.label_column)
        take = [i for i in range(len(names)) if i != label_idx]
        if columns is not None:
            take = _find_columns(path, names, columns)
        features, evidence, labels, _ = _read_rows(fh, path, len(names), take, label_idx, tokens)
    if columns is not None:
        return FlowDataset(tuple(columns), features, labels), []

    col_names = [names[i] for i in take]
    keep = np.flatnonzero(evidence)
    if not keep.size:
        raise DataError(f"{path}: no numeric feature columns found")
    if keep.size < len(take):
        features = _keep_columns(features, keep)
    dataset = FlowDataset(tuple(col_names[j] for j in keep), features, labels)
    dropped = [name for name, count in zip(col_names, evidence) if not count]
    return dataset, dropped


def load_feature_matrix(
    path: str, feature_names: tuple[str, ...] | list[str]
) -> tuple[np.ndarray, list[int]]:
    """Read only the named columns from a CSV, in the order given.

    Used for scoring unlabeled flows: any label or extra columns are
    ignored. Header names and cells are read as in :func:`load_flow_csv`
    (``float(cell.strip())``, NaN when empty or unparseable, block by block
    through NumPy's C parser first), for the caller to handle. Returns the matrix
    and the 1-based data-row number of every returned row (rows whose
    cells are all blank are skipped, so numbers may have gaps).

    Raises:
        DataError: missing header, any requested column absent (all
            absentees listed) or requested twice, ragged row, a header name
            or cell longer than csv's field limit, no data rows, or bytes
            that are not UTF-8.
        OSError: the file cannot be read.
    """
    with _open_csv(path) as fh:
        names = _read_header(fh, path)
        take = _find_columns(path, names, feature_names)
        features, _, _, row_numbers = _read_rows(fh, path, len(names), take)
    return features, row_numbers.tolist()


def clean(ds: FlowDataset) -> FlowDataset:
    """Drop rows containing NaN, then replace ±inf with column means.

    The order matters and is fixed: NaN rows are removed first, and the
    replacement mean for an infinite cell is the arithmetic mean of the
    finite values remaining in its column. Idempotent.

    Raises:
        DataError: every row was removed, a column has no finite value
            to average (the column is named), or the mean overflows float64
            (the columns are named).
    """
    keep = ~np.isnan(ds.features).any(axis=1)
    features = ds.features[keep]  # boolean indexing copies
    labels = ds.labels[keep]
    if features.shape[0] == 0:
        raise DataError("empty dataset after cleaning")
    _fill_inf(features, _finite_means(features, ds.feature_names))
    return FlowDataset(ds.feature_names, features, labels)


# Cells per block of rows in the in-place steps below (512 KB of float64):
# the only temporaries they make are one block's.
_ROW_BLOCK_CELLS = 1 << 16


def _row_blocks(X: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(first row, view)`` of each block of ``X``'s rows, in order."""
    step = max(1, _ROW_BLOCK_CELLS // max(X.shape[1], 1))
    for start in range(0, X.shape[0], step):
        yield start, X[start : start + step]


def _std_by_blocks(X: np.ndarray, means: np.ndarray) -> np.ndarray:
    """``X.std(axis=0)`` (population std) with its bits, one block of rows
    at a time; ``means`` is ``X.mean(axis=0)``.

    NumPy squares the deviations into a temporary of ``X``'s size and, for
    a C-ordered matrix of two or more columns, sums each column in row
    order. Here each block's squared deviations go into rows 1.. of one
    buffer whose row 0 carries the running sums, so summing the buffer
    down its columns continues every sum in that same order; the first
    block's row 0 is zeros, and 0 + x*x is x*x. A single column, or a
    matrix that is not C-ordered, NumPy sums pairwise along each column
    instead, so it takes NumPy's own std and its temporary.
    """
    n, d = X.shape
    if d < 2 or not X.flags.c_contiguous:
        return X.std(axis=0)
    buf = np.empty((min(n, max(1, _ROW_BLOCK_CELLS // d)) + 1, d))
    sums = np.zeros(d)
    for _, block in _row_blocks(X):
        rows = buf[: block.shape[0] + 1]
        rows[0] = sums
        np.subtract(block, means, out=rows[1:])
        np.multiply(rows[1:], rows[1:], out=rows[1:])
        np.add.reduce(rows, axis=0, out=sums)
    sums /= n
    return np.sqrt(sums, out=sums)


def _keep_columns(X: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``X[:, keep]`` for a C-ordered ``X``, inside ``X``'s own buffer.

    Each block of rows gathers its kept cells into a temporary and writes
    them leftwards, as the rows of the narrower C-ordered matrix that
    starts where ``X`` does. Rows before the next block then end where
    that block begins in ``X`` or earlier, so no row is overwritten before
    it is read, and the only temporary is one block's. ``X`` is
    overwritten; the result is a view of its buffer.
    """
    out = X.reshape(-1)[: X.shape[0] * keep.size].reshape(X.shape[0], keep.size)
    for start, block in _row_blocks(X):
        out[start : start + block.shape[0]] = block[:, keep]  # the gather copies first
    return out


def _finite_means(X: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """:func:`clean`'s ±inf fill values for a matrix without NaN: the mean of
    the finite cells of each column that holds ±inf, 0 in the others.

    Raises:
        DataError: a column (named) holds ±inf and no finite value, or
            columns (named) whose fill value overflows float64.
    """
    has_inf = np.zeros(X.shape[1], dtype=bool)
    for _, block in _row_blocks(X):
        has_inf |= np.isinf(block).any(axis=0)
    values = np.zeros(X.shape[1])
    for j in np.flatnonzero(has_inf):
        finite = X[np.isfinite(X[:, j]), j]
        if not finite.size:
            raise DataError(f"column {names[j]!r} has no finite values")
        with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf - inf
            values[j] = finite.mean()
    overflow = np.flatnonzero(~np.isfinite(values))
    if overflow.size:
        columns = ", ".join(names[j] for j in overflow)
        raise DataError(f"mean of the finite values overflows float64 in columns: {columns}")
    return values


def _fill_inf(X: np.ndarray, values: np.ndarray) -> None:
    """Replace each ±inf cell of ``X``, in place, by its column's ``values`` entry."""
    for _, block in _row_blocks(X):
        np.copyto(block, values, where=np.isinf(block))


def _scorable_in_place(
    X: np.ndarray,
    tags: np.ndarray,
    fill_values: Callable[[np.ndarray], np.ndarray],
    scaler: ScalerParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Ready a capture's matrix for scoring inside it: the step ``evaluate``
    and ``predict`` share.

    The rows without a NaN cell move to the front of ``X``, in order, and
    their ``tags`` (labels or row numbers) with them, one block of rows at
    a time. In the kept rows each ±inf cell takes its column's entry of
    ``fill_values(kept rows)``, the command's fill rule, and the rows are
    standardized by ``scaler``, with the bits of :func:`clean` or that rule
    followed by :meth:`ScalerParams.scale`. Both arrays are the caller's
    own and are overwritten; the only temporaries are one block's.

    Returns:
        ``(X[:n], tags[:n])`` for the ``n`` kept rows.

    Raises:
        DataError: every row holds a NaN cell, or the fill rule's own.
    """
    n = 0
    for start, block in _row_blocks(X):
        keep = np.flatnonzero(~np.isnan(block).any(axis=1))
        if n < start or keep.size < block.shape[0]:  # else the rows are in place
            X[n : n + keep.size] = block[keep]  # the gather copies first
            tags[n : n + keep.size] = tags[start + keep]
        n += keep.size
    if not n:
        raise DataError("no scorable rows")
    X, tags = X[:n], tags[:n]
    _fill_inf(X, fill_values(X))
    scaler.scale(X, out=X)
    return X, tags


def _round_half_up(x: float) -> int:
    # platform-stable alternative to round(): no banker's rounding
    return int(math.floor(x + 0.5))


def train_test_split(
    ds: FlowDataset,
    cfg: SplitConfig,
    room: Callable[[np.ndarray], int] | None = None,
) -> tuple[FlowDataset, FlowDataset]:
    """Deterministically shuffle and partition rows into train and test.

    Each group of rows is shuffled and gives ``round(size * test_fraction)``
    of its rows (half-up rounding), clamped to [1, size - 1], to the test
    partition; a group of one row goes to training. The groups are the
    classes, benign then attack, with ``stratify=True`` (so the total may
    differ by one row from the unstratified rule), and otherwise one group
    of every row, so both partitions are nonempty. The shuffles draw from
    one PCG64 generator seeded with ``cfg.seed``, so the partition is
    bit-reproducible across runs and platforms.

    Each partition's rows are gathered once, into a new C-ordered matrix.
    With ``room``, the training rows are gathered into the head of a matrix
    with ``room(training labels)`` more rows, which
    :func:`~ddosflow.smote.oversample` then fills in place of a copy; pass
    ``lambda y: synthetic_count(y, smote_cfg)`` from :mod:`ddosflow.smote`
    for exactly its rows. The partition is the same either way.

    Raises:
        DataError: fewer than 2 rows.
    """
    n = ds.n_rows
    if n < 2:
        raise DataError("train_test_split requires at least 2 rows")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    groups = [np.flatnonzero(ds.labels == c) for c in (0, 1)] if cfg.stratify else [np.arange(n)]
    test_parts, train_parts = [], []
    for group in groups:
        k = group.size
        perm = group[rng.permutation(k)]
        n_test = min(max(_round_half_up(k * cfg.test_fraction), 1), k - 1) if k > 1 else 0
        test_parts.append(perm[:n_test])
        train_parts.append(perm[n_test:])
    train_idx, test_idx = np.concatenate(train_parts), np.concatenate(test_parts)

    labels = ds.labels[train_idx]
    extra = 0 if room is None else room(labels)
    matrix = np.empty((train_idx.size + extra, ds.n_features), dtype=ds.features.dtype)
    # the indices are in range; mode "raise" would gather into a temporary
    features = np.take(ds.features, train_idx, axis=0, out=matrix[: train_idx.size], mode="clip")
    if room is None:
        train = FlowDataset(ds.feature_names, features, labels)
    else:
        train = _WithRoom(ds.feature_names, features, labels, matrix)
    return train, FlowDataset(ds.feature_names, ds.features[test_idx], ds.labels[test_idx])


def fit_scaler(train: FlowDataset) -> ScalerParams:
    """Fit per-column population mean and standard deviation (divisor n).

    Fit on training rows only; apply the result to every other partition
    with :func:`apply_scaler`. The results have the bits of
    ``features.mean(axis=0)`` and ``features.std(axis=0)``, and beside them
    the fit holds one block of rows (``_ROW_BLOCK_CELLS`` cells, 512 KB),
    not a temporary of the training rows' size (see :func:`_std_by_blocks`).

    Raises:
        DataError: no rows, or columns (named) whose mean or standard
            deviation overflows float64.
    """
    if train.n_rows == 0:
        raise DataError("cannot fit scaler on an empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):
        means = train.features.mean(axis=0)
        stds = _std_by_blocks(train.features, means)
    overflow = np.flatnonzero(~np.isfinite(means) | ~np.isfinite(stds))
    if overflow.size:
        names = ", ".join(train.feature_names[j] for j in overflow)
        raise DataError(f"mean or standard deviation overflows float64 in columns: {names}")
    return ScalerParams(means=means, stds=stds, fitted_on=train.n_rows)


def apply_scaler(ds: FlowDataset, s: ScalerParams) -> FlowDataset:
    """A new dataset of ``ds``'s rows standardized by :meth:`ScalerParams.scale`."""
    return FlowDataset(ds.feature_names, s.scale(ds.features), ds.labels.copy())


def save_flow_csv(ds: FlowDataset, path: str, data: DataConfig = DataConfig()) -> None:
    """Write the dataset back out as CSV: feature columns plus the label
    column ``data`` names, holding its tokens.

    csv writes floats with ``repr``, which round-trips float64 exactly,
    so save → load → save is byte-stable.
    """
    tokens = (data.benign_token, data.attack_token)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [data.label_column])
        writer.writerows(
            row + [tokens[label]]
            for row, label in zip(ds.features.tolist(), ds.labels.tolist())
        )

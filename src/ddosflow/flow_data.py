"""Flow-CSV loading, cleaning, splitting, and standardization.

The functions here take a CICIDS-style flow export (one row per network
flow, header row, a categorical label column) and produce a numeric
dataset ready for training: non-numeric columns dropped, labels encoded
benign=0 / attack=1, NaN rows removed, infinities replaced by column
means, and features standardized with statistics fitted on the training
partition only.

All functions are pure: they return new objects and never mutate their
inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np

from .errors import DataError

__all__ = [
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
class ScalerParams:
    """Per-column standardization parameters fitted on training rows.

    ``means`` and ``stds`` are the population mean and population standard
    deviation (divisor n) of each feature column; ``fitted_on`` records how
    many rows the fit saw.
    """

    means: np.ndarray
    stds: np.ndarray
    fitted_on: int

    def __post_init__(self) -> None:
        if self.means.shape != self.stds.shape or self.means.ndim != 1:
            raise ValueError("means and stds must be 1-D vectors of equal length")
        if np.any(self.stds < 0):
            raise ValueError("stds must be non-negative")

    def scale(self, X: np.ndarray) -> np.ndarray:
        """``X`` standardized as :func:`apply_scaler` does; a new C-ordered
        matrix, the only full-size array the call makes."""
        if self.means.shape[0] != X.shape[1]:
            raise ValueError(f"scaler fits {len(self.means)} columns, not {X.shape[1]}")
        scaled = np.subtract(X, self.means, order="C")
        with np.errstate(divide="ignore", invalid="ignore"):
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


def _parse_cell(cell: str) -> tuple[float, bool]:
    """Parse one CSV cell.

    Returns ``(value, is_numeric_evidence)``. Empty cells become NaN and
    count as no evidence either way; cells that fail to parse as a float
    also become NaN without evidence. Parseable cells (including "inf",
    "Infinity", "NaN") are evidence that the column is numeric.
    """
    s = cell.strip()
    if not s:
        return math.nan, False
    try:
        return float(s), True
    except ValueError:
        return math.nan, False


# The reader takes a file this many characters at a time (whole lines), so
# its working memory stays bounded whatever the file's length. Blocks of
# 1 Mi characters were no faster, and left the allocator holding about
# 3 MB more during a later `train` (cold CICIDS-shaped run: 212.7 MB peak
# RSS against 206.9 MB).
_BLOCK_CHARS = 1 << 17

# Byte classes of the block scan (see _scan_block); delimiters are class 0.
_DIGIT, _SIGN, _DOT, _SPACE, _ALPHA, _ODD, _DEAD = 1, 2, 4, 8, 16, 32, 64
_INK = _DIGIT | _SIGN | _DOT | _ALPHA | _DEAD  # bytes that are never whitespace


def _byte_classes() -> bytes:
    table = bytearray([_DEAD]) * 256  # ASCII that float() never accepts
    for chars, cls in (
        (b",\n", 0),
        (b"0123456789", _DIGIT),
        (b"eE+-", _SIGN),
        (b".", _DOT),
        (b" \t", _SPACE),
        # the letters of "inf", "infinity" and "nan", and digit grouping
        (b"afintyAFINTY_", _ALPHA),
        # whitespace that str.strip() removes, and every byte of a
        # non-ASCII character (a digit or a space to float())
        (b"\x0b\x0c\r\x1c\x1d\x1e\x1f" + bytes(range(128, 256)), _ODD),
    ):
        for c in chars:
            table[c] = cls
    return bytes(table)


_BYTE_CLASS = _byte_classes()


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
    data rows. Each block goes through :func:`_scan_block`, or through
    :func:`_csv_block` when the scan declines it; both give the same result.

    Every block is written into one matrix, allocated before the first for
    as many rows as :func:`_record_bound` allows, and the filled rows are
    returned (C-ordered): the file's values are held once. Rows that stay
    unwritten cost address space, not memory.

    Raises:
        DataError: ragged row, unknown label token, no data rows, or a
            file that grew while it was read.
    """
    take_idx = np.asarray(take, dtype=np.intp)
    bound = _record_bound(path)
    values = np.empty((bound, len(take)))
    labels = np.empty(0 if label_idx is None else bound, dtype=np.int64)
    rows = np.empty(bound, dtype=np.int64)
    evidence = np.zeros(len(take), dtype=np.int64)
    n = row_no = 0
    while lines := fh.readlines(_BLOCK_CHARS):
        args = (row_no, n_fields, take_idx, label_idx, tokens)
        block = _scan_block(lines, *args) or _csv_block(lines, fh, path, *args)
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
        row = next(reader)
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


def _scan_block(
    lines: list[str],
    row_no: int,
    n_fields: int,
    take: np.ndarray,
    label_idx: int | None,
    tokens: dict[str, int] | None,
) -> _Block | None:
    """Parse a block with a byte scan and NumPy's C float parser.

    Every line is one record, split at commas. The scan sorts each cell by
    the classes of its bytes:

    * plain -- only digits, "eE+-", at most one dot, spaces and tabs:
      ``np.loadtxt`` parses these. NumPy's C parser and ``float()`` call the
      same CPython string-to-double, so a plain cell the C parser accepts
      has the value ``float()`` gives it;
    * dead -- two or more dots, an ASCII character ``float()`` never
      accepts, or no digit, no letter of "inf"/"nan" and no non-ASCII byte
      (flow IDs, IP addresses, timestamps, "n/a", empty cells): NaN and no
      evidence, as ``float()`` must reject them;
    * the rest ("Infinity", "nan", "1_000", non-ASCII digits or spaces)
      goes through :func:`_parse_cell`.

    In a column that also has plain cells, the other cells are overwritten
    with "0" for ``np.loadtxt`` and their values set afterwards.

    Returns None, for :func:`_csv_block` to parse the block, when the block
    holds what the scan does not model: a quote, a NUL, a lone carriage
    return, a line longer than csv's field limit, a row whose cells hold
    only whitespace and non-ASCII bytes, a ragged row or an unknown label;
    or when the C parser rejects a plain cell (such as "1-2"). So a cell
    wrongly taken for plain costs time, never a different value.
    """
    text = "".join(lines)
    if '"' in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit():
        return None
    if "\r" in text:  # csv ends a record at "\r\n" as at "\n"
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if not text.endswith("\n"):
        text += "\n"
    raw = text.encode()
    buf = np.frombuffer(raw, dtype=np.uint8)
    codes = np.frombuffer(raw.translate(_BYTE_CLASS), dtype=np.uint8)

    # every cell ends at a comma or, the last of its line, at a newline
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    starts = np.concatenate(([0], ends[:-1] + 1))
    last = np.flatnonzero(buf[ends] == ord("\n"))
    first = np.concatenate(([0], last[:-1] + 1))
    width = last - first + 1

    # a reduceat segment runs up to the next cell's start, so it also holds
    # the cell's delimiter, of class 0
    flags = np.bitwise_or.reduceat(codes, starts)
    dots = np.add.reduceat(codes == _DOT, starts, dtype=np.int32)
    dead = (flags & _DEAD != 0) | (dots > 1) | (flags & (_DIGIT | _ALPHA | _ODD) == 0)
    plain = ~dead & (flags & (_ALPHA | _ODD) == 0)
    maybe = ~dead & ~plain

    # a row is blank when every cell strips to nothing; csv.reader decides
    # rows whose only non-space bytes are non-ASCII, and raises the error
    # of a ragged row or an unknown label with the row's number
    data = np.logical_or.reduceat(flags & _INK != 0, first)
    if (np.logical_or.reduceat(flags & _ODD != 0, first) & ~data).any():
        return None
    rows = np.flatnonzero(data)
    if (width[rows] != n_fields).any():
        return None

    labels = np.empty(0, dtype=np.int64)
    if label_idx is not None:
        at = first[rows] + label_idx
        found = [raw[s:e] for s, e in zip(starts[at].tolist(), ends[at].tolist())]
        code = {t: tokens.get(t.decode().strip().casefold(), -1) for t in set(found)}
        labels = np.array([code[t] for t in found], dtype=np.int64)
        if (labels < 0).any():
            return None

    cells = first[rows, None] + take
    plain_cells = plain[cells]
    values = np.full(cells.shape, np.nan)
    use = np.flatnonzero(plain_cells.any(axis=0))
    if use.size:
        patch = cells[:, use][~plain_cells[:, use]]
        if patch.size:
            text = _zero_cells(buf, starts[patch], ends[patch])
        body = text.split("\n")
        try:
            values[:, use] = np.loadtxt(
                [body[i] for i in rows],
                delimiter=",",
                comments=None,
                dtype=np.float64,
                usecols=take[use],
                ndmin=2,
            )
        except ValueError:
            return None
        values[~plain_cells] = np.nan
    evidence = plain_cells.sum(axis=0)
    for r, c in zip(*np.nonzero(maybe[cells])):
        i = cells[r, c]
        values[r, c], ok = _parse_cell(raw[starts[i] : ends[i]].decode())
        evidence[c] += ok
    return _Block(values, evidence, labels, row_no + 1 + rows, width.size)


def _zero_cells(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> str:
    """The block's text with each cell ``[starts, ends)`` replaced by "0"."""
    size = ends - starts
    # the offset of every byte of those cells: each cell's start, repeated
    # once per byte, plus the byte's place in the cell
    before = np.cumsum(size) - size
    inside = np.repeat(starts - before, size) + np.arange(size.sum())
    out = buf.copy()
    out[inside] = ord(" ")
    out[starts[size > 0]] = ord("0")
    return np.insert(out, starts[size == 0], ord("0")).tobytes().decode()


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
    path: str,
    label_column: str = "Label",
    benign_token: str = "BENIGN",
    attack_token: str = "DDoS",
    columns: Sequence[str] | None = None,
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

    Label cells must equal ``benign_token`` or ``attack_token``,
    case-insensitively after trimming; they are encoded 0 and 1.

    The file is read in blocks of whole lines, about 128 K characters
    each: NumPy's C parser reads the cells that are plain decimal numbers,
    and only the rest go through ``float()`` one by one, with the same
    results.

    Args:
        path: CSV file with a header row (RFC 4180, UTF-8).
        label_column: Header name of the label column.
        benign_token: Label value encoded as 0.
        attack_token: Label value encoded as 1.
        columns: Read only these columns, in this order, whatever their
            cells hold (as :func:`load_feature_matrix` does).

    Returns:
        ``(dataset, dropped_columns)`` where ``dropped_columns`` lists the
        names of non-numeric columns that were discarded.

    Raises:
        DataError: missing header or label column, unknown label token
            (named with its row), ragged row, zero numeric columns, a
            requested column absent or requested twice, or bytes that are
            not UTF-8.
        OSError: the file cannot be read.
    """
    benign = benign_token.strip().casefold()
    attack = attack_token.strip().casefold()
    if benign == attack:
        raise DataError("benign and attack tokens must differ")

    with _open_csv(path) as fh:
        names = _read_header(fh, path)
        if label_column not in names:
            raise DataError(f"{path}: label column {label_column!r} not found in header")
        label_idx = names.index(label_column)
        take = [i for i in range(len(names)) if i != label_idx]
        if columns is not None:
            take = _find_columns(path, names, columns)
        features, evidence, labels, _ = _read_rows(
            fh, path, len(names), take, label_idx, {benign: 0, attack: 1}
        )
    if columns is not None:
        return FlowDataset(tuple(columns), features, labels), []

    col_names = [names[i] for i in take]
    keep = np.flatnonzero(evidence)
    if not keep.size:
        raise DataError(f"{path}: no numeric feature columns found")
    if keep.size < len(take):
        features = features.take(keep, axis=1)  # C-ordered, one copy
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
    through NumPy's C parser), for the caller to handle. Returns the matrix
    and the 1-based data-row number of every returned row (rows whose
    cells are all blank are skipped, so numbers may have gaps).

    Raises:
        DataError: missing header, any requested column absent (all
            absentees listed) or requested twice, ragged row, no data rows,
            or bytes that are not UTF-8.
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
        DataError: every row was removed, or a column has no finite value
            to average (the column is named).
    """
    keep = ~np.isnan(ds.features).any(axis=1)
    features = ds.features[keep]  # boolean indexing copies
    labels = ds.labels[keep]
    if features.shape[0] == 0:
        raise DataError("empty dataset after cleaning")

    finite = np.isfinite(features)
    for j in np.flatnonzero(~finite.all(axis=0)):
        col_finite = finite[:, j]
        if not col_finite.any():
            raise DataError(f"column {ds.feature_names[j]!r} has no finite values")
        mean = features[col_finite, j].mean()
        features[~col_finite, j] = mean
    return FlowDataset(ds.feature_names, features, labels)


def _round_half_up(x: float) -> int:
    # platform-stable alternative to round(): no banker's rounding
    return int(math.floor(x + 0.5))


def train_test_split(
    ds: FlowDataset, cfg: SplitConfig
) -> tuple[FlowDataset, FlowDataset]:
    """Deterministically shuffle and partition rows into train and test.

    The test partition gets ``round(n_rows * test_fraction)`` rows
    (half-up rounding), clamped to [1, n_rows - 1] so both partitions are
    nonempty. The shuffle uses a PCG64 generator seeded with ``cfg.seed``,
    so the partition is bit-reproducible across runs and platforms. With
    ``stratify=True`` the same rule is applied per class and the per-class
    test counts may make the total differ from the plain rule by one row.

    Raises:
        DataError: fewer than 2 rows.
    """
    n = ds.n_rows
    if n < 2:
        raise DataError("train_test_split requires at least 2 rows")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))

    if cfg.stratify:
        test_parts = []
        train_parts = []
        for cls in (0, 1):
            cls_idx = np.flatnonzero(ds.labels == cls)
            if cls_idx.size == 0:
                continue
            perm = cls_idx[rng.permutation(cls_idx.size)]
            n_test = min(max(_round_half_up(perm.size * cfg.test_fraction), 1), perm.size - 1) if perm.size > 1 else 0
            test_parts.append(perm[:n_test])
            train_parts.append(perm[n_test:])
        test_idx = np.concatenate(test_parts) if test_parts else np.empty(0, dtype=np.int64)
        train_idx = np.concatenate(train_parts) if train_parts else np.empty(0, dtype=np.int64)
    else:
        perm = rng.permutation(n)
        n_test = min(max(_round_half_up(n * cfg.test_fraction), 1), n - 1)
        test_idx = perm[:n_test]
        train_idx = perm[n_test:]

    def take(idx: np.ndarray) -> FlowDataset:
        return FlowDataset(
            ds.feature_names,
            np.ascontiguousarray(ds.features[idx]),
            ds.labels[idx].copy(),
        )

    return take(train_idx), take(test_idx)


def fit_scaler(train: FlowDataset) -> ScalerParams:
    """Fit per-column population mean and standard deviation (divisor n).

    Fit on training rows only; apply the result to every other partition
    with :func:`apply_scaler`.

    Raises:
        DataError: no rows, or columns (named) whose mean or standard
            deviation overflows float64.
    """
    if train.n_rows == 0:
        raise DataError("cannot fit scaler on an empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):
        means = train.features.mean(axis=0)
        stds = train.features.std(axis=0)  # ddof=0: population std
    overflow = np.flatnonzero(~np.isfinite(means) | ~np.isfinite(stds))
    if overflow.size:
        names = ", ".join(train.feature_names[j] for j in overflow)
        raise DataError(f"mean or standard deviation overflows float64 in columns: {names}")
    return ScalerParams(means=means, stds=stds, fitted_on=train.n_rows)


def apply_scaler(ds: FlowDataset, s: ScalerParams) -> FlowDataset:
    """Standardize features: (x - mean) / std, with zero-variance columns set to 0."""
    return FlowDataset(ds.feature_names, s.scale(ds.features), ds.labels.copy())


def save_flow_csv(
    ds: FlowDataset,
    path: str,
    label_column: str = "Label",
    benign_token: str = "BENIGN",
    attack_token: str = "DDoS",
) -> None:
    """Write the dataset back out as CSV: feature columns plus a label column.

    csv writes floats with ``repr``, which round-trips float64 exactly,
    so save → load → save is byte-stable.
    """
    tokens = (benign_token, attack_token)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [label_column])
        writer.writerows(
            row + [tokens[label]]
            for row, label in zip(ds.features.tolist(), ds.labels.tolist())
        )

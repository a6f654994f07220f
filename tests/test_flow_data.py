import csv
import math
import re

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from ddosflow import flow_data
from ddosflow.errors import DataError
from ddosflow.flow_data import (
    DataConfig,
    FlowDataset,
    ScalerParams,
    SplitConfig,
    apply_scaler,
    clean,
    fit_scaler,
    load_feature_matrix,
    load_flow_csv,
    save_flow_csv,
    train_test_split,
)


def _write(tmp_path, text, name="flows.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _ds(features, labels, names=None):
    features = np.asarray(features, dtype=np.float64)
    if names is None:
        names = tuple(f"c{i}" for i in range(features.shape[1]))
    return FlowDataset(tuple(names), features, np.asarray(labels, dtype=np.int64))


# ---------------------------------------------------------------- loading

def test_label_encoding_order_preserved(tmp_path):
    path = _write(tmp_path, "a,b,Label\n1,2,BENIGN\n3,4,DDoS\n5,6,BENIGN\n")
    ds, dropped = load_flow_csv(path)
    assert ds.labels.tolist() == [0, 1, 0]
    assert dropped == []
    assert ds.feature_names == ("a", "b")
    np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])


def test_all_zero_cells(tmp_path):
    path = _write(tmp_path, "a,b,Label\n0,0,BENIGN\n0,0,DDoS\n")
    ds, _ = load_flow_csv(path)
    assert (ds.features == 0).all()


def test_unparseable_cell_becomes_nan_then_cleaned(tmp_path):
    rows = ["x,y,Label"] + [f"{i},1,BENIGN" for i in range(4)] + ["abc,1,DDoS"]
    ds, dropped = load_flow_csv(_write(tmp_path, "\n".join(rows) + "\n"))
    assert dropped == []  # column x still has numeric evidence
    assert ds.n_rows == 5
    assert np.isnan(ds.features[4, 0])
    cleaned = clean(ds)
    assert cleaned.n_rows == 4


def test_non_numeric_columns_dropped_and_reported(tmp_path):
    path = _write(
        tmp_path,
        "Flow ID,Src IP,Dur,Label\n"
        "f-1,10.0.0.1,3.5,BENIGN\n"
        "f-2,10.0.0.2,4.5,ddos\n",
    )
    ds, dropped = load_flow_csv(path)
    assert set(dropped) == {"Flow ID", "Src IP"}
    assert ds.feature_names == ("Dur",)
    assert ds.labels.tolist() == [0, 1]  # token match is case-insensitive


def test_label_tokens_trimmed_and_case_insensitive(tmp_path):
    path = _write(tmp_path, "a,Label\n1,  Benign \n2,DDOS\n")
    ds, _ = load_flow_csv(path)
    assert ds.labels.tolist() == [0, 1]


def test_unknown_label_token_names_row(tmp_path):
    path = _write(tmp_path, "a,Label\n1,BENIGN\n2,PortScan\n")
    with pytest.raises(DataError, match=r"row 2.*PortScan"):
        load_flow_csv(path)


def test_header_padding_stripped(tmp_path):
    path = _write(tmp_path, " Flow Duration , Label \n7,BENIGN\n")
    ds, _ = load_flow_csv(path)
    assert ds.feature_names == ("Flow Duration",)


def test_infinity_strings_parse_as_numeric_evidence(tmp_path):
    # CICIDS exports write literal "Infinity" in rate columns
    path = _write(tmp_path, "r,Label\nInfinity,BENIGN\n2,DDoS\n")
    ds, dropped = load_flow_csv(path)
    assert dropped == []
    assert np.isinf(ds.features[0, 0])


def test_load_errors(tmp_path):
    with pytest.raises(OSError):
        load_flow_csv(str(tmp_path / "missing.csv"))
    with pytest.raises(DataError, match="empty file"):
        load_flow_csv(_write(tmp_path, "", name="e1.csv"))
    with pytest.raises(DataError, match="label column"):
        load_flow_csv(_write(tmp_path, "a,b\n1,2\n", name="e2.csv"))
    with pytest.raises(DataError, match="no data rows"):
        load_flow_csv(_write(tmp_path, "a,Label\n", name="e3.csv"))
    with pytest.raises(DataError, match="row 1 has 2 fields"):
        load_flow_csv(_write(tmp_path, "a,b,Label\n1,BENIGN\n", name="e4.csv"))
    with pytest.raises(DataError, match="no numeric"):
        load_flow_csv(_write(tmp_path, "ip,Label\nunparseable,BENIGN\n", name="e5.csv"))


def test_blank_lines_skipped(tmp_path):
    path = _write(tmp_path, "a,Label\n1,BENIGN\n\n2,DDoS\n\n")
    ds, _ = load_flow_csv(path)
    assert ds.n_rows == 2


def test_load_feature_matrix_subset_and_order(tmp_path):
    path = _write(tmp_path, "b,a,Label\n2,1,BENIGN\nbad,3,DDoS\n")
    X, rows = load_feature_matrix(path, ("a", "b"))
    assert rows == [1, 2]
    np.testing.assert_array_equal(X[0], [1, 2])
    assert np.isnan(X[1, 1]) and X[1, 0] == 3


def test_duplicate_kept_column_named(tmp_path):
    # a repeated header name gets the first free suffix, as pandas names it
    path = _write(tmp_path, "a,a,Label,a\n1,2,BENIGN,3\n4,5,DDoS,6\n")
    ds, _ = load_flow_csv(path)
    assert ds.feature_names == ("a", "a.1", "a.2")
    np.testing.assert_array_equal(ds.features, [[1, 2, 3], [4, 5, 6]])
    # a suffix the file already uses is skipped, and that column keeps its name
    path = _write(tmp_path, " a ,a,a.1,Label\n1,2,3,BENIGN\n", name="taken.csv")
    ds, _ = load_flow_csv(path)
    assert ds.feature_names == ("a", "a.2", "a.1")
    np.testing.assert_array_equal(ds.features, [[1, 2, 3]])
    # a dropped (non-numeric) twin is reported under its suffixed name
    path = _write(tmp_path, "a,a,Label\n1,x,BENIGN\n3,y,DDoS\n", name="twin.csv")
    ds, dropped = load_flow_csv(path)
    assert ds.feature_names == ("a",) and dropped == ["a.1"]


def test_load_feature_matrix_duplicate_requested_column_named(tmp_path):
    path = _write(tmp_path, "a,b,a\n1,2,3\n4,5,6\n")
    with pytest.raises(DataError, match=r"columns requested more than once: a$"):
        load_feature_matrix(path, ("a", "b", "a"))
    with pytest.raises(DataError, match=r"columns requested more than once: b$"):
        load_flow_csv(_write(tmp_path, "b,Label\n1,BENIGN\n", name="l.csv"), columns=("b", "b"))
    # the header's twin is a column of its own, found by its suffixed name
    X, _ = load_feature_matrix(path, ("a.1", "b", "a"))
    np.testing.assert_array_equal(X, [[3, 2, 1], [6, 5, 4]])


def test_load_feature_matrix_missing_columns_listed(tmp_path):
    path = _write(tmp_path, "a,Label\n1,BENIGN\n")
    with pytest.raises(DataError, match=r"missing feature columns: b, c"):
        load_feature_matrix(path, ("a", "b", "c"))


def test_all_infinity_and_all_nan_columns_kept_all_empty_dropped(tmp_path):
    path = _write(
        tmp_path,
        "r,q,e,Label\nInfinity,nan,,BENIGN\n-inf,NaN, ,DDoS\n",
    )
    ds, dropped = load_flow_csv(path)
    assert ds.feature_names == ("r", "q") and dropped == ["e"]
    assert ds.features[:, 0].tolist() == [math.inf, -math.inf]
    assert np.isnan(ds.features[:, 1]).all()


def test_cells_float_reads_but_the_c_parser_does_not(tmp_path):
    # float() takes digit grouping and non-ASCII digits; NumPy's parser does not
    path = _write(tmp_path, "a,b,Label\n1_000,１２,BENIGN\n2, 3 ,DDoS\n")
    ds, dropped = load_flow_csv(path)
    assert dropped == []
    assert ds.features.tolist() == [[1000.0, 12.0], [2.0, 3.0]]


def test_ragged_row_after_blank_lines_names_its_row(tmp_path):
    path = _write(tmp_path, "a,Label\n1,BENIGN\n\n,\n2,3,DDoS\n")
    with pytest.raises(DataError, match=r"row 4 has 3 fields, expected 2"):
        load_flow_csv(path)
    with pytest.raises(DataError, match=r"row 4 has 3 fields, expected 2"):
        load_feature_matrix(path, ("a",))


def test_unknown_label_after_blank_lines_names_its_row(tmp_path):
    path = _write(tmp_path, "a,Label\n1,BENIGN\n\n \n2,PortScan\n")
    with pytest.raises(DataError, match=r"row 4: unknown label token 'PortScan'"):
        load_flow_csv(path)


def test_load_feature_matrix_row_numbers_have_gaps(tmp_path):
    path = _write(tmp_path, "a,Label\n1,BENIGN\n\n,\n2,DDoS\n\n3,DDoS\n")
    X, rows = load_feature_matrix(path, ("a",))
    assert rows == [1, 4, 6]
    assert X[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_one_column_file_skips_its_empty_lines(tmp_path):
    # an empty line holds the one column's n_fields - 1 = 0 commas
    for text, rows in (("a\n1\n\n2\n3\n", [1, 3, 4]), ("a\n1\n\n2\n \n3\n", [1, 3, 5])):
        X, got = load_feature_matrix(_write(tmp_path, text), ("a",))
        assert got == rows
        assert X[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_file_larger_than_one_block_matches_reference(tmp_path):
    # about 2.5 blocks of text, with bad cells and blank lines in every
    # block and a quoted field in the first
    rng = np.random.Generator(np.random.PCG64(4))
    lines = ["Src IP,x,rate,Label"]
    size = 0
    for i in range(10**6):
        if size > 2.5 * flow_data._BLOCK_CHARS:
            break
        v = float(rng.normal())
        rate = {0: "Infinity", 1: "", 2: "n/a"}.get(i % 97, '"7"' if i == 3 else repr(v))
        lines.append(f"10.0.{i % 256}.1,{v!r},{rate},{'DDoS' if i % 5 else 'BENIGN'}")
        if i % 1009 == 0:
            lines.append(",,,")
        size += len(lines[-1])
    path = _write(tmp_path, "\n".join(lines) + "\n")
    assert _same_outcome(load_flow_csv, _reference_load_flow_csv, path)
    assert _same_outcome(
        load_feature_matrix, _reference_load_feature_matrix, path, ("rate", "x")
    )


def test_cicids_shaped_capture_needs_csv_for_at_most_two_blocks(tmp_path, monkeypatch):
    # 78 features whose two rate columns hold Infinity, empty and "n/a"
    # cells; the second rate column's first bad cell comes blocks later
    names = [f"f{j}" for j in range(76)]
    names[14:14] = ["Flow Bytes/s", "Flow Packets/s"]
    rng = np.random.Generator(np.random.PCG64(14))
    lines = [",".join([" " + n for n in names] + [" Label"])]
    for i, row in enumerate(rng.normal(size=(2000, 78)).tolist()):
        cells = ["%.6g" % v for v in row]
        if i % 50 == 3:
            cells[14] = cells[15] = "Infinity"
        if i % 97 == 5:
            cells[14] = ""
        if i > 1000 and i % 89 == 7:
            cells[15] = "n/a"
        lines.append(",".join(cells + ["DDoS" if i % 3 else "BENIGN"]))
    path = _write(tmp_path, "\n".join(lines) + "\n")
    assert len(lines[-1]) * len(lines) > 8 * flow_data._BLOCK_CHARS
    calls = []
    csv_block = flow_data._csv_block

    def counted(*args):
        calls.append(args)
        return csv_block(*args)

    monkeypatch.setattr(flow_data, "_csv_block", counted)
    assert _same_outcome(load_feature_matrix, _reference_load_feature_matrix, path, names)
    assert len(calls) <= 2
    calls.clear()
    assert _same_outcome(
        _load_by_tokens, _reference_load_flow_csv, path, "Label", "BENIGN", "DDoS", names
    )
    assert len(calls) <= 2


def _load_by_tokens(
    path, label_column="Label", benign_token="BENIGN", attack_token="DDoS", columns=None
):
    """:func:`load_flow_csv` called with the arguments of the reference below."""
    return load_flow_csv(path, DataConfig(label_column, benign_token, attack_token), columns)


# The loaders as they were before block-wise reading: csv.reader plus
# _reference_parse_cell on every cell. The block reader must match them bit
# for bit, error messages included.

def _reference_parse_cell(cell):
    s = cell.strip()
    if not s:
        return math.nan, False
    try:
        return float(s), True
    except ValueError:
        return math.nan, False


def _reference_load_flow_csv(
    path, label_column="Label", benign_token="BENIGN", attack_token="DDoS", columns=None
):
    benign = benign_token.strip().casefold()
    attack = attack_token.strip().casefold()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        names = [h.strip() for h in header]
        if label_column not in names:
            raise DataError(f"{path}: label column {label_column!r} not found in header")
        label_idx = names.index(label_column)
        col_names = [n for i, n in enumerate(names) if i != label_idx]
        if columns is not None:  # as _reference_load_feature_matrix selects them
            missing = [n for n in columns if n not in names]
            if missing:
                raise DataError(f"{path}: missing feature columns: {', '.join(sorted(missing))}")
        rows, labels = [], []
        evidence = [0] * len(col_names)
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(names):
                raise DataError(
                    f"{path}: row {row_no} has {len(row)} fields, expected {len(names)}"
                )
            token = row[label_idx].strip().casefold()
            if token == benign:
                labels.append(0)
            elif token == attack:
                labels.append(1)
            else:
                raise DataError(
                    f"{path}: row {row_no}: unknown label token {row[label_idx].strip()!r}"
                )
            values = []
            j = 0
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                value, ok = _reference_parse_cell(cell)
                values.append(value)
                if ok:
                    evidence[j] += 1
                j += 1
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    matrix = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(col_names))
    labels = np.asarray(labels, dtype=np.int64)
    if columns is not None:
        take = [col_names.index(n) for n in columns]
        return FlowDataset(tuple(columns), np.ascontiguousarray(matrix[:, take]), labels), []
    keep = [j for j, count in enumerate(evidence) if count > 0]
    dropped = [col_names[j] for j in range(len(col_names)) if j not in set(keep)]
    if not keep:
        raise DataError(f"{path}: no numeric feature columns found")
    matrix = np.ascontiguousarray(matrix[:, keep])
    return FlowDataset(tuple(col_names[j] for j in keep), matrix, labels), dropped


def _reference_load_feature_matrix(path, feature_names):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        names = [h.strip() for h in header]
        missing = [n for n in feature_names if n not in names]
        if missing:
            raise DataError(f"{path}: missing feature columns: {', '.join(sorted(missing))}")
        take = [names.index(n) for n in feature_names]
        rows, row_numbers = [], []
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(names):
                raise DataError(
                    f"{path}: row {row_no} has {len(row)} fields, expected {len(names)}"
                )
            rows.append([_reference_parse_cell(row[i])[0] for i in take])
            row_numbers.append(row_no)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), len(take)), row_numbers


def _outcome(load, *args):
    """What a loader returns, with float arrays as their bit patterns, or
    the type and message of the error it raises."""
    try:
        result = load(*args)
    except (DataError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result[0], FlowDataset):
        ds, dropped = result
        assert ds.features.flags.c_contiguous
        return (
            ds.feature_names, ds.features.shape, ds.features.view(np.int64).tolist(),
            ds.labels.dtype, ds.labels.tolist(), dropped,
        )
    X, rows = result
    assert X.flags.c_contiguous
    return X.dtype, X.shape, X.view(np.int64).tolist(), rows


def _same_outcome(load, reference, *args):
    return _outcome(load, *args) == _outcome(reference, *args)


def test_block_reader_matches_reference(tmp_path_factory):
    cells = st.one_of(
        st.floats(width=64).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.6g" % v),
        st.integers(-(10**20), 10**20).map(str),
        # long mantissas and exponents, where a parser that rounds differently shows
        st.from_regex(r"\A[+-]?[0-9]{1,40}(\.[0-9]{0,40})?([eE][+-]?[0-9]{1,3})?\Z"),
        st.sampled_from([
            "Infinity", "-inf", "+Infinity", "nan", "NaN", "-nan", "1_000",
            "\uff11\uff12", "\u0661\u0662", " 5", " 12 ", "\t3.5", " 4 ", "\x1c6",
            "", "   ", "n/a", "10.0.0.1",
            "1.2", "1-2", "-", ".", "e5", "1e", "--1", "1e400", "0x10", "\u3000",
            "caf\u00e9", '"1,5"', '"a""b"', '"2\n3"', '"4\r\n"', '"7"', 'x"y', "8\x00",
        ]),
    )
    # cells NumPy's C parser reads, for leading rows: a column's first bad
    # cell then comes in a later block, after the C parser has read it
    plain = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-(10**6), 10**6).map(str),
    )
    labels = st.sampled_from(["BENIGN", "DDoS", " benign ", "ddos\t", "PortScan"])
    blank_lines = st.sampled_from(["", ",", " , ", "\t", "\u3000,"])

    @st.composite
    def flow_files(draw):
        n_cols = draw(st.integers(1, 4))
        label_at = draw(st.integers(0, n_cols))
        header = [f" c{j} " for j in range(n_cols)]
        header.insert(label_at, "Label")
        lines = [",".join(header)]
        # blank records of the header's width, which pass a count of commas
        blank = blank_lines | st.lists(
            st.sampled_from(["", " ", "\u3000"]), min_size=n_cols + 1, max_size=n_cols + 1
        ).map(",".join)
        n_plain = draw(st.integers(0, 6))
        for i in range(draw(st.integers(0, 12))):
            if draw(st.integers(0, 9)) == 0:
                lines.append(draw(blank))
                continue
            row = draw(st.lists(plain if i < n_plain else cells, min_size=n_cols, max_size=n_cols))
            row.insert(label_at, draw(labels) if draw(st.integers(0, 19)) else "Label")
            if draw(st.integers(0, 29)) == 0:
                row.pop() if draw(st.booleans()) else row.append("1")  # ragged
            lines.append(",".join(row))
        newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text = newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))
        return ("\ufeff" if draw(st.booleans()) else "") + text, n_cols

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        file=flow_files(), block_chars=st.integers(1, 200), benign_only=st.booleans()
    )
    # a blank line in a block where every requested column is loose: it
    # must be skipped, not read as a row of NaN
    @hypothesis.example(file=("Label, c0\nLabel,\n,\n", 1), block_chars=1, benign_only=False)
    # a quoted number in a loose column, which float() alone rejects
    @hypothesis.example(
        file=('c0,c1,Label\n,1,BENIGN\n"7",2,BENIGN\n', 2), block_chars=1, benign_only=False
    )
    def check(file, block_chars, benign_only):
        text, n_cols = file
        path = str(tmp_path_factory.mktemp("flows") / "flows.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        tokens = ("BENIGN", "PortScan") if benign_only else ("BENIGN", "DDoS")
        names = tuple(f"c{j}" for j in reversed(range(n_cols)))
        with pytest.MonkeyPatch.context() as mp:
            # blocks of a few lines, so records and quoted fields cross block edges
            mp.setattr(flow_data, "_BLOCK_CHARS", block_chars)
            assert _same_outcome(
                _load_by_tokens, _reference_load_flow_csv, path, "Label", *tokens
            )
            # the call evaluate makes: the model's columns by name, with labels
            assert _same_outcome(
                _load_by_tokens, _reference_load_flow_csv, path, "Label", *tokens, names
            )
            assert _same_outcome(
                load_feature_matrix, _reference_load_feature_matrix, path, names
            )

    check()


# Files with more line ends than data rows, which the reader's matrix is
# sized by: blank lines, newlines inside quoted fields, lone carriage returns
# (csv ends a record there too), and a last line without a newline.
OVERCOUNTED = {
    "blank lines": "a,b,Label\n\n1,2,BENIGN\n,\n\n3,4,DDoS\n\n\n",
    "quoted newlines": 'a,b,Label\n"1\n",2,BENIGN\n"\n\n3",4,DDoS\n5,"6\r\n",ddos\n',
    "carriage returns": "a,b,Label\r1,2,BENIGN\r\r3,x,DDoS\r\n5,6,BENIGN",
    "no final newline": "a,b,Label\n1,2,BENIGN\n3,4,DDoS",
}


@pytest.mark.parametrize("text", OVERCOUNTED.values(), ids=OVERCOUNTED.keys())
@pytest.mark.parametrize("block_chars", [1, 1 << 17])
def test_reader_matches_reference_where_line_ends_overstate_records(
    tmp_path, monkeypatch, text, block_chars
):
    path = tmp_path / "flows.csv"
    path.write_bytes(text.encode())
    path = str(path)
    monkeypatch.setattr(flow_data, "_BLOCK_CHARS", block_chars)
    assert _same_outcome(load_flow_csv, _reference_load_flow_csv, path)
    assert _same_outcome(
        _load_by_tokens, _reference_load_flow_csv, path, "Label", "BENIGN", "DDoS", ("b", "a")
    )
    assert _same_outcome(load_feature_matrix, _reference_load_feature_matrix, path, ("b", "a"))
    X, rows = load_feature_matrix(path, ("a",))
    assert flow_data._record_bound(path) > len(rows) == X.shape[0] > 0


def test_reader_stops_if_the_file_has_more_records_than_counted(tmp_path, monkeypatch):
    path = _write(tmp_path, "a,Label\n1,BENIGN\n2,DDoS\n")
    monkeypatch.setattr(flow_data, "_record_bound", lambda path: 1)
    with pytest.raises(DataError, match="grew while it was read"):
        load_flow_csv(path)


def test_loaders_name_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,Label\n\xff,BENIGN\n")
    message = rf"^{re.escape(str(path))}: not UTF-8 text \(invalid start byte\)$"
    with pytest.raises(DataError, match=message):
        load_flow_csv(str(path))
    with pytest.raises(DataError, match=message):
        load_feature_matrix(str(path), ("a",))


# ---------------------------------------------------------------- cleaning

def test_clean_drops_nan_rows():
    ds = _ds([[1, 2], [math.nan, 3], [4, 5]], [0, 0, 1])
    out = clean(ds)
    np.testing.assert_array_equal(out.features, [[1, 2], [4, 5]])
    assert out.labels.tolist() == [0, 1]


def test_clean_replaces_inf_with_finite_column_mean():
    ds = _ds([[1.0], [math.inf], [3.0]], [0, 0, 1])
    out = clean(ds)
    np.testing.assert_array_equal(out.features[:, 0], [1.0, 2.0, 3.0])


def test_clean_order_nan_rows_dropped_before_inf_means():
    # row 1 carries both a NaN and a finite 100 in column 1; dropping it
    # first means the inf in row 3 averages {1, 3}, not {1, 3, 100}
    ds = _ds(
        [[1.0, 1.0], [math.nan, 100.0], [3.0, 3.0], [5.0, math.inf]],
        [0, 0, 1, 1],
    )
    out = clean(ds)
    expected = [[1.0, 1.0], [3.0, 3.0], [5.0, 2.0]]
    np.testing.assert_array_equal(out.features, expected)


def test_clean_negative_inf():
    ds = _ds([[2.0], [-math.inf], [4.0]], [0, 1, 0])
    out = clean(ds)
    assert out.features[1, 0] == 3.0


def test_clean_idempotent():
    rng = np.random.Generator(np.random.PCG64(11))
    features = rng.normal(size=(40, 3))
    features[rng.random((40, 3)) < 0.1] = math.nan
    features[rng.random((40, 3)) < 0.1] = math.inf
    ds = _ds(features, rng.integers(0, 2, 40))
    once = clean(ds)
    twice = clean(once)
    np.testing.assert_array_equal(once.features, twice.features)
    np.testing.assert_array_equal(once.labels, twice.labels)
    assert np.isfinite(once.features).all()


def test_clean_empty_result_raises():
    ds = _ds([[math.nan], [math.nan]], [0, 1])
    with pytest.raises(DataError, match="empty dataset after cleaning"):
        clean(ds)


def test_clean_all_inf_column_named():
    ds = _ds([[1.0, math.inf], [2.0, math.inf]], [0, 1], names=("ok", "rate"))
    with pytest.raises(DataError, match="'rate'"):
        clean(ds)


def test_clean_names_the_columns_whose_inf_fill_mean_overflows():
    # the finite cells of "big" sum past float64's largest value, and those
    # of "mixed" too, where NumPy's partial sums can reach +inf and -inf,
    # which add to NaN; so the mean that would replace their Infinity cells
    # is no number, and no overflow or invalid-value warning escapes
    # (pytest raises them)
    big = [1e308] * 9 + [math.inf]
    mixed = [1e308, 1e308, -1e308, -1e308, -1e308, 1e308, 1e308, 1e308, 1e308, -math.inf]
    ok = [1.0] * 9 + [math.inf]
    ds = _ds(np.array([big, ok, mixed]).T, [0, 1] * 5, names=("big", "ok", "mixed"))
    with pytest.raises(DataError, match=r"^mean of the finite values overflows float64 in columns: big, mixed$"):
        clean(ds)


def _evaluate_reference(X, labels, names, scaler):
    """evaluate's path before scoring in place: clean, then apply_scaler."""
    try:
        ds = clean(FlowDataset(names, X, labels))
    except DataError as exc:
        if "empty dataset" in str(exc):
            raise DataError("no scorable rows") from None
        raise
    ds = apply_scaler(ds, scaler)
    return ds.features, ds.labels


def _predict_reference(X, rows, scaler):
    """predict's path before scoring in place: X[keep], the scaler-mean
    fill, then scaler.scale."""
    keep = ~np.isnan(X).any(axis=1)
    X, rows = X[keep], rows[keep]
    if X.shape[0] == 0:
        raise DataError("no scorable rows")
    np.copyto(X, scaler.means, where=np.isinf(X))
    return scaler.scale(X), rows


def _scored(fn, *args):
    """What a scoring path gives: its error's message, or the shape, bits and
    tags of its rows."""
    try:
        X, tags = fn(*args)
    except DataError as exc:
        return str(exc)
    assert X.flags.c_contiguous
    return X.shape, X.view(np.int64).tolist(), tags.tolist()


def test_scoring_in_place_gives_each_commands_reference_bits():
    """flow_data._scorable_in_place, with each command's fill rule, keeps the
    rows, labels, row numbers and value bits of that command's old path, in
    blocks of a few rows so runs of dropped rows cross block edges."""
    values = st.floats(-1e6, 1e6, allow_nan=False)

    @st.composite
    def captures(draw):
        d = draw(st.integers(1, 4))
        # runs of rows that keep or drop, so drops cross block edges in runs
        runs = draw(st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=8))
        dropped = [drop for length, drop in runs for _ in range(length)]
        n = len(dropped)
        X = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
        for i in np.flatnonzero(dropped):
            X[i, draw(st.integers(0, d - 1))] = math.nan
        for _ in range(draw(st.integers(0, 2 * n))):  # +-inf anywhere, NaN rows too
            X[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = draw(
                st.sampled_from([math.inf, -math.inf])
            )
        means = np.array(draw(st.lists(values, min_size=d, max_size=d)))
        stds = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 3.0, 1e4]), min_size=d, max_size=d)))
        labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
        return X, labels, ScalerParams(means, stds, fitted_on=n)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(capture=captures(), block_cells=st.integers(1, 16))
    # no row dropped
    @hypothesis.example(
        capture=(np.array([[1.0, math.inf], [2.0, 3.0]]), np.array([0, 1]),
                 ScalerParams(np.array([1.0, 2.0]), np.array([1.0, 0.0]), 2)),
        block_cells=2,
    )
    # every row but one dropped
    @hypothesis.example(
        capture=(np.array([[math.nan, 1.0], [math.nan, 2.0], [4.0, -math.inf], [5.0, math.nan]]),
                 np.array([1, 0, 1, 0]), ScalerParams(np.array([1.0, 2.0]), np.array([2.0, 1.0]), 4)),
        block_cells=2,
    )
    def check(capture, block_cells):
        X, labels, scaler = capture
        names = tuple(f"c{j}" for j in range(X.shape[1]))
        rows = np.arange(1, X.shape[0] + 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow_data, "_ROW_BLOCK_CELLS", block_cells)
            evaluated = _scored(
                flow_data._scorable_in_place, X.copy(), labels.copy(),
                lambda kept: flow_data._finite_means(kept, names), scaler,
            )
            predicted = _scored(
                flow_data._scorable_in_place, X.copy(), rows.copy(),
                lambda _: scaler.means, scaler,
            )
        assert evaluated == _scored(_evaluate_reference, X.copy(), labels, names, scaler)
        assert predicted == _scored(_predict_reference, X.copy(), rows, scaler)

    check()


# ---------------------------------------------------------------- splitting

def test_split_counts_10_rows():
    ds = _ds(np.arange(20).reshape(10, 2), [0] * 10)
    train, test = train_test_split(ds, SplitConfig(test_fraction=0.2, seed=0))
    assert train.n_rows == 8 and test.n_rows == 2


def test_split_deterministic():
    ds = _ds(np.arange(60).reshape(30, 2), [0] * 30)
    a1, b1 = train_test_split(ds, SplitConfig(seed=9))
    a2, b2 = train_test_split(ds, SplitConfig(seed=9))
    np.testing.assert_array_equal(a1.features, a2.features)
    np.testing.assert_array_equal(b1.features, b2.features)


def test_split_partition_is_complete():
    rng = np.random.Generator(np.random.PCG64(3))
    ds = _ds(rng.normal(size=(100, 2)), rng.integers(0, 2, 100))
    for seed in range(5):
        train, test = train_test_split(ds, SplitConfig(test_fraction=0.2, seed=seed))
        assert train.n_rows == 80 and test.n_rows == 20
        merged = np.vstack([train.features, test.features])
        # multiset equality via lexicographic sort of rows
        key = np.lexsort(merged.T)
        orig_key = np.lexsort(ds.features.T)
        np.testing.assert_array_equal(merged[key], ds.features[orig_key])


def test_split_at_least_one_row_each_side():
    ds = _ds([[0.0], [1.0], [2.0]], [0, 0, 1])
    train, test = train_test_split(ds, SplitConfig(test_fraction=0.01, seed=1))
    assert test.n_rows == 1 and train.n_rows == 2
    train, test = train_test_split(ds, SplitConfig(test_fraction=0.99, seed=1))
    assert train.n_rows == 1 and test.n_rows == 2


def test_split_half_up_rounding():
    # 25 rows at 0.1 -> 2.5 -> rounds half up to 3 test rows
    ds = _ds(np.arange(25).reshape(25, 1), [0] * 25)
    _, test = train_test_split(ds, SplitConfig(test_fraction=0.1, seed=0))
    assert test.n_rows == 3


def test_split_stratified_keeps_class_balance():
    labels = [0] * 90 + [1] * 10
    ds = _ds(np.arange(200).reshape(100, 2), labels)
    train, test = train_test_split(
        ds, SplitConfig(test_fraction=0.2, seed=5, stratify=True)
    )
    assert int((test.labels == 1).sum()) == 2
    assert int((train.labels == 1).sum()) == 8


def two_branch_split(ds, cfg):
    """The split as two rules: one over all rows, and one per class when
    stratified, where an absent class draws no permutation."""
    n = ds.n_rows
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    if cfg.stratify:
        test_parts, train_parts = [], []
        for cls in (0, 1):
            cls_idx = np.flatnonzero(ds.labels == cls)
            if cls_idx.size == 0:
                continue
            perm = cls_idx[rng.permutation(cls_idx.size)]
            n_test = 0
            if perm.size > 1:
                n_test = min(max(math.floor(perm.size * cfg.test_fraction + 0.5), 1), perm.size - 1)
            test_parts.append(perm[:n_test])
            train_parts.append(perm[n_test:])
        test_idx = np.concatenate(test_parts)
        train_idx = np.concatenate(train_parts)
    else:
        perm = rng.permutation(n)
        n_test = min(max(math.floor(n * cfg.test_fraction + 0.5), 1), n - 1)
        test_idx, train_idx = perm[:n_test], perm[n_test:]

    def take(idx):
        return FlowDataset(
            ds.feature_names, np.ascontiguousarray(ds.features[idx]), ds.labels[idx].copy()
        )

    return take(train_idx), take(test_idx)


def test_split_matches_the_two_branch_rule():
    """Down to singleton and absent classes under stratify, the one
    per-group rule gives the rows of the two-branch rule."""
    cases = 0
    for n_benign in (0, 1, 2, 3, 7, 50):
        for n_attack in (0, 1, 2, 5, 13):
            n = n_benign + n_attack
            if n < 2:
                continue
            labels = np.random.Generator(np.random.PCG64(n)).permutation([0] * n_benign + [1] * n_attack)
            ds = _ds(np.arange(2.0 * n).reshape(n, 2), labels)
            for stratify in (False, True):
                for fraction in (0.2, 0.5, 0.9):
                    for seed in (0, 7):
                        cfg = SplitConfig(test_fraction=fraction, seed=seed, stratify=stratify)
                        for got, want in zip(train_test_split(ds, cfg), two_branch_split(ds, cfg)):
                            assert got.features.dtype == want.features.dtype
                            assert got.labels.dtype == want.labels.dtype
                            np.testing.assert_array_equal(got.features, want.features)
                            np.testing.assert_array_equal(got.labels, want.labels)
                            assert got.features.flags.c_contiguous
                        cases += 1
    assert cases == 324


def test_split_too_small():
    ds = _ds([[1.0]], [0])
    with pytest.raises(DataError):
        train_test_split(ds, SplitConfig())


def test_split_config_validation():
    with pytest.raises(ValueError):
        SplitConfig(test_fraction=0.0)
    with pytest.raises(ValueError):
        SplitConfig(test_fraction=1.0)


# ---------------------------------------------------------------- scaling

def test_fit_scaler_population_std():
    ds = _ds([[2.0], [4.0], [6.0]], [0, 0, 1])
    s = fit_scaler(ds)
    # independent two-pass oracle
    mean = (2.0 + 4.0 + 6.0) / 3.0
    var = ((2 - mean) ** 2 + (4 - mean) ** 2 + (6 - mean) ** 2) / 3.0
    assert s.means[0] == mean == 4.0
    assert s.stds[0] == pytest.approx(math.sqrt(var), abs=0.0, rel=1e-15)
    assert s.stds[0] == pytest.approx(1.6329931618554521, rel=1e-15)
    assert s.fitted_on == 3


def test_fit_scaler_names_the_columns_it_overflows():
    # finite cells whose sum (for the mean) or squares (for the std) pass
    # float64's largest value would scale every cell of the column to nan
    ds = _ds([[1e308, 1.0, 1e200], [1e308, 2.0, -1e200]], [0, 1], names=("big", "ok", "wide"))
    with pytest.raises(DataError, match=r"overflows float64 in columns: big, wide$"):
        fit_scaler(ds)


def test_fit_scaler_has_numpys_bits_one_block_at_a_time():
    """fit_scaler sums the std one block of rows at a time and keeps the bits
    of features.std(axis=0) (and of mean(axis=0)): from one block to one
    block per row, with a ragged last block, one row, one column, constant
    columns and columns at 1e8 offsets."""
    cells = st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-300, 7.25])

    @st.composite
    def matrices(draw):
        n, d = draw(st.integers(1, 40)), draw(st.integers(1, 6))
        X = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d))).reshape(n, d)
        X *= np.array(draw(st.lists(st.sampled_from([1.0, 1e-6, 1e5]), min_size=d, max_size=d)))
        X += np.array(draw(st.lists(st.sampled_from([0.0, 1e8, -1e8, 3.3e8]), min_size=d, max_size=d)))
        for j in draw(st.sets(st.integers(0, d - 1))):
            X[:, j] = X[0, j]  # no variance
        return X

    def same_bits(X):
        s = fit_scaler(_ds(X, np.zeros(X.shape[0])))
        assert s.means.tobytes() == X.mean(axis=0).tobytes()
        assert s.stds.tobytes() == X.std(axis=0).tobytes()

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(X=matrices(), block_cells=st.integers(1, 64))
    def check(X, block_cells):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow_data, "_ROW_BLOCK_CELLS", block_cells)
            same_bits(X)

    check()
    # at the default block size: a CICIDS-wide matrix of three blocks, the
    # last ragged, and one long column, which NumPy sums pairwise
    rng = np.random.Generator(np.random.PCG64(11))
    same_bits(rng.normal(size=(2000, 78)) * rng.uniform(0, 1e6, 78) + rng.choice([0, 1e8], 78))
    same_bits(rng.normal(size=(2359, 1)) * 1e3 + 1e8)


def test_exact_standard_normal_column_is_identity():
    ds = _ds([[-1.0], [1.0]], [0, 1])  # mean 0, population std exactly 1
    s = fit_scaler(ds)
    out = apply_scaler(ds, s)
    np.testing.assert_array_equal(out.features, ds.features)


def test_constant_column_scales_to_zero():
    ds = _ds([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 0, 1])
    s = fit_scaler(ds)
    assert s.means[0] == 5.0 and s.stds[0] == 0.0
    out = apply_scaler(ds, s)
    assert (out.features[:, 0] == 0.0).all()


def test_apply_scaler_direct_arithmetic():
    s = ScalerParams(means=np.array([4.0]), stds=np.array([2.0]), fitted_on=10)
    ds = _ds([[6.0]], [0])
    assert apply_scaler(ds, s).features[0, 0] == 1.0


def test_scaled_train_columns_are_standardized():
    rng = np.random.Generator(np.random.PCG64(21))
    ds = _ds(rng.normal(3.0, 7.0, size=(200, 4)), rng.integers(0, 2, 200))
    s = fit_scaler(ds)
    out = apply_scaler(ds, s)
    means = out.features.mean(axis=0)
    stds = out.features.std(axis=0)
    assert np.abs(means).max() < 1e-9
    assert np.abs(stds - 1.0).max() < 1e-9


@pytest.mark.parametrize("order", ["C", "F"])
def test_scale_gives_the_bits_of_the_plain_formula(order):
    rng = np.random.Generator(np.random.PCG64(8))
    X = np.asarray(rng.normal(5.0, 3.0, size=(50, 6)), order=order)
    X[3, 1] = np.inf
    stds = rng.uniform(0.5, 4.0, 6)
    stds[[2, 4]] = 0.0
    s = ScalerParams(means=rng.normal(size=6), stds=stds, fitted_on=50)
    before = X.copy()
    out = s.scale(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.where(stds > 0, (X - s.means) / stds, 0.0)
    assert out.flags.c_contiguous
    np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(X, before)  # the input is left as it was


@pytest.mark.parametrize("order", ["C", "F"])
def test_scale_into_its_input_gives_the_bits_of_a_new_matrix(order):
    rng = np.random.Generator(np.random.PCG64(9))
    X = np.asarray(rng.normal(5.0, 3.0, size=(50, 6)), order=order)
    X[3, 1] = np.inf
    X[7, 5], X[8, 5] = 1e308, -1e308  # (x - mean) / 0.5 overflows to +-inf
    stds = rng.uniform(0.5, 4.0, 6)
    stds[2], stds[5] = 0.0, 0.5
    s = ScalerParams(means=rng.normal(size=6), stds=stds, fitted_on=50)
    want = s.scale(X)
    assert np.isposinf(want[7, 5]) and np.isneginf(want[8, 5])
    assert s.scale(X, out=X) is X
    np.testing.assert_array_equal(X.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("shape", [(4, 3), (1, 4)])
def test_scale_rejects_an_out_of_another_shape(shape):
    # (4, 3) would take X's one row broadcast down all four of its rows
    s = ScalerParams(means=np.zeros(3), stds=np.ones(3), fitted_on=1)
    out = np.zeros(shape)
    with pytest.raises(ValueError, match=re.escape(f"out has shape {shape}, not (1, 3)")):
        s.scale(np.ones((1, 3)), out=out)
    assert not out.any()


def test_apply_scaler_dim_mismatch():
    s = ScalerParams(means=np.zeros(3), stds=np.ones(3), fitted_on=1)
    with pytest.raises(ValueError):
        apply_scaler(_ds([[1.0]], [0]), s)


def test_scaler_params_validation():
    with pytest.raises(ValueError):
        ScalerParams(means=np.zeros(2), stds=np.array([1.0, -0.5]), fitted_on=2)
    with pytest.raises(ValueError, match="fitted_on must be at least 1, got 0"):
        ScalerParams(means=np.zeros(2), stds=np.ones(2), fitted_on=0)


# ---------------------------------------------------------------- round trip

def test_save_load_save_byte_stable(tmp_path):
    rng = np.random.Generator(np.random.PCG64(8))
    ds = _ds(rng.normal(size=(25, 3)) * 1e6, rng.integers(0, 2, 25))
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    save_flow_csv(ds, str(p1))
    loaded, _ = load_flow_csv(str(p1))
    np.testing.assert_array_equal(loaded.features, ds.features)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    save_flow_csv(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_invariants():
    with pytest.raises(ValueError):
        _ds([[1.0, 2.0]], [0], names=("a", "a"))
    with pytest.raises(ValueError):
        _ds([[1.0]], [2])
    with pytest.raises(ValueError):
        FlowDataset(("a",), np.zeros(3), np.zeros(3, dtype=np.int64))

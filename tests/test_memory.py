"""Memory budgets: how many copies of a capture's feature matrix reading,
scaling and scoring hold at their peak, what fitting the scaler and
oversampling hold beside what they return, and what ``train`` holds, as
traced by tracemalloc.

NumPy reports its array buffers to tracemalloc, so a traced peak counts
every matrix, temporary and block buffer alive at once.
"""

import json
import tracemalloc

import numpy as np
import pytest

from ddosflow import flow_data, smote
from ddosflow.cli import main
from ddosflow.config import load_config
from ddosflow.flow_data import (
    FlowDataset,
    ScalerParams,
    clean,
    fit_scaler,
    load_feature_matrix,
    load_flow_csv,
    train_test_split,
    _record_bound,
)
from ddosflow.smote import SmoteConfig, oversample, synthetic_count

N_ROWS, N_FEATURES = 5000, 78  # a CICIDS2017-wide capture; its matrix is 3.1 MB
TRAIN_ROWS = 10_000  # a training file of that width
NAMES = [f"f{j}" for j in range(N_FEATURES)]
MATRIX_BYTES = N_ROWS * N_FEATURES * 8
# what the reader holds for one block of lines besides the matrix: the
# block's lines and their joined text, and its parsed values
BLOCK_BYTES = 3 << 19


def _write_flows(path, n_rows, seed, attack_share=0.3):
    """A labelled flow CSV of N_FEATURES columns, with an Infinity in every
    97th row and an empty cell in every 211th."""
    rng = np.random.Generator(np.random.PCG64(seed))
    attack = rng.random(n_rows) < attack_share
    X = rng.normal(size=(n_rows, N_FEATURES)) * 100 + 50 * attack[:, None]
    lines = [",".join(NAMES + ["Label"])]
    for i, row in enumerate(X.tolist()):
        cells = [repr(v) for v in row]
        if i % 97 == 5:
            cells[3] = "Infinity"
        if i % 211 == 7:
            cells[4] = ""
        lines.append(",".join(cells + ["DDoS" if attack[i] else "BENIGN"]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    """A config file for a small, fast model."""
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps({
        "train": {"epochs_phase1": 1, "epochs_phase2": 1, "batch_size": 64},
        "architecture": {"input_width": 8, "block_widths": [8, 8]},
    }))
    return str(path)


@pytest.fixture(scope="module")
def capture(tmp_path_factory, config):
    """The capture's path and the path of a small model trained on its columns."""
    tmp = tmp_path_factory.mktemp("memory")
    train = _write_flows(tmp / "train.csv", 400, seed=1)
    rc = main(["train", "--data", train, "--out", str(tmp / "run"), "--config", config])
    assert rc == 0
    return _write_flows(tmp / "capture.csv", N_ROWS, seed=2), str(tmp / "run" / "model.txt")


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_reading_a_capture_holds_its_matrix_once(capture):
    path, _ = capture
    peak, (X, _) = _traced_peak(lambda: load_feature_matrix(path, NAMES))
    assert X.nbytes == MATRIX_BYTES
    assert peak <= 1.3 * X.nbytes + BLOCK_BYTES
    peak, (ds, _) = _traced_peak(lambda: load_flow_csv(path, columns=NAMES))
    assert ds.features.nbytes == MATRIX_BYTES
    assert peak <= 1.3 * ds.features.nbytes + BLOCK_BYTES


def test_dropping_identifier_columns_holds_the_read_buffer_once(tmp_path):
    """The identifier columns are dropped inside the matrix the reader
    filled, so the load peaks at that buffer and one block, not with a
    second, narrower copy beside it."""
    ids = ["Flow ID", "Source IP", "Timestamp"]
    rng = np.random.Generator(np.random.PCG64(7))
    X = rng.normal(size=(N_ROWS, N_FEATURES))
    lines = [",".join(ids[:2] + NAMES[:40] + ids[2:] + NAMES[40:] + ["Label"])]
    for i, row in enumerate(X.tolist()):
        cells = [repr(v) for v in row]
        flow = [f"10.0.{i % 256}.1-10.0.0.{i % 7}-{i}", f"192.168.{i % 256}.{i % 13}"]
        lines.append(",".join(flow + cells[:40] + [f"7/7/2017 9:{i % 60:02d}"] + cells[40:] + ["BENIGN"]))
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    read_buffer = _record_bound(str(path)) * (len(ids) + N_FEATURES) * 8
    peak, (ds, dropped) = _traced_peak(lambda: load_flow_csv(str(path)))
    assert dropped == ids
    assert ds.features.flags.c_contiguous
    assert ds.features.tobytes() == X.tobytes()
    assert peak <= read_buffer + BLOCK_BYTES


def test_scaling_makes_only_its_result():
    X = np.random.Generator(np.random.PCG64(3)).normal(size=(N_ROWS, N_FEATURES))
    stds = X.std(axis=0)
    stds[::7] = 0.0
    scaler = ScalerParams(means=X.mean(axis=0), stds=stds, fitted_on=N_ROWS)
    peak, _ = _traced_peak(lambda: scaler.scale(X))
    assert peak <= 1.1 * X.nbytes


def test_fitting_the_scaler_holds_one_block():
    """The std is summed one block of rows at a time, so the fit peaks at
    about one block's buffer, not a temporary of the training rows' size."""
    X = np.random.Generator(np.random.PCG64(4)).normal(size=(N_ROWS, N_FEATURES))
    ds = FlowDataset(tuple(NAMES), X, np.zeros(N_ROWS, dtype=np.int64))
    peak, _ = _traced_peak(lambda: fit_scaler(ds))
    assert X.nbytes > 4 * flow_data._ROW_BLOCK_CELLS * 8
    assert peak <= 1.25 * flow_data._ROW_BLOCK_CELLS * 8


def test_oversampling_holds_the_balanced_matrix_and_a_few_blocks():
    """The synthetic rows are written into the balanced matrix one block at
    a time: beside it oversampling holds a few blocks and a few numbers per
    synthetic row (indices, factors, labels), not a temporary of the
    synthetic rows' size. A tenth of the rows are attacks, so the synthetic
    rows are many blocks."""
    rng = np.random.Generator(np.random.PCG64(5))
    labels = (rng.random(N_ROWS) < 0.1).astype(np.int64)
    ds = FlowDataset(tuple(NAMES), rng.normal(size=(N_ROWS, N_FEATURES)), labels)
    peak, (balanced, _) = _traced_peak(lambda: oversample(ds, SmoteConfig()))
    n_new = balanced.n_rows - ds.n_rows
    block = smote._BLOCK_CELLS * 8
    assert n_new * N_FEATURES * 8 > 8 * block
    assert peak <= balanced.features.nbytes + 4 * block + 8 * 8 * n_new


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_scoring_a_capture_holds_its_matrix_once(capture, tmp_path, command):
    """The capture's rows are dropped, filled and scaled inside the matrix
    the reader returned (about 2.1 matrices when they were copied)."""
    path, model = capture
    argv = [command, "--model", model, "--data", path]
    if command == "predict":
        argv += ["--out", str(tmp_path / "predictions.csv")]
    peak, rc = _traced_peak(lambda: main(argv))
    assert rc == 0
    assert peak <= 1.3 * MATRIX_BYTES + BLOCK_BYTES


def test_training_holds_its_rows_once_beside_the_cleaned_set(tmp_path, config):
    """``train`` gathers its training rows once, into the head of the matrix
    SMOTE fills: at its peak it holds the cleaned set, that balanced matrix
    and the test split, not the training rows twice. A tenth of the rows
    are attacks, so SMOTE adds about two thirds as many rows as the cleaned
    set holds."""
    path = _write_flows(tmp_path / "train.csv", TRAIN_ROWS, seed=3, attack_share=0.1)
    cfg = load_config(config)
    cleaned = clean(load_flow_csv(path)[0])
    train, test = train_test_split(cleaned, cfg.split)
    balanced_rows = train.n_rows + synthetic_count(train.labels, cfg.smote)
    row_bytes = N_FEATURES * 8
    budget = (cleaned.n_rows + balanced_rows + test.n_rows) * row_bytes + BLOCK_BYTES
    del cleaned, train, test
    argv = ["train", "--data", path, "--out", str(tmp_path / "run"), "--config", config]
    peak, rc = _traced_peak(lambda: main(argv))
    assert rc == 0
    assert peak <= budget

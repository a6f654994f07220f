"""Memory budgets: how many copies of a capture's feature matrix reading,
scaling and scoring hold at their peak, as traced by tracemalloc.

NumPy reports its array buffers to tracemalloc, so a traced peak counts
every matrix, temporary and block buffer alive at once.
"""

import json
import tracemalloc

import numpy as np
import pytest

from ddosflow.cli import main
from ddosflow.flow_data import ScalerParams, load_feature_matrix, load_flow_csv

N_ROWS, N_FEATURES = 5000, 78  # a CICIDS2017-wide capture; its matrix is 3.1 MB
NAMES = [f"f{j}" for j in range(N_FEATURES)]
MATRIX_BYTES = N_ROWS * N_FEATURES * 8
# what the reader holds for one block of lines besides the matrix: the
# block's text, its cell offsets and its parsed values
BLOCK_BYTES = 3 << 19


def _write_flows(path, n_rows, seed):
    """A labelled flow CSV of N_FEATURES columns, with an Infinity in every
    97th row and an empty cell in every 211th."""
    rng = np.random.Generator(np.random.PCG64(seed))
    attack = rng.random(n_rows) < 0.3
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
def capture(tmp_path_factory):
    """The capture's path and the path of a small model trained on its columns."""
    tmp = tmp_path_factory.mktemp("memory")
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "train": {"epochs_phase1": 1, "epochs_phase2": 1, "batch_size": 64},
        "architecture": {"input_width": 8, "block_widths": [8, 8]},
    }))
    train = _write_flows(tmp / "train.csv", 400, seed=1)
    rc = main(["train", "--data", train, "--out", str(tmp / "run"), "--config", str(config)])
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


def test_scaling_makes_only_its_result():
    X = np.random.Generator(np.random.PCG64(3)).normal(size=(N_ROWS, N_FEATURES))
    stds = X.std(axis=0)
    stds[::7] = 0.0
    scaler = ScalerParams(means=X.mean(axis=0), stds=stds, fitted_on=N_ROWS)
    peak, _ = _traced_peak(lambda: scaler.scale(X))
    assert peak <= 1.1 * X.nbytes


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_scoring_a_capture_holds_its_matrix_at_most_twice(capture, tmp_path, command):
    path, model = capture
    argv = [command, "--model", model, "--data", path]
    if command == "predict":
        argv += ["--out", str(tmp_path / "predictions.csv")]
    peak, rc = _traced_peak(lambda: main(argv))
    assert rc == 0
    assert peak <= 2.5 * MATRIX_BYTES

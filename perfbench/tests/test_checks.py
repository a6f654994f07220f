"""Each correctness check passes on a right output and fails on a wrong one."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ddosflow.flow_data import FlowDataset, clean, load_feature_matrix, load_flow_csv  # noqa: E402
from ddosflow.metrics import roc_auc  # noqa: E402
from ddosflow.smote import SmoteConfig, oversample  # noqa: E402


def _scores(seed: int, n: int = 400, ties: bool = False):
    rng = np.random.Generator(np.random.PCG64(seed))
    truth = rng.integers(0, 2, n)
    scores = rng.random(n) + 0.3 * truth
    if ties:
        scores = np.round(scores, 1)
    return scores, truth


@pytest.mark.parametrize("ties", [False, True])
def test_pairwise_auc_is_the_quadratic_definition(ties):
    scores, truth = _scores(1, ties=ties)
    pos, neg = scores[truth == 1], scores[truth == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    tied = (pos[:, None] == neg[None, :]).sum()
    got, pairs = checks.pairwise_auc(scores, truth)
    assert pairs == pos.size * neg.size
    assert got == (wins + 0.5 * tied) / pairs


def test_auc_agreement_fails_on_perturbed_scores():
    scores, truth = _scores(2)
    auc = roc_auc(scores, truth)
    assert checks.auc_agreement(auc, scores, truth)[0]
    # lift the lowest-scored attack row above the highest benign one
    moved = scores.copy()
    i = np.flatnonzero(truth == 1)[np.argmin(scores[truth == 1])]
    moved[i] = scores[truth == 0].max() + 1.0
    assert not checks.auc_agreement(auc, moved, truth)[0]


def test_confusion_totals_fails_on_wrong_counts():
    truth = np.array([1, 1, 0, 0, 0])
    kv = {"tp": "1", "fn": "1", "fp": "0", "tn": "3"}
    assert checks.confusion_totals(kv, truth)[0]
    assert not checks.confusion_totals({**kv, "tp": "2", "tn": "2"}, truth)[0]
    assert not checks.confusion_totals({**kv, "tn": "2"}, truth)[0]


def test_predictions_match_fails_on_flipped_label_and_wrong_rows():
    kept = np.array([True, False, True, True])
    rows = np.array([1, 3, 4])
    probs = np.array([0.9, 0.2, 0.5])
    tokens = ["DDoS", "BENIGN", "BENIGN"]  # 0.5 is not above the threshold
    args = (kept, 0.5, "DDoS", "BENIGN")
    assert checks.predictions_match(rows, probs, tokens, *args)[0]
    assert not checks.predictions_match(rows, probs, ["DDoS", "DDoS", "BENIGN"], *args)[0]
    assert not checks.predictions_match(np.array([1, 2, 4]), probs, tokens, *args)[0]
    assert not checks.predictions_match(rows[:2], probs[:2], tokens[:2], *args)[0]
    assert not checks.predictions_match(rows, np.array([1.5, 0.2, 0.5]), tokens, *args)[0]


def test_auc_floor():
    assert checks.auc_floor(0.99)[0]
    assert not checks.auc_floor(0.6)[0]


def test_same_bytes_fails_on_one_changed_byte(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("model 1.0\n")
    b.write_text("model 1.0\n")
    assert checks.same_bytes([str(a)], [str(b)])[0]
    b.write_text("model 1.1\n")
    assert not checks.same_bytes([str(a)], [str(b)])[0]


def _balanced():
    rng = np.random.Generator(np.random.PCG64(3))
    X = np.vstack([rng.normal(size=(60, 4)), rng.normal(size=(12, 4)) + 2.0])
    y = np.array([0] * 60 + [1] * 12)
    ds = FlowDataset(tuple(f"f{j}" for j in range(4)), X, y)
    balanced, _ = oversample(ds, SmoteConfig(k=5, seed=1))
    return ds, balanced


def test_smote_counts_fails_on_wrong_counts():
    ds, balanced = _balanced()
    assert checks.smote_counts(balanced.labels, ds.n_rows, 1.0)[0]
    assert not checks.smote_counts(balanced.labels[:-1], ds.n_rows, 1.0)[0]
    assert not checks.smote_counts(balanced.labels, ds.n_rows, 0.5)[0]


def test_synthetic_on_segments_fails_on_a_moved_row():
    ds, balanced = _balanced()
    X_min = ds.features[ds.labels == 1]
    synthetic = balanced.features[ds.n_rows :].copy()
    assert checks.synthetic_on_segments(X_min, synthetic, 5, sample=48, seed=0)[0]
    synthetic[7] += 0.01
    assert not checks.synthetic_on_segments(X_min, synthetic, 5, sample=48, seed=0)[0]


def test_generator_truth_matches_what_the_loader_sees(tmp_path):
    spec = workloads.FileSpec(
        400, 100, len(workloads.CICIDS_FEATURES), cicids=True,
        inf_share=0.05, empty_share=0.03, corrupt_share=0.02,
    )
    header, blocks, flows = workloads.generate(spec, 7)
    path = str(tmp_path / "flows.csv")
    workloads.write_csv(path, header, blocks)
    raw, dropped = load_flow_csv(path)
    assert dropped == list(workloads.ID_COLUMNS)
    assert raw.feature_names == workloads.CICIDS_FEATURES
    assert np.array_equal(raw.labels, flows.labels)
    assert int(np.isinf(raw.features).sum()) == flows.inf_cells > 0
    assert np.array_equal(np.isnan(raw.features).any(axis=1), flows.unparseable)
    assert clean(raw).n_rows == int(flows.kept.sum())
    X, row_numbers = load_feature_matrix(path, workloads.CICIDS_FEATURES)
    assert row_numbers == list(range(1, spec.n_rows + 1))


@pytest.mark.parametrize("cicids", [False, True])
def test_same_seed_same_file_other_seed_other_file(cicids):
    spec = workloads.FileSpec(2500, 500, len(workloads.CICIDS_FEATURES), cicids=cicids, inf_share=0.01)

    def text(seed: int) -> str:
        return "".join(workloads.generate(spec, seed)[1])

    assert text(1) == text(1)
    assert text(1) != text(2)

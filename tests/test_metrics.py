"""Classification metrics against hand values and an O(n^2) AUC oracle."""

import numpy as np
import pytest

from ddosflow.errors import DataError
from ddosflow.metrics import (
    ConfusionCounts,
    accuracy,
    build_report,
    confusion,
    f1,
    format_report_kv,
    format_report_table,
    precision,
    recall,
    roc_auc,
)


def pairwise_auc(scores, truth):
    """Probability a random positive outscores a random negative,
    counting ties as half. Quadratic on purpose: no sorting, no
    cumulative sums, nothing shared with the implementation."""
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


# ------------------------------------------------------------ confusion

def test_confusion_hand_example():
    counts = confusion(np.array([1, 1, 0, 0]), np.array([1, 0, 0, 1]))
    assert counts == ConfusionCounts(tp=1, fp=1, tn=1, fn=1)
    assert counts.total == 4


def test_confusion_all_correct():
    y = np.array([0, 1, 1, 0, 1])
    counts = confusion(y, y)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (3, 0, 2, 0)


def test_confusion_rejects_non_binary():
    with pytest.raises(ValueError):
        confusion(np.array([0, 2]), np.array([0, 1]))
    with pytest.raises(ValueError):
        confusion(np.array([0, 1]), np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        confusion(np.array([0, 1, 1]), np.array([0, 1]))


def test_confusion_counts_partition_random():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(20):
        n = int(rng.integers(1, 50))
        pred = rng.integers(0, 2, n)
        truth = rng.integers(0, 2, n)
        c = confusion(pred, truth)
        assert c.total == n
        assert c.tp == int(((pred == 1) & (truth == 1)).sum())
        assert c.fn == int(((pred == 0) & (truth == 1)).sum())


# --------------------------------------------------------- scalar ratios

def test_precision_recall_hand_values():
    c = ConfusionCounts(tp=3, fp=1, tn=5, fn=2)
    assert precision(c) == 0.75
    assert recall(c) == 0.6
    assert accuracy(c) == 8 / 11


def test_zero_denominators_return_zero():
    assert precision(ConfusionCounts(tp=0, fp=0, tn=4, fn=2)) == 0.0
    assert recall(ConfusionCounts(tp=0, fp=3, tn=4, fn=0)) == 0.0
    assert f1(0.0, 0.0) == 0.0


def test_f1_is_harmonic_mean():
    p, r = 0.6, 0.9
    assert f1(p, r) == pytest.approx(2 * p * r / (p + r), rel=1e-15)


def test_f1_four_decimal_rounding():
    # near-perfect scores must survive rounding to four decimals
    assert round(f1(0.9998, 0.9996), 4) == 0.9997


def test_accuracy_exact_for_integer_counts():
    c = ConfusionCounts(tp=1, fp=0, tn=2, fn=1)
    assert accuracy(c) == 0.75


@pytest.mark.parametrize("pred, expected", [(1, 1.0), (0, 0.0)], ids=["tp", "fn"])
def test_one_row_confusion_scores_its_one_row(pred, expected):
    c = confusion(np.array([pred]), np.array([1]))
    assert (c.tp, c.fn, c.total) == (pred, 1 - pred, 1)
    assert accuracy(c) == expected
    report = build_report(np.array([pred]), np.array([0.7 if pred else 0.3]), np.array([1]))
    assert report.accuracy == expected
    assert report.recall == expected


# ------------------------------------------------------------------ AUC

def test_auc_hand_example_with_tied_ranks():
    assert roc_auc(np.array([0.9, 0.8, 0.3]), np.array([1, 0, 1])) == 0.5


def test_auc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    truth = np.array([1, 1, 0, 0])
    assert roc_auc(scores, truth) == 1.0
    assert roc_auc(-scores, truth) == 0.0  # inverted ranking


def test_auc_all_scores_tied():
    assert roc_auc(np.full(6, 0.42), np.array([1, 0, 1, 0, 1, 0])) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(DataError, match="AUC undefined"):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(DataError, match="AUC undefined"):
        roc_auc(np.array([0.1, 0.2]), np.array([0, 0]))


def test_auc_matches_pairwise_oracle_random():
    rng = np.random.Generator(np.random.PCG64(11))
    for trial in range(300):
        n = int(rng.integers(2, 65))
        truth = rng.integers(0, 2, n)
        if truth.min() == truth.max():
            truth[rng.integers(0, n)] ^= 1
        if rng.random() < 0.5:
            scores = rng.random(n)  # continuous, ties unlikely
        else:
            scores = rng.integers(0, 4, n) / 3.0  # quantized, ties common
        got = roc_auc(scores, truth)
        want = pairwise_auc(scores.tolist(), truth.tolist())
        assert abs(got - want) <= 1e-9, f"trial {trial}: {got} vs {want}"


def test_auc_invariant_under_monotone_transform():
    rng = np.random.Generator(np.random.PCG64(13))
    scores = rng.random(40)
    truth = rng.integers(0, 2, 40)
    truth[0], truth[1] = 0, 1
    base = roc_auc(scores, truth)
    assert roc_auc(np.exp(3 * scores), truth) == pytest.approx(base, abs=1e-12)
    assert roc_auc(scores * 100 - 7, truth) == pytest.approx(base, abs=1e-12)


def test_auc_complement_identity():
    # reflecting the labels reverses the ranking: AUC(t) + AUC(1-t) = 1
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(20):
        n = int(rng.integers(4, 40))
        scores = rng.integers(0, 6, n) / 5.0
        truth = rng.integers(0, 2, n)
        if truth.min() == truth.max():
            truth[0] ^= 1
        a = roc_auc(scores, truth)
        b = roc_auc(scores, 1 - truth)
        assert a + b == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- report

def test_build_report_internal_consistency():
    rng = np.random.Generator(np.random.PCG64(19))
    scores = rng.random(60)
    truth = rng.integers(0, 2, 60)
    truth[:2] = [0, 1]
    pred = (scores > 0.5).astype(np.int64)
    report = build_report(pred, scores, truth)
    c = report.counts
    assert report.accuracy == accuracy(c)
    assert report.precision == precision(c)
    assert report.recall == recall(c)
    if report.precision + report.recall > 0:
        expect = 2 * report.precision * report.recall / (report.precision + report.recall)
        assert abs(report.f1 - expect) < 1e-12
    assert report.roc_auc == roc_auc(scores, truth)
    assert report.degenerate_metrics == ()


def test_build_report_flags_degenerate_ratios():
    pred = np.zeros(5, dtype=np.int64)
    truth = np.array([1, 1, 0, 0, 0])
    scores = np.array([0.4, 0.3, 0.2, 0.1, 0.05])
    report = build_report(pred, scores, truth)
    assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0
    assert "precision" in report.degenerate_metrics
    assert "f1" in report.degenerate_metrics


@pytest.mark.parametrize("label", [0, 1])
def test_build_report_one_class_truth_flags_auc(label):
    truth = np.full(4, label)
    scores = np.array([0.9, 0.6, 0.3, 0.1])
    report = build_report((scores > 0.5).astype(np.int64), scores, truth)
    assert report.roc_auc == 0.0
    assert "roc_auc" in report.degenerate_metrics
    assert report.accuracy == 0.5


def test_report_table_contents():
    pred = np.array([1, 1, 0, 0])
    truth = np.array([1, 0, 0, 1])
    scores = np.array([0.9, 0.8, 0.2, 0.4])
    text = format_report_table(build_report(pred, scores, truth))
    assert "Accuracy" in text and "0.500000" in text
    assert "ROC-AUC" in text and "0.750000" in text
    assert "tp=1" in text and "fn=1" in text


def test_report_kv_round_trips_floats():
    pred = np.array([1, 0, 1, 0, 1])
    truth = np.array([1, 0, 0, 0, 1])
    scores = np.array([0.81, 0.12, 0.55, 0.4, 0.77])
    report = build_report(pred, scores, truth)
    text = format_report_kv(report)
    assert text.endswith("\n")
    parsed = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert int(parsed["tp"]) == report.counts.tp
    assert float(parsed["accuracy"]) == report.accuracy
    assert float(parsed["roc_auc"]) == report.roc_auc

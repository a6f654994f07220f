"""Confusion-matrix metrics and ROC-AUC for binary detection.

The positive class is 1 (attack). Precision, recall, F1, and accuracy
follow the textbook formulas on integer counts; degenerate denominators
(for example no predicted positives) yield 0 and are flagged rather than
raised. ROC-AUC is computed by a threshold sweep over the scores with
trapezoidal integration, which equals the tie-aware pairwise ranking
statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = [
    "ConfusionCounts",
    "EvalReport",
    "confusion",
    "precision",
    "recall",
    "f1",
    "accuracy",
    "roc_auc",
    "build_report",
    "format_report_table",
    "format_report_kv",
]


@dataclass(frozen=True)
class ConfusionCounts:
    """True/false positive and negative counts; positive class is 1."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class EvalReport:
    """All scalar metrics plus the counts they came from.

    ``degenerate_metrics`` lists metrics whose denominator was zero and
    which were therefore reported as 0.
    """

    counts: ConfusionCounts
    accuracy: float
    precision: float
    recall: float
    f1: float
    roc_auc: float
    degenerate_metrics: tuple[str, ...] = field(default_factory=tuple)


def _as_binary(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v)
    if v.size and not np.isin(v, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return v.astype(np.int64)


def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    """Count tp/fp/tn/fn for {0,1} prediction and truth vectors."""
    pred = _as_binary(pred, "pred")
    truth = _as_binary(truth, "truth")
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    tp = int(((pred == 1) & (truth == 1)).sum())
    fp = int(((pred == 1) & (truth == 0)).sum())
    tn = int(((pred == 0) & (truth == 0)).sum())
    fn = int(((pred == 0) & (truth == 1)).sum())
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def precision(c: ConfusionCounts) -> float:
    """tp / (tp + fp); 0 when nothing was predicted positive."""
    denom = c.tp + c.fp
    return c.tp / denom if denom else 0.0


def recall(c: ConfusionCounts) -> float:
    """tp / (tp + fn); 0 when there are no actual positives."""
    denom = c.tp + c.fn
    return c.tp / denom if denom else 0.0


def f1(p: float, r: float) -> float:
    """Harmonic mean 2pr/(p+r); 0 when both inputs are 0."""
    return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0


def accuracy(c: ConfusionCounts) -> float:
    """(tp + tn) / total, with the sum taken in exact integer arithmetic."""
    if c.total == 0:
        return 0.0
    return (c.tp + c.tn) / c.total


def roc_auc(scores: np.ndarray, truth: np.ndarray) -> float:
    """Area under the ROC curve via a sweep over sorted unique scores.

    Equal scores are grouped at one threshold, which makes the trapezoid
    over each tie group count half, so the result equals the pairwise
    statistic P(score_pos > score_neg) + 0.5 * P(tie). Invariant under
    any strictly increasing transform of the scores.

    Raises:
        DataError: only one class present ("AUC undefined").
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = _as_binary(truth, "truth")
    if scores.shape != truth.shape or scores.ndim != 1:
        raise ValueError("scores and truth must be 1-D vectors of equal length")
    n_pos = int((truth == 1).sum())
    n_neg = int((truth == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC undefined: truth contains a single class")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_truth = truth[order]
    # cumulative tp/fp at the end of each tie group of descending scores
    boundary = np.flatnonzero(np.diff(sorted_scores) != 0)
    group_ends = np.concatenate([boundary, [scores.size - 1]])
    tps = np.cumsum(sorted_truth)[group_ends]
    fps = group_ends + 1 - tps
    tpr = np.concatenate([[0.0], tps / n_pos])
    fpr = np.concatenate([[0.0], fps / n_neg])
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) * 0.5))


def build_report(
    pred: np.ndarray, scores: np.ndarray, truth: np.ndarray
) -> EvalReport:
    """Assemble the full report from thresholded predictions and raw scores.

    AUC uses the continuous scores, not the thresholded predictions, so
    it can differ from accuracy. When the truth holds one class the AUC
    is undefined; it is then reported as 0 and flagged.
    """
    c = confusion(pred, truth)
    degenerate = []
    if c.tp + c.fp == 0:
        degenerate.append("precision")
    if c.tp + c.fn == 0:
        degenerate.append("recall")
    p = precision(c)
    r = recall(c)
    if p + r == 0:
        degenerate.append("f1")
    one_class = c.tp + c.fn == 0 or c.tn + c.fp == 0
    if one_class:
        degenerate.append("roc_auc")
    return EvalReport(
        counts=c,
        accuracy=accuracy(c),
        precision=p,
        recall=r,
        f1=f1(p, r),
        roc_auc=0.0 if one_class else roc_auc(scores, truth),
        degenerate_metrics=tuple(degenerate),
    )


def format_report_table(report: EvalReport) -> str:
    """Human-readable metric table."""
    c = report.counts
    rows = [
        ("Accuracy", report.accuracy),
        ("Precision", report.precision),
        ("Recall", report.recall),
        ("F1-Score", report.f1),
        ("ROC-AUC", report.roc_auc),
    ]
    lines = [
        "Metric      Value",
        "-----------------",
    ]
    for name, value in rows:
        lines.append(f"{name:<11s} {value:.6f}")
    lines.append("-----------------")
    lines.append(f"tp={c.tp} fp={c.fp} tn={c.tn} fn={c.fn} total={c.total}")
    if report.degenerate_metrics:
        lines.append("degenerate: " + ", ".join(report.degenerate_metrics))
    return "\n".join(lines)


def format_report_kv(report: EvalReport) -> str:
    """Machine-readable key=value lines, full float precision."""
    c = report.counts
    pairs = [
        ("tp", c.tp),
        ("fp", c.fp),
        ("tn", c.tn),
        ("fn", c.fn),
        ("accuracy", repr(report.accuracy)),
        ("precision", repr(report.precision)),
        ("recall", repr(report.recall)),
        ("f1", repr(report.f1)),
        ("roc_auc", repr(report.roc_auc)),
        ("degenerate", ",".join(report.degenerate_metrics)),
    ]
    return "\n".join(f"{k}={v}" for k, v in pairs) + "\n"

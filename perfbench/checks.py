"""Correctness checks on the program's outputs.

Each check is computed apart from the program, from the generator's truth
or from a property the method must have; none compares against a stored
copy of earlier output. Every check returns ``(ok, detail)`` so the runner
can count it as one operation and say why it failed.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

Result = tuple[bool, str]

# a trained model on the 6-sigma generator ranks nearly every attack row
# above every benign row; 0.9 is far above chance (0.5) yet below what the
# smallest workload model reaches, so only a broken pipeline falls under it
AUC_FLOOR = 0.9


def read_kv(path: str) -> dict[str, str]:
    """Parse the ``key=value`` report that ``evaluate --out`` writes."""
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def read_predictions(path: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Rows, probabilities and label tokens of a ``predict`` output file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["row", "probability", "label"]:
            raise ValueError(f"unexpected predictions header {header}")
        rows, probs, tokens = [], [], []
        for r, p, t in reader:
            rows.append(int(r))
            probs.append(float(p))
            tokens.append(t)
    return np.asarray(rows, dtype=np.int64), np.asarray(probs), tokens


def pairwise_auc(scores: np.ndarray, truth: np.ndarray) -> tuple[float, int]:
    """Tie-aware pairwise statistic P(pos > neg) + P(pos == neg) / 2.

    Counted exactly in integers with sorted negatives, so it is the O(n^2)
    definition without the O(n^2) cost. Also returns the number of pairs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[truth == 1]
    neg = np.sort(scores[truth == 0])
    below = np.searchsorted(neg, pos, side="left")
    upto = np.searchsorted(neg, pos, side="right")
    pairs = pos.size * neg.size
    wins = int(below.sum())
    ties = int((upto - below).sum())
    return (wins + 0.5 * ties) / pairs, pairs


def auc_agreement(report_auc: float, probs: np.ndarray, truth: np.ndarray) -> Result:
    """``evaluate``'s ROC-AUC equals the pairwise statistic of ``predict``'s scores.

    The tolerance is a quarter of one pair's weight: float rounding in the
    program's trapezoid sum is far smaller, and one pair ranked differently
    is far larger.
    """
    want, pairs = pairwise_auc(probs, truth)
    tol = 0.25 / pairs
    ok = abs(report_auc - want) <= tol
    return ok, f"evaluate roc_auc={report_auc!r}, pairwise over predict={want!r}, tol={tol:.3g}"


def confusion_totals(kv: dict[str, str], truth_kept: np.ndarray) -> Result:
    """tp+fn is the attack count and the total is the count of kept rows."""
    tp, fp, tn, fn = (int(kv[k]) for k in ("tp", "fp", "tn", "fn"))
    attacks = int(truth_kept.sum())
    ok = tp + fn == attacks and tp + fp + tn + fn == truth_kept.size
    return ok, (
        f"tp+fn={tp + fn} (want {attacks}), "
        f"total={tp + fp + tn + fn} (want {truth_kept.size})"
    )


def predictions_match(
    rows: np.ndarray,
    probs: np.ndarray,
    tokens: list[str],
    kept: np.ndarray,
    threshold: float,
    attack: str,
    benign: str,
) -> Result:
    """One row per scorable input row, right row numbers, label == p > threshold."""
    want_rows = np.flatnonzero(kept) + 1  # data rows are numbered from 1
    if rows.shape != want_rows.shape or not np.array_equal(rows, want_rows):
        return False, f"{rows.size} rows written, want {want_rows.size} scorable rows"
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        return False, "probability outside [0, 1]"
    want = np.where(probs > threshold, attack, benign)
    wrong = int(np.sum(want != np.asarray(tokens)))
    return wrong == 0, f"{wrong} labels disagree with p > {threshold}"


def auc_floor(report_auc: float) -> Result:
    return report_auc >= AUC_FLOOR, f"roc_auc={report_auc!r}, floor {AUC_FLOOR}"


def same_bytes(paths_a: list[str], paths_b: list[str]) -> Result:
    """Every file of one run equals the matching file of another byte for byte."""
    differ = []
    for a, b in zip(paths_a, paths_b, strict=True):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                differ.append(os.path.basename(a))
    return not differ, f"differing files: {differ}" if differ else "identical"


def smote_counts(labels: np.ndarray, n_original: int, target_ratio: float) -> Result:
    """The minority class reaches round-half-up(target_ratio * majority) rows."""
    original = np.bincount(labels[:n_original], minlength=2)
    minority = int(np.argmin(original))
    majority = int(original[1 - minority])
    want = math.floor(target_ratio * majority + 0.5)
    after = np.bincount(labels, minlength=2)
    ok = (
        int(after[minority]) == want
        and int(after[1 - minority]) == majority
        and np.all(labels[n_original:] == minority)
    )
    return ok, f"class counts {after.tolist()}, want minority {want}, majority {majority}"


def brute_force_neighbors(X: np.ndarray, i: int, k: int) -> np.ndarray:
    """Row ``i``'s k nearest other rows, ties to the lower index."""
    d2 = ((X - X[i]) ** 2).sum(axis=1)
    d2[i] = np.inf
    return np.argsort(d2, kind="stable")[:k]


def synthetic_on_segments(
    X_min: np.ndarray, synthetic: np.ndarray, k: int, sample: int, seed: int
) -> Result:
    """Sampled synthetic rows lie on a segment from a parent to one of its k neighbours.

    Parents cycle through the minority rows in order, so synthetic row s
    has parent s mod n. The neighbours come from brute force here, not from
    the program's k-NN.
    """
    n = X_min.shape[0]
    k = min(k, n - 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    picks = rng.choice(synthetic.shape[0], size=min(sample, synthetic.shape[0]), replace=False)
    for s in picks.tolist():
        parent = s % n
        x, v = X_min[parent], synthetic[s]
        on_segment = False
        for j in brute_force_neighbors(X_min, parent, k).tolist():
            seg = X_min[j] - x
            denom = float(seg @ seg)
            lam = float((v - x) @ seg) / denom if denom > 0 else 0.0
            if -1e-12 <= lam < 1.0 and np.allclose(x + lam * seg, v, rtol=0, atol=1e-9):
                on_segment = True
                break
        if not on_segment:
            return False, f"synthetic row {s} is on no segment from parent {parent}"
    return True, f"{picks.size} synthetic rows on parent-neighbour segments"

"""Release gate: every contract the package ships with, one test each.

Each test prints a single ``[criterion N] PASS`` line (visible under
``pytest -s`` or in failure output) and enforces the stated tolerance
and runtime budget.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ddosflow.cli import main
from ddosflow.flow_data import FlowDataset, apply_scaler, fit_scaler
from ddosflow.metrics import f1, roc_auc
from ddosflow.nn import (
    ArchitectureConfig,
    LossSpec,
    anchored_loss,
    bce_loss,
    dice_loss,
    gradient_check,
    init_model,
    sigmoid,
)
from ddosflow.smote import SmoteConfig, oversample
from ddosflow.synth import SyntheticSpec, make_synthetic
from ddosflow.trainer import TrainConfig, predict_proba, run_dual_phase


def report(n, ok, detail=""):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# 1. analytic gradients match central differences on every tensor
# --------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    arch = ArchitectureConfig(input_width=8, block_widths=(8, 8), init_seed=2)
    rng = np.random.Generator(np.random.PCG64(5))
    X = rng.standard_normal((6, 8))
    y = np.array([0, 1, 0, 1, 1, 0], dtype=np.int64)
    anchors = rng.uniform(0.05, 0.95, 6)

    worst = {}
    for spec, use_anchors in (
        (LossSpec(kind="bce"), False),
        (LossSpec(kind="dice"), False),
        (LossSpec(kind="anchored", base="dice", lambda_anchor=1.0), True),
    ):
        model = init_model(8, arch)
        rep = gradient_check(
            model, X, y, spec, anchors=anchors if use_anchors else None, h=1e-5
        )
        worst[spec.kind] = rep.max_rel_error
        assert rep.passed, rep.format()
        assert all(err < 1e-4 for err in rep.per_tensor.values())
    elapsed = time.perf_counter() - t0
    report(
        1,
        elapsed < 30.0,
        f"max rel err {max(worst.values()):.2e}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 2. SMOTE synthetic rows live on verified parent-neighbor segments
# --------------------------------------------------------------------------

def test_criterion_2_smote_geometry():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(77))
    checked = 0
    for _ in range(500):
        n_min = int(rng.integers(2, 12))
        n_maj = int(rng.integers(n_min + 1, 40))
        d = int(rng.integers(1, 6))
        X = rng.standard_normal((n_min + n_maj, d)) * 10
        y = np.concatenate(
            [np.ones(n_min, dtype=np.int64), np.zeros(n_maj, dtype=np.int64)]
        )
        order = rng.permutation(n_min + n_maj)
        ds = FlowDataset(
            feature_names=tuple(f"c{i}" for i in range(d)),
            features=X[order],
            labels=y[order],
        )
        balanced, prov = oversample(ds, SmoteConfig(seed=int(rng.integers(1 << 30))))

        # exact post-balance counts
        assert int((balanced.labels == 1).sum()) == n_maj
        assert int((balanced.labels == 0).sum()) == n_maj
        assert balanced.n_rows - ds.n_rows == n_maj - n_min
        assert [a.shape for a in prov] == [(n_maj - n_min,)] * 3

        minority_rows = ds.features[ds.labels == 1]
        for s, (p, nb, lam) in enumerate(zip(*prov)):
            row = balanced.features[ds.n_rows + s]  # the row training sees
            parent = ds.features[p]
            neighbor = ds.features[nb]
            assert ds.labels[p] == 1
            assert ds.labels[nb] == 1
            # brute-force neighbor validity: within the k nearest
            # minority distances from the parent (excluding itself)
            d2 = np.sum((minority_rows - parent) ** 2, axis=1)
            d2 = np.sort(d2)[1:]  # drop the parent's own zero
            k_eff = min(5, n_min - 1)
            d2_rec = float(np.sum((neighbor - parent) ** 2))
            assert d2_rec <= d2[k_eff - 1] + 1e-12
            # segment membership, coordinate by coordinate
            expected = parent + lam * (neighbor - parent)
            assert np.abs(row - expected).max() < 1e-9
            assert 0.0 <= lam < 1.0
            checked += 1
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 60.0, f"{checked} synthetic rows verified, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. metrics equal independent oracles on 1000 random instances
# --------------------------------------------------------------------------

def test_criterion_3_metric_oracle_equivalence():
    from ddosflow.metrics import accuracy, build_report, confusion, precision, recall

    rng = np.random.Generator(np.random.PCG64(99))
    for trial in range(1000):
        n = int(rng.integers(2, 65))
        truth = rng.integers(0, 2, n)
        if truth.min() == truth.max():
            truth[int(rng.integers(0, n))] ^= 1
        scores = (
            rng.random(n)
            if trial % 2 == 0
            else rng.integers(0, 5, n) / 4.0
        )
        pred = (scores >= 0.5).astype(np.int64)

        # pairwise tie-aware AUC oracle, O(n^2)
        pos = scores[truth == 1]
        neg = scores[truth == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        want_auc = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert abs(roc_auc(scores, truth) - want_auc) <= 1e-9

        # direct confusion arithmetic, exact equality
        tp = int(((pred == 1) & (truth == 1)).sum())
        fp = int(((pred == 1) & (truth == 0)).sum())
        tn = int(((pred == 0) & (truth == 0)).sum())
        fn = int(((pred == 0) & (truth == 1)).sum())
        c = confusion(pred, truth)
        assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        assert precision(c) == p
        assert recall(c) == r
        assert f1(p, r) == (2 * p * r / (p + r) if p + r else 0.0)
        assert accuracy(c) == (tp + tn) / n
        rep = build_report(pred, scores, truth)
        assert (rep.precision, rep.recall, rep.accuracy) == (p, r, (tp + tn) / n)
    report(3, True, "1000 instances, AUC within 1e-9, ratios exact")


# --------------------------------------------------------------------------
# 4. loss identities
# --------------------------------------------------------------------------

def test_criterion_4_loss_identities():
    rng = np.random.Generator(np.random.PCG64(111))

    # dice in [0, 1) on 10^4 random inputs
    for _ in range(10_000):
        n = int(rng.integers(1, 33))
        logits = rng.standard_normal(n) * 4
        targets = rng.integers(0, 2, n)
        value, _ = dice_loss(logits, targets)
        assert 0.0 <= value < 1.0

    # bce at the exact targets is numerically zero
    y = rng.integers(0, 2, 500).astype(np.int64)
    value, _ = bce_loss(y.astype(np.float64), y)
    assert value <= 1e-11

    # lambda = 0 collapses to the base loss bitwise (value and gradient)
    logits = rng.standard_normal(64)
    targets = rng.integers(0, 2, 64)
    anchors = rng.uniform(0.1, 0.9, 64)

    plain_v, plain_g = dice_loss(logits, targets)
    anch_v, anch_g = anchored_loss(logits, targets, anchors, 0.0, base="dice")
    assert anch_v == plain_v
    np.testing.assert_array_equal(anch_g, plain_g)

    p = sigmoid(logits)
    bce_v, dbce_dp = bce_loss(p, targets)
    anch_v, anch_g = anchored_loss(logits, targets, anchors, 0.0, base="bce")
    assert anch_v == bce_v
    np.testing.assert_array_equal(anch_g, dbce_dp * p * (1.0 - p))

    # penalty is exactly zero when predictions sit on the anchors
    on_anchor = sigmoid(logits)
    pinned_v, _ = anchored_loss(logits, targets, on_anchor, 1e9, base="dice")
    assert pinned_v == plain_v
    report(4, True, "dice range, bce zero, lambda-0 bitwise, zero penalty")


# --------------------------------------------------------------------------
# 5. desk-scale pipeline hits accuracy and AUC >= 0.99 inside the budget
# --------------------------------------------------------------------------

def test_criterion_5_desk_pipeline(tmp_path):
    t0 = time.perf_counter()
    data = str(tmp_path / "flows.csv")
    assert main(["synth", "--out", data, "--seed", "0"]) == 0  # 1000/50, 8 features, 6 sigma
    outdir = str(tmp_path / "run")
    assert main(["train", "--data", data, "--out", outdir]) == 0  # default 50+50 epochs
    kv = dict(
        line.split("=", 1)
        for line in Path(outdir, "eval_report.kv").read_text().strip().splitlines()
    )
    elapsed = time.perf_counter() - t0
    acc, auc = float(kv["accuracy"]), float(kv["roc_auc"])
    report(
        5,
        acc >= 0.99 and auc >= 0.99 and elapsed < 120.0,
        f"accuracy {acc:.4f}, roc_auc {auc:.4f}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 6. the anchor penalty measurably pins phase-2 predictions
# --------------------------------------------------------------------------

def test_criterion_6_anchoring_effect():
    ds = make_synthetic(SyntheticSpec())  # 1000/50, 8 features, 6 sigma
    scaler = fit_scaler(ds)
    scaled = apply_scaler(ds, scaler)
    balanced, _ = oversample(scaled, SmoteConfig(seed=1))

    drift = {}
    anchor_sets = {}
    for lam in (0.0, 1e6):
        model = init_model(scaled.n_features, ArchitectureConfig(
            input_width=8, block_widths=(8, 8), init_seed=2
        ))
        cfg = TrainConfig(
            epochs_phase1=15, epochs_phase2=15, batch_size=256,
            lambda_anchor=lam, seed=3,
        )
        _, _, anchors = run_dual_phase(model, scaled, balanced, cfg)
        after = predict_proba(model, balanced.features)
        drift[lam] = float(np.mean(np.abs(after - anchors)))
        anchor_sets[lam] = anchors
    # identical seeds mean phase 1 is the same run in both branches
    np.testing.assert_array_equal(anchor_sets[0.0], anchor_sets[1e6])
    report(
        6,
        drift[1e6] < drift[0.0],
        f"mean drift {drift[1e6]:.2e} (pinned) vs {drift[0.0]:.2e} (free)",
    )


# --------------------------------------------------------------------------
# 7. contingent: real CICIDS DDoS-day CSV, if the user provides one
# --------------------------------------------------------------------------

@pytest.mark.skipif(
    not os.environ.get("DDOSFLOW_CICIDS_CSV"),
    reason="set DDOSFLOW_CICIDS_CSV to a CICIDS DDoS-day CSV to enable",
)
def test_criterion_7_cicids_pipeline(tmp_path):
    data = os.environ["DDOSFLOW_CICIDS_CSV"]
    outdir = str(tmp_path / "cicids")
    assert main(["train", "--data", data, "--out", outdir]) == 0
    kv = dict(
        line.split("=", 1)
        for line in Path(outdir, "eval_report.kv").read_text().strip().splitlines()
    )
    acc, f1_score = float(kv["accuracy"]), float(kv["f1"])
    report(7, acc >= 0.99 and f1_score >= 0.99, f"accuracy {acc:.4f}, f1 {f1_score:.4f}")


# --------------------------------------------------------------------------
# 8. end-to-end determinism: byte-identical artifacts
# --------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    data = str(tmp_path / "flows.csv")
    assert main(["synth", "--out", data, "--n-majority", "300", "--n-minority", "30",
                 "--seed", "0"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"epochs_phase1": 10, "epochs_phase2": 10}}))
    dirs = []
    for run in ("r1", "r2"):
        outdir = str(tmp_path / run)
        assert main(["train", "--data", data, "--out", outdir, "--config", str(cfg)]) == 0
        dirs.append(outdir)
    identical = []
    for name in ("model.txt", "train_report.csv", "eval_report.txt", "eval_report.kv"):
        a = Path(dirs[0], name).read_bytes()
        b = Path(dirs[1], name).read_bytes()
        identical.append(a == b)
        assert a == b, f"{name} differs between identical runs"
    report(8, all(identical), "model + 3 reports byte-identical")


# --------------------------------------------------------------------------
# 9. published-figure consistency: F1 from its own precision/recall
# --------------------------------------------------------------------------

def test_criterion_9_f1_rounding():
    value = f1(0.9998, 0.9996)
    report(9, round(value, 4) == 0.9997, f"f1(0.9998, 0.9996) = {value:.6f}")

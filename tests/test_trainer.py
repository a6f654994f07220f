"""Dual-phase training loop: determinism, the zero-penalty reductions,
convergence on an easy blob, and the report plumbing."""

import numpy as np
import pytest

from ddosflow import trainer
from ddosflow.flow_data import FlowDataset
from ddosflow.errors import DataError
from ddosflow.nn import (
    ArchitectureConfig,
    LossSpec,
    init_model,
    model_forward,
    named_parameters,
    sigmoid,
)
from ddosflow.nn.model import named_state
from ddosflow.trainer import (
    TrainConfig,
    TrainReport,
    classify,
    compute_anchors,
    predict_proba,
    run_dual_phase,
    train_phase1,
    train_phase2,
    write_train_report_csv,
)


def blob_dataset(n=200, d=2, seed=0, gap=3.0):
    """Two well-separated gaussian blobs, pre-standardized-ish."""
    rng = np.random.Generator(np.random.PCG64(seed))
    half = n // 2
    X = np.vstack(
        [
            rng.standard_normal((half, d)) - gap / 2,
            rng.standard_normal((n - half, d)) + gap / 2,
        ]
    )
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(n - half, dtype=np.int64)])
    names = tuple(f"f{i}" for i in range(d))
    return FlowDataset(feature_names=names, features=X, labels=y)


def fresh_model(d=2, seed=1, widths=(8, 8)):
    return init_model(d, ArchitectureConfig(input_width=8, block_widths=widths, init_seed=seed))


def params_snapshot(model):
    return {n: t.copy() for n, t in named_parameters(model)}


def assert_models_bitwise_equal(a, b):
    for (name, ta), (_, tb) in zip(named_parameters(a), named_parameters(b)):
        np.testing.assert_array_equal(ta, tb, err_msg=name)
    for (name, sa), (_, sb) in zip(named_state(a), named_state(b)):
        np.testing.assert_array_equal(sa, sb, err_msg=name)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs_phase1=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="batch_size must be >= 2"):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(eta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lambda_anchor=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(loss_phase1="hinge")
    with pytest.raises(ValueError):
        TrainConfig(threshold=1.0)
    with pytest.raises(ValueError):
        TrainConfig(eps_dice=0.0)


def test_loss_names_match_loss_spec():
    # the config accepts exactly the base losses LossSpec accepts
    for name in ("bce", "dice"):
        TrainConfig(loss_phase1=name, loss_phase2_base=name)
        LossSpec(kind=name, base=name)
    names = r"\('bce', 'dice'\)$"
    with pytest.raises(ValueError, match=r"^loss_phase1 must be one of " + names):
        TrainConfig(loss_phase1="anchored")
    with pytest.raises(ValueError, match=r"^loss_phase2_base must be one of " + names):
        TrainConfig(loss_phase2_base="hinge")
    with pytest.raises(ValueError, match=r"^unknown loss kind 'hinge'$"):
        LossSpec(kind="hinge")
    with pytest.raises(ValueError, match=r"^unknown base loss 'anchored'$"):
        LossSpec(kind="anchored", base="anchored")


# --------------------------------------------------------------- phase 1

def test_zero_epochs_is_noop():
    ds = blob_dataset(40)
    model = fresh_model()
    before = params_snapshot(model)
    _, report = train_phase1(model, ds, TrainConfig(epochs_phase1=0))
    assert report.records == ()
    for name, t in named_parameters(model):
        np.testing.assert_array_equal(t, before[name])


def test_empty_dataset_rejected():
    ds = FlowDataset(
        feature_names=("a", "b"),
        features=np.empty((0, 2)),
        labels=np.empty(0, dtype=np.int64),
    )
    with pytest.raises(DataError, match="empty"):
        train_phase1(fresh_model(), ds, TrainConfig(epochs_phase1=1))


def test_phase1_deterministic_bitwise():
    ds = blob_dataset(64)
    cfg = TrainConfig(epochs_phase1=3, epochs_phase2=0, batch_size=16, seed=9)
    m1 = fresh_model(seed=5)
    m2 = fresh_model(seed=5)
    _, r1 = train_phase1(m1, ds, cfg)
    _, r2 = train_phase1(m2, ds, cfg)
    assert_models_bitwise_equal(m1, m2)
    assert [rec.loss for rec in r1.records] == [rec.loss for rec in r2.records]


def test_phase1_seed_changes_trajectory():
    ds = blob_dataset(64)
    m1 = fresh_model(seed=5)
    m2 = fresh_model(seed=5)
    train_phase1(m1, ds, TrainConfig(epochs_phase1=2, batch_size=8, seed=0))
    train_phase1(m2, ds, TrainConfig(epochs_phase1=2, batch_size=8, seed=1))
    assert not np.array_equal(m1.output_affine.W, m2.output_affine.W)


def test_phase1_learns_blob():
    ds = blob_dataset(200, d=2, gap=4.0)
    model = fresh_model(d=2)
    cfg = TrainConfig(epochs_phase1=200, batch_size=32)
    _, report = train_phase1(model, ds, cfg)
    assert report.records[-1].accuracy >= 0.99
    pred = classify(predict_proba(model, ds.features), cfg.threshold)
    assert (pred == ds.labels).mean() >= 0.99


def test_record_structure():
    ds = blob_dataset(48)
    cfg = TrainConfig(epochs_phase1=4, batch_size=16)
    _, report = train_phase1(fresh_model(), ds, cfg)
    assert len(report.records) == 4
    assert [r.epoch for r in report.records] == [1, 2, 3, 4]
    assert all(r.phase == 1 for r in report.records)
    assert all(np.isfinite(r.loss) for r in report.records)
    assert all(0.0 <= r.accuracy <= 1.0 for r in report.records)
    assert report.wall_time_s >= 0.0


# -------------------------------------------------------------- anchors

def test_anchors_are_inference_probabilities():
    ds = blob_dataset(30)
    model = fresh_model()
    anchors = compute_anchors(model, ds)
    assert anchors.shape == (30,)
    assert ((anchors > 0) & (anchors < 1)).all()
    np.testing.assert_array_equal(anchors, predict_proba(model, ds.features))


def test_anchor_length_mismatch_rejected():
    ds = blob_dataset(30)
    with pytest.raises(ValueError, match="anchor length"):
        train_phase2(fresh_model(), ds, np.zeros(29), TrainConfig(epochs_phase2=1))


# ------------------------------------------------- zero-penalty reductions

def test_lambda_zero_phase2_equals_plain_training():
    """With lambda = 0 the anchored objective must collapse to its base
    loss exactly, so phase 2 reproduces a plain phase-1 run configured
    with the same loss, seed, and epoch count."""
    ds = blob_dataset(64)
    cfg2 = TrainConfig(epochs_phase2=3, batch_size=16, lambda_anchor=0.0,
                       loss_phase2_base="bce", seed=3)
    cfg1 = TrainConfig(epochs_phase1=3, batch_size=16, loss_phase1="bce", seed=3)
    anchored = fresh_model(seed=11)
    plain = fresh_model(seed=11)
    train_phase2(anchored, ds, np.full(64, 0.5), cfg2)
    train_phase1(plain, ds, cfg1)
    assert_models_bitwise_equal(anchored, plain)


def test_dual_phase_degenerates_to_single_run():
    """Same data in both phases, lambda = 0, same loss, optimizer carried
    across the boundary: the dual run must equal one run of double length
    bitwise, because one shuffle stream spans both phases."""
    ds = blob_dataset(48)
    dual_cfg = TrainConfig(
        epochs_phase1=2,
        epochs_phase2=2,
        batch_size=16,
        lambda_anchor=0.0,
        loss_phase1="bce",
        loss_phase2_base="bce",
        reset_optimizer_phase2=False,
        seed=7,
    )
    single_cfg = TrainConfig(epochs_phase1=4, batch_size=16, loss_phase1="bce", seed=7)
    dual = fresh_model(seed=13)
    single = fresh_model(seed=13)
    run_dual_phase(dual, ds, ds, dual_cfg)
    train_phase1(single, ds, single_cfg)
    assert_models_bitwise_equal(dual, single)


def test_optimizer_reset_changes_phase2():
    ds = blob_dataset(48)
    base = dict(
        epochs_phase1=2, epochs_phase2=2, batch_size=16,
        lambda_anchor=0.0, loss_phase2_base="bce", seed=7,
    )
    kept = fresh_model(seed=13)
    reset = fresh_model(seed=13)
    run_dual_phase(kept, ds, ds, TrainConfig(reset_optimizer_phase2=False, **base))
    run_dual_phase(reset, ds, ds, TrainConfig(reset_optimizer_phase2=True, **base))
    assert not np.array_equal(kept.output_affine.W, reset.output_affine.W)


# ------------------------------------------------------------ dual phase

def test_dual_phase_report_and_anchors():
    ds = blob_dataset(60)
    cfg = TrainConfig(epochs_phase1=2, epochs_phase2=3, batch_size=16)
    model = fresh_model(seed=2)
    trained, report, anchors = run_dual_phase(model, ds, ds, cfg)
    assert trained is model
    phases = [r.phase for r in report.records]
    assert phases == [1, 1, 2, 2, 2]
    assert [r.epoch for r in report.records] == [1, 2, 1, 2, 3]
    assert anchors.shape == (60,)
    assert ((anchors > 0) & (anchors < 1)).all()


def test_dual_phase_deterministic():
    ds = blob_dataset(60)
    cfg = TrainConfig(epochs_phase1=2, epochs_phase2=2, batch_size=16, seed=21)
    m1 = fresh_model(seed=3)
    m2 = fresh_model(seed=3)
    _, rep1, a1 = run_dual_phase(m1, ds, ds, cfg)
    _, rep2, a2 = run_dual_phase(m2, ds, ds, cfg)
    assert_models_bitwise_equal(m1, m2)
    np.testing.assert_array_equal(a1, a2)
    assert [r.loss for r in rep1.records] == [r.loss for r in rep2.records]


def test_large_lambda_pins_predictions_to_anchors():
    """The anchor penalty must actually bite: with a huge lambda the
    phase-2 drift away from the frozen phase-1 predictions is strictly
    smaller than with the penalty off."""
    ds = blob_dataset(80, gap=2.0)
    drift = {}
    for lam in (0.0, 1e6):
        model = fresh_model(seed=17)
        cfg = TrainConfig(
            epochs_phase1=5, epochs_phase2=10, batch_size=16,
            lambda_anchor=lam, seed=29,
        )
        _, _, anchors = run_dual_phase(model, ds, ds, cfg)
        after = predict_proba(model, ds.features)
        drift[lam] = float(np.mean(np.abs(after - anchors)))
    assert drift[1e6] < drift[0.0]


# ------------------------------------------------------------ prediction

def test_predict_proba_chunking_invariant(monkeypatch):
    ds = blob_dataset(103, d=3)
    model = fresh_model(d=3, seed=19)
    full = predict_proba(model, ds.features)
    monkeypatch.setattr(trainer, "SCORE_CHUNK", 7)
    chunked = predict_proba(model, ds.features)
    np.testing.assert_array_equal(full, chunked)
    assert ((full > 0) & (full < 1)).all()


@pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 520, 1030, 4097])
def test_predict_proba_matches_one_pass_over_all_rows(n, monkeypatch):
    """Chunks of 256 to 4096 rows, the last one taking the leftover rows,
    give every row the bits of one forward pass over all rows."""
    rng = np.random.Generator(np.random.PCG64(21))
    model = init_model(8, ArchitectureConfig())
    X = rng.standard_normal((n, 8)) * 2.0
    one_pass = sigmoid(model_forward(model, X)[0])
    for chunk_size in (256, 512, 1024, 4096):
        monkeypatch.setattr(trainer, "SCORE_CHUNK", chunk_size)
        assert predict_proba(model, X).tobytes() == one_pass.tobytes()


def test_predict_proba_width_mismatch():
    model = fresh_model(d=3)
    with pytest.raises(ValueError, match="features"):
        predict_proba(model, np.zeros((4, 5)))


def test_classify_threshold_is_strict():
    proba = np.array([0.4999, 0.5, 0.5001])
    np.testing.assert_array_equal(classify(proba, 0.5), [0, 0, 1])
    np.testing.assert_array_equal(classify(proba, 0.01), [1, 1, 1])


# --------------------------------------------------------------- report

def test_write_train_report_csv(tmp_path):
    ds = blob_dataset(32)
    cfg = TrainConfig(epochs_phase1=2, epochs_phase2=1, batch_size=16)
    model = fresh_model(seed=23)
    _, report, _ = run_dual_phase(model, ds, ds, cfg)
    out = tmp_path / "train_report.csv"
    write_train_report_csv(report, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "phase,epoch,loss,accuracy"
    assert len(lines) == 4
    for line, rec in zip(lines[1:], report.records):
        phase, epoch, loss, acc = line.split(",")
        assert int(phase) == rec.phase and int(epoch) == rec.epoch
        assert float(loss) == rec.loss  # repr round-trip is exact
        assert float(acc) == rec.accuracy

import math

import numpy as np
import pytest

from ddosflow.nn import LossSpec, anchored_loss, apply_loss, bce_loss, dice_loss, sigmoid


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of scalar f at vector x."""
    g = np.zeros_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        up = f()
        x[i] = orig - h
        down = f()
        x[i] = orig
        g[i] = (up - down) / (2 * h)
    return g


# -------------------------------------------------------------------- bce

def test_bce_perfect_prediction_tiny():
    y = np.array([0.0, 1.0, 1.0, 0.0])
    loss, _ = bce_loss(y.copy(), y)
    assert 0.0 <= loss <= 1e-11


def test_bce_uniform_half_is_ln2():
    y_hat = np.full(8, 0.5)
    y = np.array([0, 1] * 4, dtype=float)
    loss, _ = bce_loss(y_hat, y)
    assert loss == pytest.approx(math.log(2.0), rel=1e-15)


def test_bce_quarter_single_sample():
    loss, _ = bce_loss(np.array([0.25]), np.array([1.0]))
    assert loss == pytest.approx(-math.log(0.25), rel=1e-15)
    assert loss == pytest.approx(1.386294, abs=1e-6)


def test_bce_length_mismatch():
    with pytest.raises(ValueError):
        bce_loss(np.zeros(2), np.zeros(3))


def test_bce_nonnegative_and_finite():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(100):
        y_hat = rng.random(16)
        y = rng.integers(0, 2, 16).astype(float)
        loss, grad = bce_loss(y_hat, y)
        assert loss >= 0.0 and np.isfinite(loss)
        assert np.isfinite(grad).all()


def test_bce_gradient_matches_fd():
    rng = np.random.Generator(np.random.PCG64(1))
    y_hat = rng.uniform(0.05, 0.95, 12)
    y = rng.integers(0, 2, 12).astype(float)
    _, grad = bce_loss(y_hat, y)
    numeric = fd_gradient(lambda: bce_loss(y_hat, y)[0], y_hat)
    np.testing.assert_allclose(grad, numeric, rtol=1e-6)


def test_bce_gradient_zero_outside_clamp():
    y_hat = np.array([0.0, 1.0, 0.5])
    y = np.array([1.0, 0.0, 1.0])
    _, grad = bce_loss(y_hat, y)
    assert grad[0] == 0.0 and grad[1] == 0.0 and grad[2] != 0.0


# ------------------------------------------------------------------- dice

def test_dice_empty_empty_overlap():
    loss, _ = dice_loss(np.full(5, -100.0), np.zeros(5))
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_dice_perfect_overlap():
    loss, _ = dice_loss(np.full(4, 100.0), np.ones(4))
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_dice_half_probabilities_hand_value():
    loss, _ = dice_loss(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0]))
    # p = 0.5 each: D = (2*1 + 1) / (2 + 2 + 1) = 3/5
    assert loss == 1.0 - 3.0 / 5.0 == 0.4


def test_dice_range_property():
    rng = np.random.Generator(np.random.PCG64(2))
    for _ in range(300):
        n = int(rng.integers(1, 20))
        logits = rng.normal(size=n) * 10
        targets = rng.integers(0, 2, n).astype(float)
        loss, _ = dice_loss(logits, targets)
        assert 0.0 <= loss < 1.0


def test_dice_length_mismatch():
    with pytest.raises(ValueError):
        dice_loss(np.zeros(2), np.zeros(3))


def test_dice_gradient_matches_fd():
    rng = np.random.Generator(np.random.PCG64(3))
    logits = rng.normal(size=10)
    targets = rng.integers(0, 2, 10).astype(float)
    _, grad = dice_loss(logits, targets)
    numeric = fd_gradient(lambda: dice_loss(logits, targets)[0], logits)
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-10)


# --------------------------------------------------------------- anchored

def test_anchored_lambda_zero_bitwise_base():
    rng = np.random.Generator(np.random.PCG64(4))
    logits = rng.normal(size=9)
    y = rng.integers(0, 2, 9).astype(float)
    anchors = rng.random(9)
    for base in ("dice", "bce"):
        loss, grad = anchored_loss(logits, y, anchors, 0.0, base=base)
        if base == "dice":
            base_loss, base_grad = dice_loss(logits, y)
        else:
            p = sigmoid(logits)
            base_loss, gp = bce_loss(p, y)
            base_grad = gp * p * (1.0 - p)
        assert loss == base_loss  # bitwise
        np.testing.assert_array_equal(grad, base_grad)


def test_anchored_penalty_zero_at_anchor_equality():
    rng = np.random.Generator(np.random.PCG64(5))
    logits = rng.normal(size=7)
    y = rng.integers(0, 2, 7).astype(float)
    anchors = sigmoid(logits)  # exactly the current predictions
    base_loss, _ = dice_loss(logits, y)
    loss, _ = anchored_loss(logits, y, anchors, 1e6, base="dice")
    assert loss == base_loss  # penalty contributes exactly 0


def test_anchored_penalty_direct_arithmetic():
    # deviation 0.1 per sample, n=3, lambda=1 -> penalty 3 * 0.01 = 0.03
    logits = np.zeros(3)
    y = np.array([1.0, 0.0, 1.0])
    anchors = sigmoid(logits) - 0.1
    base_loss, _ = dice_loss(logits, y)
    loss, _ = anchored_loss(logits, y, anchors, 1.0, base="dice")
    assert loss - base_loss == pytest.approx(0.03, rel=1e-12)


def test_anchored_penalty_is_sum_not_mean():
    rng = np.random.Generator(np.random.PCG64(6))
    y16 = rng.integers(0, 2, 16).astype(float)
    logits16 = np.zeros(16)
    anchors16 = sigmoid(logits16) - 0.1
    base16, _ = dice_loss(logits16, y16)
    loss16, _ = anchored_loss(logits16, y16, anchors16, 1.0, base="dice")
    assert loss16 - base16 == pytest.approx(16 * 0.01, rel=1e-12)


def test_anchored_gradient_matches_fd():
    rng = np.random.Generator(np.random.PCG64(7))
    logits = rng.normal(size=8)
    y = rng.integers(0, 2, 8).astype(float)
    anchors = rng.uniform(0.1, 0.9, 8)
    for base in ("dice", "bce"):
        _, grad = anchored_loss(logits, y, anchors, 0.7, base=base)
        numeric = fd_gradient(
            lambda: anchored_loss(logits, y, anchors, 0.7, base=base)[0], logits
        )
        np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-9)


def test_anchored_validation():
    with pytest.raises(ValueError):
        anchored_loss(np.zeros(2), np.zeros(2), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        anchored_loss(np.zeros(2), np.zeros(2), np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        anchored_loss(np.zeros(2), np.zeros(2), np.zeros(2), 1.0, base="huber")


# ------------------------------------------------------------- dispatcher

def test_apply_loss_bce_chains_sigmoid():
    rng = np.random.Generator(np.random.PCG64(8))
    logits = rng.normal(size=6)
    y = rng.integers(0, 2, 6).astype(float)
    loss, grad = apply_loss(logits, y, LossSpec(kind="bce"))
    p = sigmoid(logits)
    expected_loss, gp = bce_loss(p, y)
    assert loss == expected_loss
    np.testing.assert_allclose(grad, gp * p * (1 - p), rtol=1e-15)
    # classic simplification: dL/dlogit = (p - y)/n for unclamped BCE
    np.testing.assert_allclose(grad, (p - y) / 6.0, rtol=1e-9)


def test_apply_loss_anchored_requires_anchors():
    spec = LossSpec(kind="anchored", lambda_anchor=1.0)
    with pytest.raises(ValueError, match="anchor"):
        apply_loss(np.zeros(3), np.zeros(3), spec)


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(kind="mse")
    with pytest.raises(ValueError):
        LossSpec(kind="anchored", base="mse")
    with pytest.raises(ValueError):
        LossSpec(kind="anchored", lambda_anchor=-0.5)

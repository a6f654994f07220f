import math

import numpy as np
import pytest

from ddosflow.nn.layers import (
    AffineParams,
    AttentionParams,
    BatchNormParams,
    ResidualBlockParams,
    affine_backward,
    affine_forward,
    attention_forward,
    batchnorm_forward,
    relu,
    residual_block_forward,
    sigmoid,
    softmax_rows,
)


def _bn(width, gamma=None, beta=None, **kw):
    return BatchNormParams(
        gamma=np.ones(width) if gamma is None else np.asarray(gamma, float),
        beta=np.zeros(width) if beta is None else np.asarray(beta, float),
        running_mean=np.zeros(width),
        running_var=np.ones(width),
        **kw,
    )


# ------------------------------------------------------------ activations

def test_relu():
    np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_sigmoid_midpoint_and_symmetry():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    x = np.linspace(-20, 20, 101)
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)


def test_sigmoid_overflow_safe():
    with np.errstate(over="raise"):
        out = sigmoid(np.array([-1e4, -750.0, 750.0, 1e4]))
    assert out[0] == 0.0 and out[3] == 1.0
    assert np.isfinite(out).all()


def test_softmax_ln3():
    out = softmax_rows(np.array([[0.0, math.log(3.0)]]))
    np.testing.assert_allclose(out, [[0.25, 0.75]], rtol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.normal(size=(50, 7)) * 30
    out = softmax_rows(x)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert (out > 0).all() and (out <= 1.0).all()
    # strict interior holds wherever float64 can resolve it
    mild = softmax_rows(rng.normal(size=(50, 7)) * 3)
    assert ((mild > 0) & (mild < 1)).all()
    np.testing.assert_allclose(mild.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.normal(size=(10, 4))
    np.testing.assert_allclose(
        softmax_rows(x), softmax_rows(x + 123.4), rtol=1e-12
    )


# ----------------------------------------------------------------- affine

def test_affine_identity():
    p = AffineParams(W=np.eye(3), b=np.zeros(3))
    x = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(affine_forward(p, x), x)


def test_affine_zero_input_gives_bias():
    p = AffineParams(W=np.ones((2, 3)), b=np.array([5.0, -1.0]))
    out = affine_forward(p, np.zeros((4, 3)))
    np.testing.assert_array_equal(out, np.tile([5.0, -1.0], (4, 1)))


def test_affine_direct_arithmetic():
    p = AffineParams(W=np.array([[1.0, 2.0], [3.0, 4.0]]), b=np.array([0.0, 1.0]))
    out = affine_forward(p, np.array([[1.0, 1.0]]))
    np.testing.assert_array_equal(out, [[3.0, 8.0]])


def test_affine_shape_mismatch():
    p = AffineParams(W=np.eye(3), b=np.zeros(3))
    with pytest.raises(ValueError):
        affine_forward(p, np.zeros((2, 4)))


def test_affine_backward_matches_fd():
    rng = np.random.Generator(np.random.PCG64(2))
    p = AffineParams(W=rng.normal(size=(3, 4)), b=rng.normal(size=3))
    x = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 3))  # random cotangent; L = sum(v * out)
    dx, dW, db = affine_backward(p, x, v)
    h = 1e-6

    def loss():
        return float((v * affine_forward(p, x)).sum())

    for arr, grad in ((p.W, dW), (p.b, db), (x, dx)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            assert (up - down) / (2 * h) == pytest.approx(gflat[i], rel=1e-6, abs=1e-8)


# ------------------------------------------------------------- batch norm

def test_bn_centered_pair_unchanged():
    p = _bn(1)
    out, _ = batchnorm_forward(p, np.array([[-1.0], [1.0]]), "train")
    np.testing.assert_allclose(out[:, 0], [-1.0, 1.0], rtol=1e-5)


def test_bn_gamma_zero_gives_beta():
    p = _bn(2, gamma=[0.0, 0.0], beta=[3.0, -2.0])
    rng = np.random.Generator(np.random.PCG64(3))
    out, _ = batchnorm_forward(p, rng.normal(size=(6, 2)), "train")
    np.testing.assert_array_equal(out, np.tile([3.0, -2.0], (6, 1)))


def test_bn_train_output_mean_is_beta():
    rng = np.random.Generator(np.random.PCG64(4))
    p = _bn(3, beta=[1.0, 2.0, 3.0])
    out, _ = batchnorm_forward(p, rng.normal(5.0, 3.0, size=(64, 3)), "train")
    np.testing.assert_allclose(out.mean(axis=0), [1.0, 2.0, 3.0], atol=1e-9)


def test_bn_batch_of_one_rejected_in_train():
    p = _bn(2)
    with pytest.raises(ValueError, match="batch size >= 2"):
        batchnorm_forward(p, np.ones((1, 2)), "train")
    out, _ = batchnorm_forward(p, np.ones((1, 2)), "infer")  # infer is fine
    assert out.shape == (1, 2)


def test_bn_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        batchnorm_forward(_bn(1), np.ones((2, 1)), "predict")


def test_bn_running_stats_momentum_update():
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.normal(2.0, 4.0, size=(32, 2))
    p = _bn(2, momentum=0.9)
    p.running_mean[:] = [10.0, 20.0]
    p.running_var[:] = [4.0, 9.0]
    batchnorm_forward(p, x, "train")
    np.testing.assert_allclose(
        p.running_mean, 0.9 * np.array([10.0, 20.0]) + 0.1 * x.mean(axis=0), rtol=1e-12
    )
    np.testing.assert_allclose(
        p.running_var, 0.9 * np.array([4.0, 9.0]) + 0.1 * x.var(axis=0), rtol=1e-12
    )


def test_bn_infer_uses_running_stats():
    p = _bn(2, gamma=[2.0, 1.0], beta=[0.5, 0.0])
    p.running_mean[:] = [1.0, -1.0]
    p.running_var[:] = [4.0, 0.25]
    x = np.array([[3.0, 0.0]])
    out, _ = batchnorm_forward(p, x, "infer")
    # straight-line oracle
    expected = np.array([2.0, 1.0]) * (x[0] - [1.0, -1.0]) / np.sqrt(
        np.array([4.0, 0.25]) + 1e-5
    ) + [0.5, 0.0]
    np.testing.assert_allclose(out[0], expected, rtol=1e-12)
    np.testing.assert_array_equal(p.running_mean, [1.0, -1.0])  # untouched


# -------------------------------------------------------------- attention

def test_attention_zero_everything():
    p = AttentionParams(W_a=np.zeros((2, 2)), b_a=np.zeros(2))
    out, cache = attention_forward(p, np.zeros((1, 2)))
    np.testing.assert_array_equal(cache["A"], [[0.5, 0.5]])
    np.testing.assert_array_equal(out, [[0.0, 0.0]])


def test_attention_uniform_weights_halve_ones():
    p = AttentionParams(W_a=np.zeros((2, 2)), b_a=np.zeros(2))
    out, _ = attention_forward(p, np.array([[1.0, 1.0]]))
    np.testing.assert_array_equal(out, [[0.5, 0.5]])


def test_attention_ln3_hand_evaluation():
    z = np.array([[0.0, math.log(3.0)]])
    p = AttentionParams(W_a=np.eye(2), b_a=np.zeros(2))
    out, cache = attention_forward(p, z)
    np.testing.assert_allclose(cache["A"], [[0.25, 0.75]], rtol=1e-15)
    np.testing.assert_allclose(out, [[0.0, 0.75 * math.log(3.0)]], rtol=1e-15)
    assert out[0, 1] == pytest.approx(0.823959, abs=1e-6)


def test_attention_never_amplifies():
    rng = np.random.Generator(np.random.PCG64(7))
    p = AttentionParams(W_a=rng.normal(size=(5, 5)), b_a=rng.normal(size=5))
    Z = rng.normal(size=(40, 5)) * 3
    out, _ = attention_forward(p, Z)
    assert (np.abs(out) <= np.abs(Z)).all()


def test_attention_shape_check():
    p = AttentionParams(W_a=np.zeros((3, 3)), b_a=np.zeros(3))
    with pytest.raises(ValueError, match="square"):
        attention_forward(p, np.zeros((2, 4)))


# --------------------------------------------------------- residual block

def _random_block(rng, n_in, n_out):
    proj = None
    if n_in != n_out:
        proj = AffineParams(W=rng.normal(size=(n_out, n_in)), b=rng.normal(size=n_out))
    return ResidualBlockParams(
        affine1=AffineParams(W=rng.normal(size=(n_out, n_in)), b=rng.normal(size=n_out)),
        bn1=_bn(n_out),
        affine2=AffineParams(W=rng.normal(size=(n_out, n_out)), b=rng.normal(size=n_out)),
        bn2=_bn(n_out),
        projection=proj,
    )


def test_block_zero_residual_path_is_relu_of_input():
    width = 3
    p = ResidualBlockParams(
        affine1=AffineParams(W=np.zeros((width, width)), b=np.zeros(width)),
        bn1=_bn(width),
        affine2=AffineParams(W=np.zeros((width, width)), b=np.zeros(width)),
        bn2=_bn(width),
    )
    x = np.array([[-1.0, 0.5, 2.0], [3.0, -4.0, 0.0]])
    out, _ = residual_block_forward(p, x, "train")
    np.testing.assert_array_equal(out, relu(x))


def test_block_projection_changes_width():
    rng = np.random.Generator(np.random.PCG64(8))
    p = _random_block(rng, 4, 6)
    out, _ = residual_block_forward(p, rng.normal(size=(5, 4)), "train")
    assert out.shape == (5, 6)


def straight_line_block(p, x, mode):
    """Independent re-evaluation of the block formula, no shared helpers."""
    def bn(q, v):
        if mode == "train":
            m = v.mean(axis=0)
            var = ((v - m) ** 2).mean(axis=0)
        else:
            m, var = q.running_mean, q.running_var
        return q.gamma * (v - m) / np.sqrt(var + q.eps_bn) + q.beta

    a1 = x @ p.affine1.W.T + p.affine1.b
    r1 = np.maximum(bn(p.bn1, a1), 0.0)
    a2 = r1 @ p.affine2.W.T + p.affine2.b
    n2 = bn(p.bn2, a2)
    short = x if p.projection is None else x @ p.projection.W.T + p.projection.b
    return np.maximum(n2 + short, 0.0)


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("widths", [(4, 4), (3, 5)])
def test_block_matches_straight_line_oracle(mode, widths):
    rng = np.random.Generator(np.random.PCG64(9))
    n_in, n_out = widths
    p = _random_block(rng, n_in, n_out)
    p.bn1.running_mean[:] = rng.normal(size=n_out)
    p.bn1.running_var[:] = rng.random(n_out) + 0.5
    p.bn2.running_mean[:] = rng.normal(size=n_out)
    p.bn2.running_var[:] = rng.random(n_out) + 0.5
    x = rng.normal(size=(7, n_in))
    out, _ = residual_block_forward(p, x, mode)
    np.testing.assert_allclose(out, straight_line_block(p, x, mode), rtol=1e-12)

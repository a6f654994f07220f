"""Model assembly and end-to-end gradient verification.

The central-difference checks here are the backbone of the numeric
engine's correctness story: every architectural variant (projection
shortcuts, train-mode batch statistics) gets its analytic backward pass
compared against finite differences.
"""

import numpy as np
import pytest

from ddosflow.nn import (
    ArchitectureConfig,
    LossSpec,
    gradient_check,
    init_model,
    model_forward,
    model_loss,
    named_parameters,
)
from ddosflow.nn.model import named_state


def small_arch(**kw):
    base = dict(input_width=8, block_widths=(8, 8), init_seed=0)
    base.update(kw)
    return ArchitectureConfig(**base)


def batch(seed, n=6, d=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, n).astype(np.int64)
    y[0] = 1 - y[0] if y.min() == y.max() else y[0]
    return X, y


# ------------------------------------------------------------- structure

def test_named_parameters_order_and_coverage():
    model = init_model(5, ArchitectureConfig(input_width=4, block_widths=(4, 6)))
    names = [n for n, _ in named_parameters(model)]
    assert names == [
        "input_affine.W",
        "input_affine.b",
        "blocks.0.affine1.W",
        "blocks.0.affine1.b",
        "blocks.0.bn1.gamma",
        "blocks.0.bn1.beta",
        "blocks.0.affine2.W",
        "blocks.0.affine2.b",
        "blocks.0.bn2.gamma",
        "blocks.0.bn2.beta",
        "blocks.1.affine1.W",
        "blocks.1.affine1.b",
        "blocks.1.bn1.gamma",
        "blocks.1.bn1.beta",
        "blocks.1.affine2.W",
        "blocks.1.affine2.b",
        "blocks.1.bn2.gamma",
        "blocks.1.bn2.beta",
        "blocks.1.projection.W",
        "blocks.1.projection.b",
        "attention.W_a",
        "attention.b_a",
        "output_affine.W",
        "output_affine.b",
    ]
    state_names = [n for n, _ in named_state(model)]
    assert state_names == [
        "blocks.0.bn1.running_mean",
        "blocks.0.bn1.running_var",
        "blocks.0.bn2.running_mean",
        "blocks.0.bn2.running_var",
        "blocks.1.bn1.running_mean",
        "blocks.1.bn1.running_var",
        "blocks.1.bn2.running_mean",
        "blocks.1.bn2.running_var",
    ]


def test_projection_present_iff_widths_differ():
    same = init_model(3, ArchitectureConfig(input_width=4, block_widths=(4, 4)))
    assert all(b.projection is None for b in same.blocks)
    diff = init_model(3, ArchitectureConfig(input_width=4, block_widths=(6, 4)))
    assert diff.blocks[0].projection is not None
    assert diff.blocks[1].projection is not None


def test_default_has_single_attention_after_last_block():
    model = init_model(3, ArchitectureConfig(input_width=4, block_widths=(4, 4, 5)))
    assert not any(hasattr(b, "attention") for b in model.blocks)
    assert model.attention.W_a.shape == (5, 5) and model.attention.b_a.shape == (5,)
    names = [n for n, _ in named_parameters(model)]
    assert [n for n in names if "attention" in n] == ["attention.W_a", "attention.b_a"]


def test_init_he_uniform_bounds_and_determinism():
    arch = small_arch(init_seed=42)
    model = init_model(5, arch)
    for name, tensor in named_parameters(model):
        if name.endswith((".W", ".W_a")):
            limit = np.sqrt(6.0 / tensor.shape[1])
            assert np.abs(tensor).max() <= limit
            assert np.abs(tensor).max() > 0
        elif name.endswith((".b", ".b_a", ".beta")):
            assert (tensor == 0.0).all()
        elif name.endswith(".gamma"):
            assert (tensor == 1.0).all()
    again = init_model(5, arch)
    for (_, a), (_, b) in zip(named_parameters(model), named_parameters(again)):
        np.testing.assert_array_equal(a, b)
    other = init_model(5, small_arch(init_seed=43))
    assert not np.array_equal(model.input_affine.W, other.input_affine.W)


def test_forward_deterministic_and_width_checked():
    model = init_model(5, small_arch())
    X, _ = batch(1)
    l1, _ = model_forward(model, X)
    l2, _ = model_forward(model, X)
    np.testing.assert_array_equal(l1, l2)
    assert l1.shape == (6,)
    with pytest.raises(ValueError, match="width"):
        model_forward(model, np.zeros((2, 9)))


def test_infer_rows_independent():
    model = init_model(4, small_arch(init_seed=3))
    rng = np.random.Generator(np.random.PCG64(2))
    X = rng.standard_normal((5, 4))
    full, _ = model_forward(model, X, mode="infer")
    singles = np.concatenate(
        [model_forward(model, X[i : i + 1], mode="infer")[0] for i in range(5)]
    )
    np.testing.assert_allclose(full, singles, rtol=1e-12, atol=1e-14)


def test_backward_requires_cache():
    from ddosflow.nn import model_backward

    model = init_model(4, small_arch())
    with pytest.raises(ValueError, match="cache"):
        model_backward(model, None, np.zeros(3))


def test_architecture_validation():
    with pytest.raises(ValueError):
        ArchitectureConfig(input_width=0)
    with pytest.raises(ValueError):
        ArchitectureConfig(block_widths=())
    with pytest.raises(ValueError):
        ArchitectureConfig(block_widths=(4, 0))


# ------------------------------------------------------- gradient checks

@pytest.mark.parametrize("kind", ["bce", "dice", "anchored"])
def test_gradcheck_standard_model(kind):
    model = init_model(5, small_arch(init_seed=11))
    X, y = batch(7)
    rng = np.random.Generator(np.random.PCG64(8))
    anchors = rng.uniform(0.1, 0.9, X.shape[0]) if kind == "anchored" else None
    spec = (
        LossSpec(kind="anchored", base="dice", lambda_anchor=0.8)
        if kind == "anchored"
        else LossSpec(kind=kind)
    )
    report = gradient_check(model, X, y, spec, anchors=anchors)
    assert report.passed, report.format()
    assert report.max_rel_error < 1e-4
    assert set(report.per_tensor) == {n for n, _ in named_parameters(model)}


def test_gradcheck_projection_shortcuts():
    # seeds chosen so no pre-activation sits within ~0.1 of a relu kink
    # and no gradient entry is near 1e-10, where the difference's roundoff
    # dominates; central differences are meaningless in either case
    arch = ArchitectureConfig(input_width=6, block_widths=(4, 7), init_seed=35)
    model = init_model(5, arch)
    names = {n for n, _ in named_parameters(model)}
    assert "blocks.0.projection.W" in names and "blocks.1.projection.W" in names
    X, y = batch(22)
    report = gradient_check(model, X, y, LossSpec(kind="dice"))
    assert report.passed, report.format()


def test_gradcheck_anchored_bce_base():
    model = init_model(4, small_arch(init_seed=23, block_widths=(6,)))
    X, y = batch(25, n=5, d=4)
    rng = np.random.Generator(np.random.PCG64(26))
    anchors = rng.uniform(0.2, 0.8, 5)
    spec = LossSpec(kind="anchored", base="bce", lambda_anchor=2.0)
    report = gradient_check(model, X, y, spec, anchors=anchors)
    assert report.passed, report.format()


def test_train_mode_batchnorm_gradients_match_fd():
    """FD through the *train-mode* graph: batch statistics recomputed per
    perturbation. Each evaluation also folds its batch statistics into the
    running statistics, which train mode never reads, so they agree.

    In train mode the biases of the affine layers feeding a batch norm
    are mathematically inert (a constant row shift is removed with the
    batch mean), so their gradients are pure roundoff; they get an
    absolute dead-parameter check instead of a relative one.
    """
    model = init_model(4, small_arch(init_seed=31, block_widths=(5, 5), input_width=5))
    X, y = batch(33, n=8, d=4)
    spec = LossSpec(kind="bce")

    _, grads = model_loss(model, X, y, spec, mode="train")

    def loss_value():
        value, _ = model_loss(model, X, y, spec, mode="train", want_grads=False)
        return value

    dead = {f"blocks.{i}.{a}.b" for i in range(2) for a in ("affine1", "affine2")}
    h = 1e-5
    worst = 0.0
    for name, tensor in named_parameters(model):
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            if name in dead:
                assert abs(gflat[i]) < 1e-12 and abs(numeric) < 1e-8, name
                continue
            rel = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4


def test_gradcheck_failure_path():
    model = init_model(5, small_arch(init_seed=11))
    X, y = batch(7)
    report = gradient_check(model, X, y, LossSpec(kind="bce"), tol=1e-16)
    assert not report.passed
    assert "[FAIL]" in report.format()


def test_gradcheck_report_format_lists_each_tensor_once():
    model = init_model(4, small_arch(init_seed=1, block_widths=(6,), input_width=6))
    X, y = batch(2, d=4)
    report = gradient_check(model, X, y, LossSpec(kind="dice"))
    text = report.format()
    for name, _ in named_parameters(model):
        assert text.count(f"  {name} ") == 1
    assert "[PASS]" in text


def test_gradients_finite_for_finite_inputs():
    model = init_model(6, small_arch(init_seed=5))
    rng = np.random.Generator(np.random.PCG64(6))
    X = rng.standard_normal((10, 6)) * 50  # large but finite
    y = rng.integers(0, 2, 10).astype(np.int64)
    for spec in (LossSpec(kind="bce"), LossSpec(kind="dice")):
        loss, grads = model_loss(model, X, y, spec, mode="train")
        assert np.isfinite(loss)
        for g in grads.values():
            assert np.isfinite(g).all()


def test_zero_output_layer_bce_bias_gradient():
    # with W_out = 0 the logit is 0 -> p = 0.5; on a balanced batch the
    # output-bias gradient mean(p - y) vanishes
    model = init_model(4, small_arch(init_seed=9, input_width=4, block_widths=(4,)))
    model.output_affine.W[...] = 0.0
    model.output_affine.b[...] = 0.0
    X = np.random.Generator(np.random.PCG64(10)).standard_normal((6, 4))
    y = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    _, grads = model_loss(model, X, y, LossSpec(kind="bce"), mode="infer")
    assert grads["output_affine.b"][0] == pytest.approx(0.0, abs=1e-15)

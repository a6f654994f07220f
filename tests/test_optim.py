"""Adagrad: accumulator bookkeeping and the update recurrence."""

import numpy as np
import pytest

from ddosflow.nn import (
    ArchitectureConfig,
    LossSpec,
    Workspace,
    adagrad_step,
    init_model,
    init_optimizer,
    model_loss,
    named_parameters,
)


def scalar_adagrad(grads, eta, eps):
    """Straight-line scalar re-derivation of the recurrence."""
    G, w, path = 0.0, 0.0, []
    for g in grads:
        G += g * g
        w -= eta * g / np.sqrt(G + eps)
        path.append(w)
    return path


def tiny_model(seed=0):
    return init_model(3, ArchitectureConfig(input_width=4, block_widths=(4,), init_seed=seed))


def grads_like(params, fill):
    return {name: np.full_like(t, fill) for name, t in params.items()}


def test_two_step_recurrence_matches_hand_values():
    # g = 2 twice with eta = 0.1: first step G=4, w = -0.1*2/sqrt(4) = -0.1;
    # second step G=8, delta = -0.1*2/sqrt(8) = -0.070711
    model = tiny_model()
    params = dict(named_parameters(model))
    w = params["output_affine.b"]
    w[...] = 0.0
    opt = init_optimizer(model, eta=0.1, eps_opt=0.0)
    # g = 2 in every tensor, so eps = 0 cannot hit 0/sqrt(0)
    g = grads_like(params, 2.0)

    adagrad_step(opt, params, g)
    assert opt.accum["output_affine.b"][0] == 4.0
    assert w[0] == pytest.approx(-0.1, rel=1e-12)
    first = w[0]

    adagrad_step(opt, params, g)
    assert opt.accum["output_affine.b"][0] == 8.0
    assert w[0] - first == pytest.approx(-0.1 * 2.0 / np.sqrt(8.0), rel=1e-12)
    assert w[0] - first == pytest.approx(-0.07071067811865475, rel=1e-9)


def test_matches_scalar_oracle_over_random_sequence():
    rng = np.random.Generator(np.random.PCG64(5))
    seq = rng.standard_normal(40)
    model = tiny_model()
    params = dict(named_parameters(model))
    w = params["output_affine.b"]
    w[...] = 0.0
    opt = init_optimizer(model, eta=0.01, eps_opt=1e-10)
    g = grads_like(params, 0.0)
    expected = scalar_adagrad(seq, 0.01, 1e-10)
    for gval, want in zip(seq, expected):
        g["output_affine.b"] = np.full_like(w, gval)
        adagrad_step(opt, params, g)
        assert w[0] == pytest.approx(want, rel=1e-13)


def test_zero_gradient_is_noop():
    model = tiny_model(seed=7)
    params = dict(named_parameters(model))
    before = {n: t.copy() for n, t in params.items()}
    opt = init_optimizer(model, eta=0.5, eps_opt=1e-10)
    adagrad_step(opt, params, grads_like(params, 0.0))
    for name, t in params.items():
        np.testing.assert_array_equal(t, before[name])
    for acc in opt.accum.values():
        assert (acc == 0.0).all()


def test_accumulator_never_decreases():
    rng = np.random.Generator(np.random.PCG64(9))
    model = tiny_model(seed=2)
    params = dict(named_parameters(model))
    opt = init_optimizer(model, eta=0.01, eps_opt=1e-10)
    prev = {n: a.copy() for n, a in opt.accum.items()}
    for _ in range(10):
        g = {n: rng.standard_normal(t.shape) for n, t in params.items()}
        adagrad_step(opt, params, g)
        for name, acc in opt.accum.items():
            assert (acc >= prev[name]).all()
            prev[name] = acc.copy()


def test_updates_mutate_live_arrays_in_place():
    model = tiny_model(seed=4)
    handle = model.blocks[0].affine1.W  # alias taken before stepping
    params = dict(named_parameters(model))
    opt = init_optimizer(model, eta=0.1, eps_opt=1e-10)
    adagrad_step(opt, params, grads_like(params, 1.0))
    assert handle is model.blocks[0].affine1.W
    assert params["blocks.0.affine1.W"] is handle
    assert not (opt.accum["blocks.0.affine1.W"] == 0.0).all()


def test_step_scale_shrinks_with_history():
    # |delta_k| = eta*|g|/sqrt(k g^2 + eps) is strictly decreasing for
    # constant gradients
    model = tiny_model()
    params = dict(named_parameters(model))
    w = params["output_affine.b"]
    w[...] = 0.0
    opt = init_optimizer(model, eta=0.1, eps_opt=1e-10)
    g = grads_like(params, 0.0)
    g["output_affine.b"] = np.full_like(w, 3.0)
    last, prev_delta = 0.0, np.inf
    for _ in range(6):
        adagrad_step(opt, params, g)
        delta = abs(w[0] - last)
        assert delta < prev_delta
        prev_delta, last = delta, w[0]


def test_outside_gradients_leave_the_workspace_arena_alone():
    """Gradients that are not the workspace's own are read from a
    concatenated copy: the arena that the backward pass wrote keeps its
    values, and the step has the bits of the same call without a workspace."""
    rng = np.random.Generator(np.random.PCG64(11))
    X, y = rng.standard_normal((16, 3)), rng.integers(0, 2, 16).astype(float)
    model, twin = tiny_model(seed=5), tiny_model(seed=5)
    ws = Workspace()
    _, grads = model_loss(model, X, y, LossSpec(kind="bce"), ws=ws)
    arena = ws.arena.copy()
    outside = {name: 2.0 * g for name, g in grads.items()}
    params, twin_params = dict(named_parameters(model)), dict(named_parameters(twin))
    opt, twin_opt = init_optimizer(model, eta=0.1), init_optimizer(twin, eta=0.1)
    adagrad_step(opt, params, outside, ws)
    adagrad_step(twin_opt, twin_params, outside)
    assert ws.arena.tobytes() == arena.tobytes()
    assert opt.G.tobytes() == twin_opt.G.tobytes()
    for name, w in params.items():
        assert w.tobytes() == twin_params[name].tobytes(), name


def test_gradient_shape_mismatch_rejected():
    model = tiny_model()
    params = dict(named_parameters(model))
    opt = init_optimizer(model, eta=0.1, eps_opt=1e-10)
    g = grads_like(params, 1.0)
    g["output_affine.W"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="gradient shape mismatch"):
        adagrad_step(opt, params, g)


def test_missing_gradient_rejected():
    model = tiny_model()
    params = dict(named_parameters(model))
    opt = init_optimizer(model, eta=0.1, eps_opt=1e-10)
    g = grads_like(params, 1.0)
    del g["output_affine.W"]
    with pytest.raises(KeyError):
        adagrad_step(opt, params, g)


@pytest.mark.parametrize("edit", ["drop", "add"])
def test_params_must_name_exactly_the_optimizers_tensors(edit):
    model = tiny_model()
    params = dict(named_parameters(model))
    opt = init_optimizer(model, eta=0.1, eps_opt=1e-10)
    g = grads_like(params, 1.0)
    if edit == "drop":
        del params["output_affine.W"]
    else:
        params["extra"] = g["extra"] = np.zeros(3)
    with pytest.raises(KeyError, match="'extra'" if edit == "add" else "'output_affine.W'"):
        adagrad_step(opt, params, g)
    assert (opt.G == 0.0).all()


def test_optimizer_covers_every_parameter():
    model = init_model(
        5, ArchitectureConfig(input_width=4, block_widths=(4, 6), init_seed=3)
    )
    opt = init_optimizer(model, eta=0.01, eps_opt=1e-10)
    params = dict(named_parameters(model))
    assert set(opt.accum) == set(params)
    for name, t in params.items():
        assert opt.accum[name].shape == t.shape
        assert (opt.accum[name] == 0.0).all()


def test_hyperparameter_validation():
    model = tiny_model()
    with pytest.raises(ValueError):
        init_optimizer(model, eta=0.0, eps_opt=1e-10)
    with pytest.raises(ValueError):
        init_optimizer(model, eta=0.1, eps_opt=-1.0)

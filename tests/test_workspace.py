"""Workspace buffers: the network passes that write into them compute the
same bits as the allocating code they replaced, a shared workspace never
hands out a buffer that is still in use, and a caller without one owns
what it gets back."""

import tracemalloc

import numpy as np
import pytest

from ddosflow.nn import (
    ArchitectureConfig,
    AttentionParams,
    LossSpec,
    Workspace,
    adagrad_step,
    affine_backward,
    affine_forward,
    attention_backward,
    attention_forward,
    batchnorm_backward,
    batchnorm_forward,
    init_model,
    init_optimizer,
    model_backward,
    model_forward,
    model_loss,
    named_parameters,
    relu_backward,
)
from ddosflow.nn import model as model_module
from ddosflow.trainer import predict_proba


# ----------------------------------------- the allocating code, as reference

def ref_batchnorm_forward(p, x, mode):
    if mode == "train":
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        inv = 1.0 / np.sqrt(var + p.eps_bn)
        xhat = (x - mean) * inv
        p.running_mean *= p.momentum
        p.running_mean += (1.0 - p.momentum) * mean
        p.running_var *= p.momentum
        p.running_var += (1.0 - p.momentum) * var
    else:
        inv = 1.0 / np.sqrt(p.running_var + p.eps_bn)
        xhat = (x - p.running_mean) * inv
    return p.gamma * xhat + p.beta, {"mode": mode, "xhat": xhat, "inv": inv}


def ref_batchnorm_backward(p, cache, dout):
    xhat, inv = cache["xhat"], cache["inv"]
    dbeta = dout.sum(axis=0)
    dgamma = (dout * xhat).sum(axis=0)
    if cache["mode"] == "train":
        m = dout.shape[0]
        dxhat = dout * p.gamma
        dx = (inv / m) * (
            m * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
        )
    else:
        dx = dout * p.gamma * inv
    return dx, dgamma, dbeta


def ref_attention_forward(p, Z):
    scores = Z @ p.W_a.T + p.b_a
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    A = e / e.sum(axis=1, keepdims=True)
    return A * Z, {"A": A, "Z": Z}


def ref_attention_backward(p, cache, dout):
    A, Z = cache["A"], cache["Z"]
    dA = dout * Z
    dS = A * (dA - (dA * A).sum(axis=1, keepdims=True))
    return dout * A + dS @ p.W_a, dS.T @ Z, dS.sum(axis=0)


def ref_adagrad_step(state, params, grads):
    for name, w in params.items():
        g = grads[name]
        G = state.accum[name]
        G += g * g
        w -= state.eta * g / np.sqrt(G + state.eps_opt)


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def rows(rng, m, w, scale=3.0):
    return rng.standard_normal((m, w)) * scale + rng.standard_normal(w)


# --------------------------------------------------- layers, bit for bit

@pytest.mark.parametrize("mode", ["train", "infer"])
def test_batchnorm_matches_allocating_reference(mode):
    rng = np.random.Generator(np.random.PCG64(3))
    model = init_model(5, ArchitectureConfig(input_width=16, block_widths=(16,)))
    bn = model.blocks[0].bn1
    bn.gamma[:] = rng.uniform(0.5, 2.0, 16)
    bn.beta[:] = rng.standard_normal(16)
    ref = init_model(5, ArchitectureConfig(input_width=16, block_widths=(16,))).blocks[0].bn1
    for name in ("gamma", "beta", "running_mean", "running_var"):
        getattr(ref, name)[:] = getattr(bn, name)
    ws = Workspace()
    for m in (64, 37, 64, 2):  # a shorter batch reuses the first rows
        x, dout = rows(rng, m, 16), rows(rng, m, 16)
        out, cache = batchnorm_forward(bn, x, mode, ws=ws)
        ref_out, ref_cache = ref_batchnorm_forward(ref, x, mode)
        assert_same_bits([out, cache["xhat"], cache["inv"]],
                         [ref_out, ref_cache["xhat"], ref_cache["inv"]])
        assert_same_bits([bn.running_mean, bn.running_var], [ref.running_mean, ref.running_var])
        assert_same_bits(batchnorm_backward(bn, cache, dout, ws),
                         ref_batchnorm_backward(ref, ref_cache, dout))


def test_attention_affine_and_relu_match_allocating_reference():
    rng = np.random.Generator(np.random.PCG64(4))
    p = AttentionParams(W_a=rng.standard_normal((12, 12)), b_a=rng.standard_normal(12))
    affine = init_model(12, ArchitectureConfig(input_width=9, block_widths=(9,))).input_affine
    ws = Workspace()
    for m in (50, 13, 50):
        Z, dout = rows(rng, m, 12), rows(rng, m, 12)
        out, cache = attention_forward(p, Z, ws)
        ref_out, ref_cache = ref_attention_forward(p, Z)
        assert_same_bits([out, cache["A"]], [ref_out, ref_cache["A"]])
        assert_same_bits(attention_backward(p, cache, dout, ws),
                         ref_attention_backward(p, ref_cache, dout))
        h, dh = affine_forward(affine, Z, ws), rows(rng, m, 9)
        assert_same_bits([h], [Z @ affine.W.T + affine.b])
        assert_same_bits(affine_backward(affine, Z, dh, ws),
                         [dh @ affine.W, dh.T @ Z, dh.sum(axis=0)])
        pre = h.copy()
        pre[0, :] = 0.0  # relu's subgradient at exactly 0
        assert_same_bits([relu_backward(pre, dh, out=ws.get("test", "relu", m, 9))],
                         [dh * (pre > 0)])


def test_adagrad_matches_allocating_reference():
    model = init_model(4, ArchitectureConfig(input_width=6, block_widths=(6, 5)))
    twin = init_model(4, ArchitectureConfig(input_width=6, block_widths=(6, 5)))
    opt, ref_opt = init_optimizer(model, eta=0.05), init_optimizer(twin, eta=0.05)
    params, ref_params = dict(named_parameters(model)), dict(named_parameters(twin))
    rng = np.random.Generator(np.random.PCG64(5))
    ws = Workspace()
    for _ in range(3):
        grads = {name: rng.standard_normal(w.shape) for name, w in params.items()}
        adagrad_step(opt, params, grads, ws)
        ref_adagrad_step(ref_opt, ref_params, grads)
        assert_same_bits(list(params.values()), list(ref_params.values()))
        assert_same_bits(list(opt.accum.values()), list(ref_opt.accum.values()))


# ------------------------------------------------ one workspace, many passes

WIRINGS = [
    ArchitectureConfig(input_width=8, block_widths=(8, 8)),
    ArchitectureConfig(input_width=8, block_widths=(8, 6), attention_after_each=True),
]


@pytest.mark.parametrize("arch", WIRINGS, ids=["identity", "projection-attention-each"])
def test_shared_workspace_trains_like_fresh_workspaces(arch):
    """Steps, a shorter last batch and scoring passes through one workspace
    give the bits of the same calls each with a fresh workspace."""
    rng = np.random.Generator(np.random.PCG64(6))
    shared, fresh = init_model(5, arch), init_model(5, arch)
    opts = init_optimizer(shared), init_optimizer(fresh)
    params = dict(named_parameters(shared)), dict(named_parameters(fresh))
    spec = LossSpec(kind="anchored", base="dice", lambda_anchor=0.5)
    ws = Workspace()
    score_rows = rows(rng, 300, 5)
    for m in (32, 32, 17, 32):
        X, y, anchors = rows(rng, m, 5), rng.integers(0, 2, m), rng.uniform(size=m)
        loss_a, grads_a = model_loss(shared, X, y, spec, anchors=anchors, ws=ws)
        loss_b, grads_b = model_loss(fresh, X, y, spec, anchors=anchors)
        assert loss_a == loss_b
        assert list(grads_a) == list(grads_b)
        assert_same_bits(list(grads_a.values()), list(grads_b.values()))
        adagrad_step(opts[0], params[0], grads_a, ws)
        adagrad_step(opts[1], params[1], grads_b)
        assert_same_bits(list(params[0].values()), list(params[1].values()))
        proba_a = predict_proba(shared, score_rows, chunk_size=64, ws=ws)
        assert_same_bits([proba_a], [predict_proba(fresh, score_rows, chunk_size=64)])


def test_gradients_without_a_workspace_belong_to_the_caller():
    model = init_model(5, WIRINGS[1])
    rng = np.random.Generator(np.random.PCG64(7))
    X, y = rows(rng, 12, 5), rng.integers(0, 2, 12)
    spec = LossSpec(kind="bce")
    _, first = model_loss(model, X, y, spec, mode="infer")
    kept = {name: g.copy() for name, g in first.items()}
    _, second = model_loss(model, -X, y, spec, mode="infer")
    for name, g in first.items():
        assert not np.shares_memory(g, second[name]), name
        np.testing.assert_array_equal(g, kept[name])
    assert any(not np.array_equal(first[n], second[n]) for n in first)


def test_backward_names_the_gradients_once_per_model(monkeypatch):
    model = init_model(5, WIRINGS[1])
    X = rows(np.random.Generator(np.random.PCG64(8)), 10, 5)
    walks = []
    walk = model_module.named_parameters
    monkeypatch.setattr(
        model_module, "named_parameters", lambda m: walks.append(m) or walk(m)
    )
    ws = Workspace()
    for _ in range(3):
        logits, cache = model_forward(model, X, mode="train", want_cache=True, ws=ws)
        grads = model_backward(model, cache, np.ones_like(logits), ws)
    assert len(walks) == 1
    assert list(grads) == [name for name, _ in walk(model)]


# ------------------------------------------------------ steady-state memory

def peak_rise(fn):
    """Most memory the traced call holds at once beyond what it started with."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_steady_state_step_and_scoring_chunk_allocate_no_activations():
    """Once the workspace holds its buffers, neither a training step nor a
    scoring chunk allocates an activation-sized array: what remains is the
    loss's and the sigmoid's per-row vectors and NumPy's 64 KiB iterator
    buffer for a broadcast operation. The allocating passes held dozens of
    activations at once."""
    m, width = 512, 64
    model = init_model(8, ArchitectureConfig(input_width=width, block_widths=(width,) * 3))
    rng = np.random.Generator(np.random.PCG64(9))
    X, y, anchors = rows(rng, m, 8), rng.integers(0, 2, m).astype(float), rng.uniform(size=m)
    spec = LossSpec(kind="anchored", base="dice", lambda_anchor=0.1)
    opt, params, ws = init_optimizer(model), dict(named_parameters(model)), Workspace()

    def step():
        _, grads = model_loss(model, X, y, spec, anchors=anchors, ws=ws)
        adagrad_step(opt, params, grads, ws)

    def score():
        predict_proba(model, X, chunk_size=m, ws=ws)

    activation = m * width * 8
    for fn in (step, score):
        fn()
        assert peak_rise(fn) < activation / 2

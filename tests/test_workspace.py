"""Workspace buffers: the network passes that write into them compute the
same bits as the allocating code they replaced, a shared workspace never
hands out a buffer that is still in use, and a caller without one owns
what it gets back."""

import tracemalloc
import weakref

import numpy as np
import pytest

from ddosflow.nn import (
    ArchitectureConfig,
    LossSpec,
    Workspace,
    adagrad_step,
    init_model,
    init_optimizer,
    model_backward,
    model_forward,
    model_loss,
    named_parameters,
)
from ddosflow.nn.layers import (
    BN_EPS,
    BN_MOMENTUM,
    AttentionParams,
    affine_backward,
    affine_forward,
    attention_backward,
    attention_forward,
    batchnorm_backward,
    batchnorm_forward,
    relu_backward,
    residual_block_backward,
)
from ddosflow.flow_data import FlowDataset
from ddosflow.nn import model as model_module
from ddosflow.nn.model import named_state
from ddosflow.nn.optim import ADAGRAD_EPS
from ddosflow import trainer
from ddosflow.trainer import TrainConfig, predict_proba, run_dual_phase


# ----------------------------------------- the allocating code, as reference

def ref_batchnorm_forward(p, x, mode):
    if mode == "train":
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mean) * inv
        p.running_mean *= BN_MOMENTUM
        p.running_mean += (1.0 - BN_MOMENTUM) * mean
        p.running_var *= BN_MOMENTUM
        p.running_var += (1.0 - BN_MOMENTUM) * var
    else:
        inv = 1.0 / np.sqrt(p.running_var + BN_EPS)
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
        w -= state.eta * g / np.sqrt(G + ADAGRAD_EPS)


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
    ArchitectureConfig(input_width=8, block_widths=(8, 6)),
]
WIRING_IDS = ["identity", "projection"]


@pytest.mark.parametrize("arch", WIRINGS, ids=WIRING_IDS)
def test_shared_workspace_trains_like_fresh_workspaces(arch, monkeypatch):
    """Steps, a shorter last batch and scoring passes through one workspace
    give the bits of the same calls each with a fresh workspace."""
    rng = np.random.Generator(np.random.PCG64(6))
    shared, fresh = init_model(5, arch), init_model(5, arch)
    opts = init_optimizer(shared), init_optimizer(fresh)
    params = dict(named_parameters(shared)), dict(named_parameters(fresh))
    spec = LossSpec(kind="anchored", base="dice", lambda_anchor=0.5)
    ws = Workspace()
    score_rows = rows(rng, 300, 5)
    monkeypatch.setattr(trainer, "SCORE_CHUNK", 64)
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
        proba_a = predict_proba(shared, score_rows, ws=ws)
        assert_same_bits([proba_a], [predict_proba(fresh, score_rows)])


@pytest.mark.parametrize("mode", ["infer", "train"])
@pytest.mark.parametrize("arch", WIRINGS, ids=WIRING_IDS)
def test_uncached_pass_gives_the_cached_logits(arch, mode, monkeypatch):
    """The pass without a cache runs the layers on three rotating buffers;
    its logits (and, in train mode, running statistics) are those of the
    pass that keeps every activation, through a shared workspace too, on
    full chunks and on a leftover chunk of between 1 and 2 chunks' rows."""
    rng = np.random.Generator(np.random.PCG64(10))
    rotating, keeping = init_model(5, arch), init_model(5, arch)
    for (_, a), (_, b) in zip(named_state(rotating), named_state(keeping)):
        a[:] = b[:] = rng.uniform(0.5, 2.0, a.shape)
    ws = Workspace()
    X = rows(rng, 3 * 64 + 37, 5)
    for start, stop in ((0, 64), (64, 128), (128, X.shape[0]), (0, 64)):
        got, cache = model_forward(rotating, X[start:stop], mode=mode, ws=ws)
        want, _ = model_forward(keeping, X[start:stop], mode=mode, want_cache=True)
        assert cache is None
        assert_same_bits([got], [want])
        assert_same_bits([t for _, t in named_state(rotating)], [t for _, t in named_state(keeping)])
    if mode == "infer":
        monkeypatch.setattr(trainer, "SCORE_CHUNK", 64)
        proba = predict_proba(rotating, X, ws=ws)
        monkeypatch.setattr(trainer, "SCORE_CHUNK", 101)
        assert_same_bits([proba[128:]], [predict_proba(keeping, X[128:])])


@pytest.mark.parametrize("arch", WIRINGS, ids=WIRING_IDS)
def test_backward_through_shared_buffers_matches_layer_by_layer(arch):
    """model_backward, whose blocks share five temporaries and write the
    gradients into one arena, gives the bits of the layers' backward
    passes each run with a fresh workspace, on a full and a shorter batch."""
    rng = np.random.Generator(np.random.PCG64(13))
    shared, twin = init_model(5, arch), init_model(5, arch)
    ws = Workspace()
    for m in (40, 23, 40):
        X, dlogits = rows(rng, m, 5), rng.standard_normal(m)
        _, cache = model_forward(shared, X, mode="train", want_cache=True, ws=ws)
        got = model_backward(shared, cache, dlogits, ws)
        _, twin_cache = model_forward(twin, X, mode="train", want_cache=True)
        _, block_caches, attn_cache, h_last = twin_cache
        dh, *want_output = affine_backward(twin.output_affine, h_last, dlogits.reshape(-1, 1))
        dh, *want_attention = attention_backward(twin.attention, attn_cache, dh)
        want_blocks = []
        for block, block_cache in zip(twin.blocks[::-1], block_caches[::-1]):
            dh, grads = residual_block_backward(block, block_cache, dh)
            want_blocks[:0] = grads
        _, *want_input = affine_backward(twin.input_affine, X, dh)
        assert_same_bits(list(got.values()), want_input + want_blocks + want_attention + want_output)


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
    walk = model_module._tensors
    monkeypatch.setattr(
        model_module, "_tensors", lambda m, state: walks.append(m) or walk(m, state)
    )
    ws = Workspace()
    for _ in range(3):
        logits, cache = model_forward(model, X, mode="train", want_cache=True, ws=ws)
        grads = model_backward(model, cache, np.ones_like(logits), ws)
    assert len(walks) == 1
    assert grads is ws.gradients
    assert list(grads) == [name for name, _ in named_parameters(model)]


def flow_blobs(n, d, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = (rng.uniform(size=n) < 0.3).astype(np.int64)
    features = rng.standard_normal((n, d)) + 1.5 * labels[:, None]
    return FlowDataset(tuple(f"f{i}" for i in range(d)), features, labels)


def test_arena_adagrad_trains_like_the_allocating_reference(monkeypatch):
    """Two-phase training with the arena Adagrad, fed its own arena views
    or gradients from outside the arena, gives the bits of the per-tensor
    reference in both phases."""
    cfg = TrainConfig(epochs_phase1=2, epochs_phase2=2, batch_size=32)
    train_set, balanced = flow_blobs(90, 5, 11), flow_blobs(120, 5, 12)
    arena_step = trainer.adagrad_step
    steppers = {
        "arena": arena_step,
        "outside": lambda opt, params, grads, ws: arena_step(
            opt, params, {n: g.copy() for n, g in grads.items()}, ws
        ),
        "reference": lambda opt, params, grads, ws: ref_adagrad_step(opt, params, grads),
    }
    results = {}
    for name, step in steppers.items():
        monkeypatch.setattr(trainer, "adagrad_step", step)
        model = init_model(5, WIRINGS[1])
        model, report, anchors = run_dual_phase(model, train_set, balanced, cfg)
        results[name] = model, report.records, anchors
    want_model, want_records, want_anchors = results.pop("reference")
    for model, records, anchors in results.values():
        assert records == want_records
        assert_same_bits([anchors], [want_anchors])
        assert_same_bits([t for _, t in named_parameters(model)], [t for _, t in named_parameters(want_model)])
        assert_same_bits([t for _, t in named_state(model)], [t for _, t in named_state(want_model)])


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


def test_steady_state_step_and_scoring_chunk_allocate_no_activations(monkeypatch):
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
        predict_proba(model, X, ws=ws)

    monkeypatch.setattr(trainer, "SCORE_CHUNK", m)
    activation = m * width * 8
    for fn in (step, score):
        fn()
        assert peak_rise(fn) < activation / 2


def test_anchors_and_phase_two_reuse_phase_one_buffers():
    """Once phase 1 has run an epoch on a workspace, the anchors and a
    phase-2 epoch on it find every batch, activation, gradient and scratch
    buffer they need there; what remains is row vectors."""
    m, width = 512, 128
    model = init_model(8, ArchitectureConfig(input_width=width, block_widths=(width,) * 3))
    # 1000 rows score in chunks of up to 488 rows, 1200 in chunks of up to 432
    train_set, balanced = flow_blobs(1000, 8, 14), flow_blobs(1200, 8, 15)
    cfg = TrainConfig(epochs_phase1=1, epochs_phase2=1, batch_size=m)
    rng, ws = np.random.Generator(np.random.PCG64(0)), Workspace()
    trainer.train_phase1(model, train_set, cfg, rng=rng, ws=ws)
    opt = init_optimizer(model)  # about two activations

    def anchors_and_phase_two():
        anchors = trainer.compute_anchors(model, balanced, ws)
        trainer.train_phase2(model, balanced, anchors, cfg, rng=rng, opt=opt, ws=ws)

    assert peak_rise(anchors_and_phase_two) < m * width * 8 / 2


def test_backward_adagrad_and_scoring_share_one_scratch_vector(monkeypatch):
    """On a fresh workspace, a training step and a scoring chunk hold the
    cached activations, the arena and one scratch vector, which the five
    backward temporaries, Adagrad's two vectors and the three rotating
    activations share: about 21.5 activations, where separate buffers for
    each held about 26.3."""
    m, width = 512, 64
    model = init_model(8, ArchitectureConfig(input_width=width, block_widths=(width,) * 3))
    rng = np.random.Generator(np.random.PCG64(9))
    X, y, anchors = rows(rng, m, 8), rng.integers(0, 2, m).astype(float), rng.uniform(size=m)
    spec = LossSpec(kind="anchored", base="dice", lambda_anchor=0.1)
    opt, params = init_optimizer(model), dict(named_parameters(model))
    monkeypatch.setattr(trainer, "SCORE_CHUNK", m)

    def step_and_score():
        ws = Workspace()
        _, grads = model_loss(model, X, y, spec, anchors=anchors, ws=ws)
        adagrad_step(opt, params, grads, ws)
        predict_proba(model, X, ws=ws)

    step_and_score()  # NumPy's and the loss's one-time set-up
    assert peak_rise(step_and_score) < 24 * m * width * 8


@pytest.mark.parametrize("arch", WIRINGS, ids=WIRING_IDS)
def test_anchors_on_a_training_workspace_match_a_fresh_one(arch, monkeypatch):
    """Anchors scored through the workspace that training used, whose
    scratch vector grows when the scoring chunks outsize the batches, have
    the bits of anchors scored through a fresh workspace."""
    monkeypatch.setattr(trainer, "SCORE_CHUNK", 64)
    model = init_model(5, arch)
    train_set, balanced = flow_blobs(90, 5, 16), flow_blobs(300, 5, 17)
    ws = Workspace()
    trainer.train_phase1(model, train_set, TrainConfig(epochs_phase1=2, batch_size=32), ws=ws)
    grown = trainer.compute_anchors(model, balanced, ws)
    assert_same_bits([grown], [trainer.compute_anchors(model, balanced)])


def test_a_grown_scratch_vector_is_freed_at_once(monkeypatch):
    """A scoring chunk longer than the training batch grows the workspace's
    scratch vector, and the vector it replaces is freed within the call: no
    plan laid out on it keeps it alive until that plan's next use."""
    model = init_model(5, WIRINGS[0])
    rng = np.random.Generator(np.random.PCG64(18))
    X, y = rows(rng, 32, 5), rng.integers(0, 2, 32).astype(float)
    ws = Workspace()
    _, grads = model_loss(model, X, y, LossSpec(kind="bce"), ws=ws)
    adagrad_step(init_optimizer(model), dict(named_parameters(model)), grads, ws)
    assert ws.scratch.size == 5 * 32 * 8  # the backward pass's five temporaries
    old = weakref.ref(ws.scratch.base)
    monkeypatch.setattr(trainer, "SCORE_CHUNK", 64)
    predict_proba(model, rows(rng, 252, 5), ws=ws)  # chunks of 64, 64 and 124 rows
    assert ws.scratch.size == 3 * 124 * 8  # the rotating activations
    assert old() is None


def test_large_uncached_pass_holds_a_few_activations():
    """A 4096-row pass without a cache or a caller's workspace holds its
    three rotating buffers and a few row vectors, where the pass with a
    cache keeps at least four activations per block."""
    m, width = 4096, 64
    model = init_model(8, ArchitectureConfig(input_width=width, block_widths=(width,) * 3))
    X = rows(np.random.Generator(np.random.PCG64(12)), m, 8)
    activation = m * width * 8
    assert peak_rise(lambda: model_forward(model, X)) < 3.5 * activation
    assert peak_rise(lambda: model_forward(model, X, want_cache=True)) > 12 * activation

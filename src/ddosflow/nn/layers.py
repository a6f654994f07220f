"""Dense layers, activations, batch norm, per-row feature attention, and a
residual block, each with a hand-derived backward pass.

Everything operates on float64 row-major matrices of shape
(batch, features). Forward functions return ``(out, cache)`` where the
cache holds exactly the intermediates the matching backward needs.
Batch norm is the only stateful piece: in train mode it updates its
running statistics in place (single-writer training loop only).

Every forward and backward writes its results and temporaries into the
buffers of a :class:`Workspace` (``ws``), a fresh one when none is given.
A loop that passes one workspace to every call allocates no activation or
gradient arrays once its first batch has run; the arrays it gets back are
views that the next pass over the same layer overwrites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BN_EPS",
    "BN_MOMENTUM",
    "Workspace",
    "AffineParams",
    "BatchNormParams",
    "AttentionParams",
    "ResidualBlockParams",
    "relu",
    "relu_backward",
    "sigmoid",
    "softmax_rows",
    "affine_forward",
    "affine_backward",
    "affine_param_backward",
    "batchnorm_forward",
    "batchnorm_backward",
    "attention_forward",
    "attention_backward",
    "residual_block_forward",
    "residual_block_backward",
]


class Workspace:
    """Named float64 buffers, reused by the network passes that share it.

    ``get(owner, role, rows, *cols)`` returns the first ``rows`` rows of
    the buffer that ``owner`` (a parameter object, or any hashable key)
    keeps under ``role``. A buffer is allocated at the rows of its first
    use and again only when a call needs more rows or other columns, so
    batches of at most the first batch's size reuse it. ``bind`` makes an
    existing array such a buffer, so that layers write where the caller
    chooses.

    A caller's workspace holds the batch, the cached activations, the
    gradient arena and one scratch vector. The large temporaries of a call
    are views of the front of ``scratch`` (:meth:`scratch_views`), since
    no two such calls run at once: Adagrad's step and denominator, and the
    buffers of each plan in ``plans``, a workspace of its own on the
    scratch vector, keyed by ``(model, backward)`` beside the rows it was
    laid out for (a pass without a cache runs on three rotating
    activations, a backward pass on five temporaries and its views of the
    arena). Growing ``scratch`` drops every plan. So the logits of a pass
    without a cache are the caller's only until the workspace's next
    backward pass, Adagrad step or pass without a cache.

    The gradients of one model, ``arena_key``, share one flat vector,
    ``arena``, end to end in :func:`~ddosflow.nn.model.named_parameters`
    order. ``gradients`` maps each tensor's name to its view of the arena,
    the buffer its layer's backward pass writes (a layer keeps the
    gradient of its field ``f`` under the role ``"d" + f``). Adagrad,
    handed that dict, updates every tensor with whole-vector operations
    on the arena.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[object, str], np.ndarray] = {}
        self.scratch = np.empty(0)
        self.arena = np.empty(0)
        self.arena_key: object = None
        self.gradients: dict[str, np.ndarray] = {}
        self.plans: dict[tuple[object, bool], tuple[int, Workspace]] = {}

    def get(self, owner: object, role: str, rows: int, *cols: int) -> np.ndarray:
        key = (owner, role)
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < rows or buf.shape[1:] != cols:
            buf = self._buffers[key] = np.empty((rows, *cols))
        return buf if buf.shape[0] == rows else buf[:rows]

    def bind(self, owner: object, role: str, buf: np.ndarray) -> None:
        self._buffers[owner, role] = buf

    def scratch_views(self, *sizes: int) -> list[np.ndarray]:
        """Consecutive flat views of ``scratch``, one of each size, each
        starting on a 64-byte boundary. ``scratch`` is first replaced by a
        vector large enough for them when it is not, and every plan laid
        out on the old one is dropped."""
        padded = [-(-size // 8) * 8 for size in sizes]  # 8 floats: 64 bytes
        total = sum(padded)
        if self.scratch.size < total:
            self.plans.clear()
            raw = np.empty(total + 7)
            start = -raw.ctypes.data % 64 // raw.itemsize
            self.scratch = raw[start : start + total]
        views, at = [], 0
        for size, pad in zip(sizes, padded):
            views.append(self.scratch[at : at + size])
            at += pad
        return views


def _end_to_end(
    shapes: dict[str, tuple[int, ...]],
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One flat vector of zeros and, per name, its view of the given shape,
    the views laid end to end in order."""
    flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return flat, views


@dataclass(eq=False)
class AffineParams:
    """Weights ``W`` of shape (out, in) and bias ``b`` of shape (out,)."""

    W: np.ndarray
    b: np.ndarray


BN_EPS = 1e-5  # added to the variance under the square root
BN_MOMENTUM = 0.9  # the fraction of the old running value kept per batch


@dataclass(eq=False)
class BatchNormParams:
    """Per-channel scale/shift plus running statistics for inference.

    Each training batch updates the running statistics as
    ``running = BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch_stat``.
    Batch and running variance are both population variance (divisor n).
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass(eq=False)
class AttentionParams:
    """Square weight ``W_a`` (width, width) and bias ``b_a`` (width,)."""

    W_a: np.ndarray
    b_a: np.ndarray


@dataclass(eq=False)
class ResidualBlockParams:
    """Two affine+batchnorm stages plus an optional projection shortcut.

    ``projection`` is present exactly when the block's input and output
    widths differ; it is the width-matching affine map on the skip path.
    """

    affine1: AffineParams
    bn1: BatchNormParams
    affine2: AffineParams
    bn2: BatchNormParams
    projection: AffineParams | None = None


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_backward(
    x_pre: np.ndarray, dout: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    # subgradient 0 at exactly 0; a mask written into a float ``out`` holds
    # 1.0/0.0, which multiply exactly as the booleans do
    return np.multiply(dout, np.greater(x_pre, 0.0, out=out), out=out)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, overflow-safe for any finite input."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max subtraction; every output row sums to 1.

    ``out`` may be ``x`` itself."""
    e = np.exp(np.subtract(x, x.max(axis=1, keepdims=True), out=out), out=out)
    return np.divide(e, e.sum(axis=1, keepdims=True), out=e)


def affine_forward(
    p: AffineParams, x: np.ndarray, ws: Workspace | None = None
) -> np.ndarray:
    """``out = x @ W.T + b``, bias broadcast per row."""
    if x.shape[1] != p.W.shape[1]:
        raise ValueError(f"affine expects width {p.W.shape[1]}, got {x.shape[1]}")
    ws = Workspace() if ws is None else ws
    out = np.matmul(x, p.W.T, out=ws.get(p, "out", x.shape[0], p.W.shape[0]))
    out += p.b
    return out


def affine_backward(
    p: AffineParams, x: np.ndarray, dout: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(dx, dW, db)`` for the cached input ``x``."""
    ws = Workspace() if ws is None else ws
    dx = np.matmul(dout, p.W, out=ws.get(p, "dx", *x.shape))
    return (dx, *affine_param_backward(p, x, dout, ws))


def affine_param_backward(
    p: AffineParams, x: np.ndarray, dout: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Returns ``(dW, db)`` alone, for a layer whose input gradient no one
    reads (the network's input layer)."""
    ws = Workspace() if ws is None else ws
    dW = _weight_gradient(x, dout, ws.get(p, "dW", *p.W.shape), ws)
    db = np.sum(dout, axis=0, out=ws.get(p, "db", *p.b.shape))
    return dW, db


def _weight_gradient(x: np.ndarray, dout: np.ndarray, dW: np.ndarray, ws: Workspace) -> np.ndarray:
    """``dout.T @ x`` written into ``dW``, computed as the transpose of
    ``x.T @ dout`` in one flat buffer of ``ws`` that every layer shares:
    OpenBLAS splits the first product's sum over the batch rows across its
    threads, so its bits would depend on the thread count."""
    n_in, n_out = x.shape[1], dout.shape[1]
    flat = ws.get(_weight_gradient, "x.T @ dout", n_in * n_out)
    np.copyto(dW, np.matmul(x.T, dout, out=flat.reshape(n_in, n_out)).T)
    return dW


def batchnorm_forward(
    p: BatchNormParams,
    x: np.ndarray,
    mode: str,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, dict]:
    """Normalize per column, scale by gamma, shift by beta.

    ``mode="train"`` normalizes by the batch's own mean and population
    variance and folds them into the running statistics; ``mode="infer"``
    normalizes by the running statistics and never mutates anything.

    Raises:
        ValueError: train mode with a batch of fewer than 2 rows, or an
            unknown mode.
    """
    ws = Workspace() if ws is None else ws
    m, w = x.shape
    out, xhat = ws.get(p, "out", m, w), ws.get(p, "xhat", m, w)
    inv = ws.get(p, "inv", w)
    if mode == "train":
        if m < 2:
            raise ValueError("batch norm in train mode requires batch size >= 2")
        # x.mean(axis=0) and x.var(axis=0) (population variance), computed
        # as NumPy computes them, with the centred rows kept for xhat
        mean = np.sum(x, axis=0, out=ws.get(p, "mean", w))
        mean /= m
        centred = np.subtract(x, mean, out=out)
        squares = np.multiply(centred, centred, out=xhat)
        var = np.sum(squares, axis=0, out=ws.get(p, "var", w))
        var /= m
        np.add(var, BN_EPS, out=inv)
        step = ws.get(p, "step", w)
        p.running_mean *= BN_MOMENTUM
        p.running_mean += np.multiply(mean, 1.0 - BN_MOMENTUM, out=step)
        p.running_var *= BN_MOMENTUM
        p.running_var += np.multiply(var, 1.0 - BN_MOMENTUM, out=step)
    elif mode == "infer":
        centred = np.subtract(x, p.running_mean, out=out)
        np.add(p.running_var, BN_EPS, out=inv)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    np.divide(1.0, np.sqrt(inv, out=inv), out=inv)
    np.multiply(centred, inv, out=xhat)
    np.multiply(xhat, p.gamma, out=out)
    out += p.beta
    cache = {"mode": mode, "xhat": xhat, "inv": inv}
    return out, cache


def batchnorm_backward(
    p: BatchNormParams, cache: dict, dout: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(dx, dgamma, dbeta)``.

    In train mode the batch statistics are part of the computation graph;
    in infer mode the running statistics are constants.
    """
    ws = Workspace() if ws is None else ws
    xhat = cache["xhat"]
    inv = cache["inv"]
    m, w = dout.shape
    scratch = ws.get(p, "scratch", m, w)
    dbeta = np.sum(dout, axis=0, out=ws.get(p, "dbeta", w))
    dgamma = np.multiply(dout, xhat, out=scratch).sum(axis=0, out=ws.get(p, "dgamma", w))
    # train: dx = (inv / m) * (m * dxhat - dxhat.sum(axis=0)
    #                          - xhat * (dxhat * xhat).sum(axis=0)),
    # with dxhat = dout * gamma built in dx's buffer and scaled in place
    dx = np.multiply(dout, p.gamma, out=ws.get(p, "dx", m, w))
    if cache["mode"] == "train":
        dxhat_sum = np.sum(dx, axis=0, out=ws.get(p, "dxhat_sum", w))
        proj = np.multiply(dx, xhat, out=scratch).sum(axis=0, out=ws.get(p, "proj", w))
        dx *= m
        dx -= dxhat_sum
        dx -= np.multiply(xhat, proj, out=scratch)
        dx *= np.divide(inv, m, out=ws.get(p, "inv_m", w))
    else:
        dx *= inv
    return dx, dgamma, dbeta


def attention_forward(
    p: AttentionParams, Z: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, dict]:
    """Per-row feature attention: softmax weights multiplied into the row.

    For each row z: ``a = softmax(W_a @ z + b_a)`` over the feature axis,
    output ``z' = a * z``. Since every weight lies in (0, 1), the output
    never exceeds the input in magnitude, elementwise.
    """
    if p.W_a.shape != (Z.shape[1], Z.shape[1]):
        raise ValueError(
            f"attention weight must be square on width {Z.shape[1]}, got {p.W_a.shape}"
        )
    ws = Workspace() if ws is None else ws
    m, w = Z.shape
    scores = np.matmul(Z, p.W_a.T, out=ws.get(p, "A", m, w))
    scores += p.b_a
    A = softmax_rows(scores, out=scores)
    out = np.multiply(A, Z, out=ws.get(p, "out", m, w))
    return out, {"A": A, "Z": Z}


def attention_backward(
    p: AttentionParams, cache: dict, dout: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(dZ, dW_a, db_a)``; dZ includes the path through the scores."""
    ws = Workspace() if ws is None else ws
    A = cache["A"]
    Z = cache["Z"]
    m, w = dout.shape
    scratch = ws.get(p, "scratch", m, w)
    # row-wise softmax jacobian: dS = A * (dA - <dA, A>), with dA = dout * Z
    dS = np.multiply(dout, Z, out=ws.get(p, "dS", m, w))
    dot = np.multiply(dS, A, out=scratch).sum(axis=1, keepdims=True, out=ws.get(p, "dot", m, 1))
    dS -= dot
    dS *= A
    dZ = np.multiply(dout, A, out=ws.get(p, "dZ", m, w))
    dZ += np.matmul(dS, p.W_a, out=scratch)
    dW_a = _weight_gradient(Z, dS, ws.get(p, "dW_a", w, w), ws)
    db_a = np.sum(dS, axis=0, out=ws.get(p, "db_a", w))
    return dZ, dW_a, db_a


def residual_block_forward(
    p: ResidualBlockParams,
    x: np.ndarray,
    mode: str,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, dict]:
    """``relu( bn2(affine2(relu(bn1(affine1(x))))) + shortcut(x) )``.

    The shortcut is the identity when input and output widths match,
    otherwise the block's projection affine.
    """
    ws = Workspace() if ws is None else ws
    # each batch norm and ReLU works in place in the output of the layer
    # before it, which nothing else reads; ReLU keeps the sign of its
    # input, so its output is also the mask for its backward pass
    a1 = affine_forward(p.affine1, x, ws)
    ws.bind(p.bn1, "out", a1)
    r1, bn1_cache = batchnorm_forward(p.bn1, a1, mode, ws)
    relu(r1, out=r1)
    a2 = affine_forward(p.affine2, r1, ws)
    ws.bind(p.bn2, "out", a2)
    out, bn2_cache = batchnorm_forward(p.bn2, a2, mode, ws)
    out += affine_forward(p.projection, x, ws) if p.projection is not None else x
    relu(out, out=out)
    cache = {"x": x, "bn1": bn1_cache, "r1": r1, "bn2": bn2_cache, "out": out}
    return out, cache


def residual_block_backward(
    p: ResidualBlockParams, cache: dict, dout: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns ``(dx, grads)``: the block's parameter gradients in the order
    of its fields (affine1, bn1, affine2, bn2, then projection if any)."""
    ws = Workspace() if ws is None else ws
    dpre = relu_backward(cache["out"], dout, out=ws.get(p, "dpre", *dout.shape))
    dn2, *bn2_grads = batchnorm_backward(p.bn2, cache["bn2"], dpre, ws)
    dr1, *affine2_grads = affine_backward(p.affine2, cache["r1"], dn2, ws)
    dn1 = relu_backward(cache["r1"], dr1, out=ws.get(p, "dn1", *dr1.shape))
    da1, *bn1_grads = batchnorm_backward(p.bn1, cache["bn1"], dn1, ws)
    dx, *grads = affine_backward(p.affine1, cache["x"], da1, ws)
    grads += bn1_grads + affine2_grads + bn2_grads
    if p.projection is not None:
        dshort, *projection_grads = affine_backward(p.projection, cache["x"], dpre, ws)
        grads += projection_grads
        dx += dshort
    else:
        dx += dpre
    return dx, grads


def _bind_shared(
    rows: int, plan: list[tuple[int, object, str, int]], outer: Workspace
) -> Workspace:
    """A new workspace in which each ``(k, owner, role, cols)`` of ``plan``
    (none where ``owner`` is None) is bound as a ``rows`` by ``cols`` view
    of the k-th of a few consecutive buffers of ``outer``'s scratch vector
    (:meth:`Workspace.scratch_views`)."""
    width = max(cols for _, owner, _, cols in plan if owner is not None)
    flats = outer.scratch_views(*[rows * width] * (1 + max(k for k, *_ in plan)))
    ws = Workspace()
    for k, owner, role, cols in plan:
        if owner is not None:
            ws.bind(owner, role, flats[k][: rows * cols].reshape(rows, cols))
    return ws


def _rotating_workspace(
    first: AffineParams, blocks: list[ResidualBlockParams], attention: AttentionParams,
    rows: int, outer: Workspace,
) -> Workspace:
    """A workspace for passes of up to ``rows`` rows through ``first``,
    then ``blocks`` and then ``attention`` that keep no backward cache.

    Its activation buffers are views of three buffers at the front of
    ``outer``'s scratch vector, bound under the roles by which the layer
    functions above ask for them, so that no buffer is written while its
    contents are still to be read. ``first`` writes buffer ``h``. A block
    reads its input from ``h`` (kept for the shortcut) and computes its
    first stage in ``a`` and its second in ``b`` (its batch norms and ReLUs
    work in place), keeping each batch norm's squares and ``xhat`` in the
    third buffer; the projection shortcut goes into ``a`` once ``affine2``
    has read it. The block's output stays in ``b``, the next block's input.
    The attention's output stays in the last block's ``b`` too, and its
    scores take that block's ``a``.
    """
    plan = [(0, first, "out", first.W.shape[0])]
    h = 0
    for block in blocks:
        a, b = (h + 1) % 3, (h + 2) % 3
        w = block.bn1.gamma.size
        plan += [
            (a, block.affine1, "out", w), (b, block.bn1, "xhat", w),
            (b, block.affine2, "out", w), (a, block.bn2, "xhat", w),
            (a, block.projection, "out", w),
        ]
        h = b
    plan += [(a, attention, "A", w), (b, attention, "out", w)]
    return _bind_shared(rows, plan, outer)


def _backward_workspace(
    last: AffineParams, attention: AttentionParams, blocks: list[ResidualBlockParams],
    rows: int, outer: Workspace,
) -> Workspace:
    """A workspace for backward passes of up to ``rows`` rows from ``last``
    back through ``attention`` and then ``blocks``, whose temporaries are
    views of five buffers at the front of ``outer``'s scratch vector, so
    that every block reuses the same ones.

    ``G`` holds the gradient that flows between layers: ``last``'s input
    gradient, the attention's (computed in place) and each block's. In a
    block, ``P`` keeps the gradient before the output ReLU for the
    shortcut, ``T1`` and ``T2`` take the stages in turn, and ``S`` is each
    batch norm's scratch; the block's input gradient goes into ``G``,
    whose incoming gradient the output ReLU has read.
    """
    G, P, T1, T2, S = range(5)
    w = last.W.shape[1]
    plan = [
        (G, last, "dx", w),
        (G, attention, "dZ", w), (T1, attention, "dS", w), (T2, attention, "scratch", w),
    ]
    for block in blocks:
        w, w_in = block.bn1.gamma.size, block.affine1.W.shape[1]
        plan += [
            (P, block, "dpre", w), (T1, block.bn2, "dx", w), (S, block.bn2, "scratch", w),
            (T2, block.affine2, "dx", w), (T1, block, "dn1", w),
            (T2, block.bn1, "dx", w), (S, block.bn1, "scratch", w),
            (G, block.affine1, "dx", w_in), (T1, block.projection, "dx", w_in),
        ]
    return _bind_shared(rows, plan, outer)

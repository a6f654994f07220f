"""Dense layers, activations, batch norm, per-row feature attention, and a
residual block, each with a hand-derived backward pass.

Everything operates on float64 row-major matrices of shape
(batch, features). Forward functions return ``(out, cache)`` where the
cache holds exactly the intermediates the matching backward needs.
Batch norm is the only stateful piece: in train mode it can update its
running statistics in place (single-writer training loop only).

Every forward and backward writes its results and temporaries into the
buffers of a :class:`Workspace` (``ws``), a fresh one when none is given.
A loop that passes one workspace to every call allocates no activation or
gradient arrays once its first batch has run; the arrays it gets back are
views that the next pass over the same layer overwrites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
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
    batches of at most the first batch's size reuse it. ``names`` keeps
    each model's gradient names, so a backward pass walks the parameter
    tree once per model and workspace.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[object, str], np.ndarray] = {}
        self.names: dict[object, list[str]] = {}

    def get(self, owner: object, role: str, rows: int, *cols: int) -> np.ndarray:
        key = (owner, role)
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < rows or buf.shape[1:] != cols:
            buf = self._buffers[key] = np.empty((rows, *cols))
        return buf[:rows]


@dataclass(eq=False)
class AffineParams:
    """Weights ``W`` of shape (out, in) and bias ``b`` of shape (out,)."""

    W: np.ndarray
    b: np.ndarray


@dataclass(eq=False)
class BatchNormParams:
    """Per-channel scale/shift plus running statistics for inference.

    ``momentum`` is the fraction of the old running value kept per batch:
    ``running = momentum * running + (1 - momentum) * batch_stat``.
    Batch and running variance are both population variance (divisor n).
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    eps_bn: float = 1e-5


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
    ``attention``, when present, is the attention layer the model applies
    to the block's output; :func:`residual_block_forward` does not apply it.
    """

    affine1: AffineParams
    bn1: BatchNormParams
    affine2: AffineParams
    bn2: BatchNormParams
    projection: AffineParams | None = None
    attention: AttentionParams | None = None


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
    dW = np.matmul(dout.T, x, out=ws.get(p, "dW", *p.W.shape))
    db = np.sum(dout, axis=0, out=ws.get(p, "db", *p.b.shape))
    return dx, dW, db


def batchnorm_forward(
    p: BatchNormParams,
    x: np.ndarray,
    mode: str,
    update_running: bool = True,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, dict]:
    """Normalize per column, scale by gamma, shift by beta.

    ``mode="train"`` normalizes by the batch's own mean and population
    variance and (unless ``update_running`` is False) folds them into the
    running statistics; ``mode="infer"`` normalizes by the running
    statistics and never mutates anything.

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
        np.add(var, p.eps_bn, out=inv)
        if update_running:
            step = ws.get(p, "step", w)
            p.running_mean *= p.momentum
            p.running_mean += np.multiply(mean, 1.0 - p.momentum, out=step)
            p.running_var *= p.momentum
            p.running_var += np.multiply(var, 1.0 - p.momentum, out=step)
    elif mode == "infer":
        centred = np.subtract(x, p.running_mean, out=out)
        np.add(p.running_var, p.eps_bn, out=inv)
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
    dW_a = np.matmul(dS.T, Z, out=ws.get(p, "dW_a", w, w))
    db_a = np.sum(dS, axis=0, out=ws.get(p, "db_a", w))
    return dZ, dW_a, db_a


def residual_block_forward(
    p: ResidualBlockParams,
    x: np.ndarray,
    mode: str,
    update_running: bool = True,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, dict]:
    """``relu( bn2(affine2(relu(bn1(affine1(x))))) + shortcut(x) )``.

    The shortcut is the identity when input and output widths match,
    otherwise the block's projection affine.
    """
    ws = Workspace() if ws is None else ws
    a1 = affine_forward(p.affine1, x, ws)
    n1, bn1_cache = batchnorm_forward(p.bn1, a1, mode, update_running, ws)
    r1 = relu(n1, out=ws.get(p, "r1", *n1.shape))
    a2 = affine_forward(p.affine2, r1, ws)
    n2, bn2_cache = batchnorm_forward(p.bn2, a2, mode, update_running, ws)
    shortcut = affine_forward(p.projection, x, ws) if p.projection is not None else x
    pre = np.add(n2, shortcut, out=ws.get(p, "pre", *n2.shape))
    out = relu(pre, out=ws.get(p, "out", *pre.shape))
    cache = {
        "x": x,
        "bn1": bn1_cache,
        "n1": n1,
        "r1": r1,
        "bn2": bn2_cache,
        "pre": pre,
    }
    return out, cache


def residual_block_backward(
    p: ResidualBlockParams, cache: dict, dout: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Returns ``(dx, grads)`` with grads keyed affine1.W, affine1.b, ...
    in the order of the block's fields."""
    ws = Workspace() if ws is None else ws
    dpre = relu_backward(cache["pre"], dout, out=ws.get(p, "dpre", *dout.shape))
    dn2, dg2, db2 = batchnorm_backward(p.bn2, cache["bn2"], dpre, ws)
    dr1, dW2, dbias2 = affine_backward(p.affine2, cache["r1"], dn2, ws)
    dn1 = relu_backward(cache["n1"], dr1, out=ws.get(p, "dn1", *dr1.shape))
    da1, dg1, db1 = batchnorm_backward(p.bn1, cache["bn1"], dn1, ws)
    dx, dW1, dbias1 = affine_backward(p.affine1, cache["x"], da1, ws)
    grads = {
        "affine1.W": dW1,
        "affine1.b": dbias1,
        "bn1.gamma": dg1,
        "bn1.beta": db1,
        "affine2.W": dW2,
        "affine2.b": dbias2,
        "bn2.gamma": dg2,
        "bn2.beta": db2,
    }
    if p.projection is not None:
        dshort, dWp, dbp = affine_backward(p.projection, cache["x"], dpre, ws)
        grads["projection.W"] = dWp
        grads["projection.b"] = dbp
        dx += dshort
    else:
        dx += dpre
    return dx, grads

"""Dense layers, activations, batch norm, per-row feature attention, and a
residual block, each with a hand-derived backward pass.

Everything operates on float64 row-major matrices of shape
(batch, features). Forward functions return ``(out, cache)`` where the
cache holds exactly the intermediates the matching backward needs.
Batch norm is the only stateful piece: in train mode it can update its
running statistics in place (single-writer training loop only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
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


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x_pre: np.ndarray, dout: np.ndarray) -> np.ndarray:
    # subgradient 0 at exactly 0
    return dout * (x_pre > 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, overflow-safe for any finite input."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; every output row sums to 1."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def affine_forward(p: AffineParams, x: np.ndarray) -> np.ndarray:
    """``out = x @ W.T + b``, bias broadcast per row."""
    if x.shape[1] != p.W.shape[1]:
        raise ValueError(f"affine expects width {p.W.shape[1]}, got {x.shape[1]}")
    return x @ p.W.T + p.b


def affine_backward(
    p: AffineParams, x: np.ndarray, dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(dx, dW, db)`` for the cached input ``x``."""
    dx = dout @ p.W
    dW = dout.T @ x
    db = dout.sum(axis=0)
    return dx, dW, db


def batchnorm_forward(
    p: BatchNormParams,
    x: np.ndarray,
    mode: str,
    update_running: bool = True,
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
    if mode == "train":
        if x.shape[0] < 2:
            raise ValueError("batch norm in train mode requires batch size >= 2")
        mean = x.mean(axis=0)
        var = x.var(axis=0)  # population variance
        inv = 1.0 / np.sqrt(var + p.eps_bn)
        xhat = (x - mean) * inv
        if update_running:
            p.running_mean *= p.momentum
            p.running_mean += (1.0 - p.momentum) * mean
            p.running_var *= p.momentum
            p.running_var += (1.0 - p.momentum) * var
    elif mode == "infer":
        inv = 1.0 / np.sqrt(p.running_var + p.eps_bn)
        xhat = (x - p.running_mean) * inv
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = p.gamma * xhat + p.beta
    cache = {"mode": mode, "xhat": xhat, "inv": inv}
    return out, cache


def batchnorm_backward(
    p: BatchNormParams, cache: dict, dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(dx, dgamma, dbeta)``.

    In train mode the batch statistics are part of the computation graph;
    in infer mode the running statistics are constants.
    """
    xhat = cache["xhat"]
    inv = cache["inv"]
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


def attention_forward(
    p: AttentionParams, Z: np.ndarray
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
    scores = Z @ p.W_a.T + p.b_a
    A = softmax_rows(scores)
    out = A * Z
    return out, {"A": A, "Z": Z}


def attention_backward(
    p: AttentionParams, cache: dict, dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(dZ, dW_a, db_a)``; dZ includes the path through the scores."""
    A = cache["A"]
    Z = cache["Z"]
    dA = dout * Z
    # row-wise softmax jacobian: dS = A * (dA - <dA, A>)
    dS = A * (dA - (dA * A).sum(axis=1, keepdims=True))
    dZ = dout * A + dS @ p.W_a
    dW_a = dS.T @ Z
    db_a = dS.sum(axis=0)
    return dZ, dW_a, db_a


def residual_block_forward(
    p: ResidualBlockParams,
    x: np.ndarray,
    mode: str,
    update_running: bool = True,
) -> tuple[np.ndarray, dict]:
    """``relu( bn2(affine2(relu(bn1(affine1(x))))) + shortcut(x) )``.

    The shortcut is the identity when input and output widths match,
    otherwise the block's projection affine.
    """
    a1 = affine_forward(p.affine1, x)
    n1, bn1_cache = batchnorm_forward(p.bn1, a1, mode, update_running)
    r1 = relu(n1)
    a2 = affine_forward(p.affine2, r1)
    n2, bn2_cache = batchnorm_forward(p.bn2, a2, mode, update_running)
    shortcut = affine_forward(p.projection, x) if p.projection is not None else x
    pre = n2 + shortcut
    out = relu(pre)
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
    p: ResidualBlockParams, cache: dict, dout: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Returns ``(dx, grads)`` with grads keyed affine1.W, affine1.b, ...
    in the order of the block's fields."""
    dpre = relu_backward(cache["pre"], dout)
    dn2, dg2, db2 = batchnorm_backward(p.bn2, cache["bn2"], dpre)
    dr1, dW2, dbias2 = affine_backward(p.affine2, cache["r1"], dn2)
    dn1 = relu_backward(cache["n1"], dr1)
    da1, dg1, db1 = batchnorm_backward(p.bn1, cache["bn1"], dn1)
    dx, dW1, dbias1 = affine_backward(p.affine1, cache["x"], da1)
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
        dshort, dWp, dbp = affine_backward(p.projection, cache["x"], dpre)
        grads["projection.W"] = dWp
        grads["projection.b"] = dbp
        dx = dx + dshort
    else:
        dx = dx + dpre
    return dx, grads

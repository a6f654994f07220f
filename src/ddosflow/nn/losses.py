"""Training objectives: binary cross-entropy, soft Dice, and the anchored
phase-2 objective that penalizes drift from frozen earlier predictions.

Each function returns ``(scalar_loss, gradient)``. BCE is defined on
probabilities and differentiates with respect to them; Dice and the
anchored loss are defined on logits (they apply the sigmoid internally)
and differentiate with respect to the logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import sigmoid

__all__ = [
    "BASE_LOSSES",
    "BCE_CLAMP",
    "LossSpec",
    "bce_loss",
    "dice_loss",
    "anchored_loss",
    "apply_loss",
]

BCE_CLAMP = 1e-12  # probabilities are clamped to [BCE_CLAMP, 1 - BCE_CLAMP]
BASE_LOSSES = ("bce", "dice")  # the objectives "anchored" can build on


@dataclass(frozen=True)
class LossSpec:
    """Selects and parameterizes the training objective.

    ``kind`` is one of "bce", "dice", or "anchored"; for "anchored",
    ``base`` names the underlying objective and ``lambda_anchor`` weights
    the squared-deviation penalty. ``eps_dice`` is the Dice smoothing
    constant.
    """

    kind: str
    eps_dice: float = 1.0
    base: str = "dice"
    lambda_anchor: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (*BASE_LOSSES, "anchored"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.base not in BASE_LOSSES:
            raise ValueError(f"unknown base loss {self.base!r}")
        if self.eps_dice <= 0:
            raise ValueError("eps_dice must be positive")
        if self.lambda_anchor < 0:
            raise ValueError("lambda_anchor must be non-negative")


def _check_lengths(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")


def bce_loss(y_hat: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy on probabilities.

    ``L = -(1/n) * sum(y*log(p) + (1-y)*log(1-p))`` with p clamped to
    [1e-12, 1 - 1e-12]. The returned gradient is with respect to the
    input probabilities and is 0 wherever the clamp was active.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_lengths(y_hat, y)
    n = y_hat.size
    p = np.clip(y_hat, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loss = float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum() / n)
    inside = (y_hat > BCE_CLAMP) & (y_hat < 1.0 - BCE_CLAMP)
    grad = np.where(inside, (p - y) / (p * (1.0 - p)) / n, 0.0)
    return loss, grad


def dice_loss(
    logits: np.ndarray, targets: np.ndarray, eps_dice: float = 1.0
) -> tuple[float, np.ndarray]:
    """Complement of the smoothed soft overlap coefficient.

    With ``p = sigmoid(logits)`` flattened:
    ``loss = 1 - (2*sum(p*t) + eps) / (sum(p) + sum(t) + eps)``.
    Returns the gradient with respect to the logits. Always in [0, 1)
    for positive eps (up to float saturation of the sigmoid).
    """
    logits = np.asarray(logits, dtype=np.float64).ravel()
    targets = np.asarray(targets, dtype=np.float64).ravel()
    _check_lengths(logits, targets)
    if eps_dice <= 0:
        raise ValueError("eps_dice must be positive")
    p = sigmoid(logits)
    intersection = float((p * targets).sum())
    denom = float(p.sum() + targets.sum() + eps_dice)
    coeff = (2.0 * intersection + eps_dice) / denom
    loss = 1.0 - coeff
    # d/dp_i of coeff = (2*t_i*denom - (2*I+eps)) / denom^2
    dcoeff_dp = (2.0 * targets * denom - (2.0 * intersection + eps_dice)) / denom**2
    dlogits = -dcoeff_dp * p * (1.0 - p)
    return loss, dlogits


def _base_loss(
    logits: np.ndarray, y: np.ndarray, base: str, eps_dice: float
) -> tuple[float, np.ndarray]:
    """BCE (its probability gradient chained through the sigmoid) or Dice,
    with the gradient with respect to the logits."""
    if base == "bce":
        p = sigmoid(logits)
        loss, dldp = bce_loss(p, y)
        return loss, dldp * p * (1.0 - p)
    if base == "dice":
        return dice_loss(logits, y, eps_dice)
    raise ValueError(f"unknown base loss {base!r}")


def anchored_loss(
    logits: np.ndarray,
    y: np.ndarray,
    anchors: np.ndarray,
    lambda_anchor: float,
    base: str = "dice",
    eps_dice: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Base objective plus a squared-deviation penalty toward anchors.

    ``L = base_loss + lambda_anchor * sum((anchor_i - p_i)^2)`` where
    ``p = sigmoid(logits)`` are the current predictions and ``anchors``
    are the frozen earlier-phase predictions. The penalty is a raw sum,
    not a mean, so its weight effectively scales with batch size.
    With ``lambda_anchor == 0`` the result is bitwise equal to the base
    loss. Returns the gradient with respect to the logits.
    """
    logits = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    anchors = np.asarray(anchors, dtype=np.float64).ravel()
    _check_lengths(logits, y)
    _check_lengths(logits, anchors)
    if lambda_anchor < 0:
        raise ValueError("lambda_anchor must be non-negative")

    base_value, dbase = _base_loss(logits, y, base, eps_dice)
    if lambda_anchor == 0.0:
        return base_value, dbase

    p = sigmoid(logits)
    deviation = anchors - p
    penalty = lambda_anchor * float((deviation**2).sum())
    dpenalty = lambda_anchor * 2.0 * (p - anchors) * p * (1.0 - p)
    return base_value + penalty, dbase + dpenalty


def apply_loss(
    logits: np.ndarray,
    y: np.ndarray,
    spec: LossSpec,
    anchors: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Evaluate the objective named by ``spec`` on a batch of logits.

    Returns ``(loss, dloss_dlogits)``; BCE's probability-space gradient
    is chained through the sigmoid.
    """
    if spec.kind != "anchored":
        return _base_loss(logits, y, spec.kind, spec.eps_dice)
    if anchors is None:
        raise ValueError("anchored loss requires an anchor vector")
    return anchored_loss(
        logits, y, anchors, spec.lambda_anchor, spec.base, spec.eps_dice
    )

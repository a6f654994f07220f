"""Central-finite-difference verification of the analytic gradients.

For every trainable tensor element the checker compares the analytic
derivative against ``(L(w+h) - L(w-h)) / (2h)`` and reports the worst
relative error per tensor, where the relative error of analytic ``a``
versus numeric ``n`` is ``|a - n| / max(|a|, |n|, 1e-8)``.

The model is evaluated in inference mode so batch-norm running-statistic
updates stay out of the differentiated computation. Intended for
desk-scale models (up to ~1e4 parameters). :func:`self_check` is the
fixed check that ``ddosflow gradcheck`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossSpec, apply_loss
from .model import (
    ArchitectureConfig,
    ModelParams,
    init_model,
    model_forward,
    model_loss,
    named_parameters,
)

__all__ = ["GradCheckReport", "gradient_check", "self_check"]

_REL_FLOOR = 1e-8


@dataclass(frozen=True)
class GradCheckReport:
    """Worst relative error per tensor plus the overall verdict."""

    loss_kind: str
    per_tensor: dict[str, float]
    max_rel_error: float
    h: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol

    def format(self) -> str:
        lines = [f"loss={self.loss_kind} h={self.h:g} tol={self.tol:g}"]
        for name, err in self.per_tensor.items():
            lines.append(f"  {name:<28s} max_rel_err={err:.3e}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"  overall max_rel_err={self.max_rel_error:.3e} [{verdict}]")
        return "\n".join(lines)


def gradient_check(
    model: ModelParams,
    X: np.ndarray,
    y: np.ndarray,
    spec: LossSpec,
    anchors: np.ndarray | None = None,
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients to central differences, element by element.

    Report-only: never raises on a tolerance breach; callers inspect
    ``report.passed``.
    """

    def loss_value() -> float:
        logits, _ = model_forward(model, X, mode="infer")
        return apply_loss(logits, y, spec, anchors=anchors)[0]

    _, grads = model_loss(model, X, y, spec, mode="infer", anchors=anchors)

    per_tensor: dict[str, float] = {}
    for name, tensor in named_parameters(model):
        analytic = grads[name]
        worst = 0.0
        flat = tensor.reshape(-1)
        flat_grad = analytic.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + h
            plus = loss_value()
            flat[idx] = original - h
            minus = loss_value()
            flat[idx] = original
            numeric = (plus - minus) / (2.0 * h)
            a = flat_grad[idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
            if rel > worst:
                worst = rel
        per_tensor[name] = worst
    max_rel = max(per_tensor.values()) if per_tensor else 0.0
    return GradCheckReport(
        loss_kind=spec.kind, per_tensor=per_tensor, max_rel_error=max_rel, h=h, tol=tol
    )


def self_check() -> list[GradCheckReport]:
    """One report per loss (BCE, Dice, and Dice with the anchor penalty) for
    one fixed network: 8 features, input width 8, blocks (8, 8) and init
    seed 4, on six rows, their labels and anchors drawn from ``PCG64(5)``,
    at the default ``h`` and ``tol``. The labels hold both classes."""
    model = init_model(8, ArchitectureConfig(input_width=8, block_widths=(8, 8), init_seed=4))
    rng = np.random.Generator(np.random.PCG64(5))
    X = rng.standard_normal((6, 8))
    y = rng.integers(0, 2, 6).astype(np.int64)
    anchors = rng.uniform(0.05, 0.95, 6)
    checks = [
        (LossSpec(kind="bce"), None),
        (LossSpec(kind="dice"), None),
        (LossSpec(kind="anchored", base="dice", lambda_anchor=1.0), anchors),
    ]
    return [gradient_check(model, X, y, spec, anchors=a) for spec, a in checks]

"""Adagrad: per-parameter learning rates from accumulated squared gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import Workspace
from .model import ModelParams, named_parameters

__all__ = ["OptimizerState", "init_optimizer", "adagrad_step"]


@dataclass(eq=False)
class OptimizerState:
    """Learning rate, smoothing term, and the per-tensor accumulator.

    ``accum`` maps parameter names to the running sum of squared
    gradients; entries are non-negative and non-decreasing over steps.
    """

    eta: float = 0.01
    eps_opt: float = 1e-10
    accum: dict[str, np.ndarray] = field(default_factory=dict)


def init_optimizer(
    model: ModelParams, eta: float = 0.01, eps_opt: float = 1e-10
) -> OptimizerState:
    """Fresh state with zero accumulators matching the model's tensors."""
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if eps_opt < 0.0:
        raise ValueError(f"eps_opt must be non-negative, got {eps_opt}")
    accum = {name: np.zeros_like(tensor) for name, tensor in named_parameters(model)}
    return OptimizerState(eta=eta, eps_opt=eps_opt, accum=accum)


def adagrad_step(
    state: OptimizerState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    ws: Workspace | None = None,
) -> None:
    """One update: ``G += g**2`` then ``w -= eta * g / sqrt(G + eps)``.

    The accumulator is folded in before the update, so the step uses the
    post-accumulation G. Parameters and state are updated in place; the
    temporaries are two buffers of ``ws`` (or of a fresh workspace).
    """
    ws = Workspace() if ws is None else ws
    for name, w in params.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        G = state.accum[name]
        step = ws.get(state, "step", g.size).reshape(g.shape)
        denom = ws.get(state, "denom", g.size).reshape(g.shape)
        G += np.multiply(g, g, out=step)
        np.multiply(g, state.eta, out=step)
        step /= np.sqrt(np.add(G, state.eps_opt, out=denom), out=denom)
        w -= step

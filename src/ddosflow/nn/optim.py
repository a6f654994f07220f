"""Adagrad: per-parameter learning rates from accumulated squared gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import Workspace, end_to_end
from .model import ModelParams, named_parameters

__all__ = ["OptimizerState", "init_optimizer", "adagrad_step"]


@dataclass(eq=False)
class OptimizerState:
    """Learning rate, smoothing term, and the accumulator.

    ``G`` is the running sum of squared gradients of every tensor, one flat
    vector laid out in :func:`named_parameters` order, and ``accum`` maps
    each parameter name to its view of ``G``; entries are non-negative and
    non-decreasing over steps.
    """

    eta: float = 0.01
    eps_opt: float = 1e-10
    G: np.ndarray = field(default_factory=lambda: np.zeros(0))
    accum: dict[str, np.ndarray] = field(default_factory=dict)


def init_optimizer(
    model: ModelParams, eta: float = 0.01, eps_opt: float = 1e-10
) -> OptimizerState:
    """Fresh state with zero accumulators matching the model's tensors."""
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if eps_opt < 0.0:
        raise ValueError(f"eps_opt must be non-negative, got {eps_opt}")
    G, accum = end_to_end({name: tensor.shape for name, tensor in named_parameters(model)})
    return OptimizerState(eta=eta, eps_opt=eps_opt, G=G, accum=accum)


def _laid_out_like(gradients: dict[str, np.ndarray], accum: dict[str, np.ndarray]) -> bool:
    return len(gradients) == len(accum) and all(
        name == other and g.shape == a.shape
        for (name, g), (other, a) in zip(gradients.items(), accum.items())
    )


def adagrad_step(
    state: OptimizerState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    ws: Workspace | None = None,
) -> None:
    """One update: ``G += g**2`` then ``w -= eta * g / sqrt(G + eps)``.

    The accumulator is folded in before the update, so the step uses the
    post-accumulation G. Parameters and state are updated in place.

    ``params`` names exactly the tensors of ``state``, as
    :func:`named_parameters` gives them. The gradients are read from the
    gradient arena of ``ws`` (or of a fresh workspace), laid out like
    ``state.G``. A gradient that is not already its arena view, as
    :func:`model_backward` returns them, is copied in. Whole-vector
    operations then update the accumulator and build the step, and each
    tensor takes its part of the step.
    """
    if params.keys() != state.accum.keys():
        unmatched = sorted(set(params) ^ set(state.accum))
        raise KeyError(f"params must name exactly the optimizer's tensors: {unmatched}")
    ws = Workspace() if ws is None else ws
    arena = ws.gradients
    if not _laid_out_like(arena, state.accum):
        slots = [(name, a.shape, None, "") for name, a in state.accum.items()]
        arena = ws.lay_out(state, slots)
    for name, view in arena.items():
        g = grads[name]
        if g.shape != params[name].shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if g is not view:
            view[...] = g
    g, G = ws.arena, state.G
    step = ws.get(state, "step", g.size)
    denom = ws.get(state, "denom", g.size)
    G += np.multiply(g, g, out=step)
    np.multiply(g, state.eta, out=step)
    step /= np.sqrt(np.add(G, state.eps_opt, out=denom), out=denom)
    offset = 0
    for name, view in arena.items():
        w = params[name]
        w -= step[offset : offset + view.size].reshape(w.shape)
        offset += view.size

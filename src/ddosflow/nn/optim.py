"""Adagrad: per-parameter learning rates from accumulated squared gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import Workspace, _end_to_end
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
    G, accum = _end_to_end({name: tensor.shape for name, tensor in named_parameters(model)})
    return OptimizerState(eta=eta, eps_opt=eps_opt, G=G, accum=accum)


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
    :func:`named_parameters` gives them, and ``grads`` holds a gradient of
    each one's shape. Handed ``ws.gradients``, the dict that
    :func:`model_backward` returns, laid out like ``state.G``, the step
    reads the gradients in place from the arena of ``ws``; any other
    gradients are concatenated in ``state.accum`` order into one temporary,
    and nothing is written into the arena. Whole-vector operations then
    update the accumulator and build the step, and each tensor takes its
    part of the step.

    The step and its denominator are the front of ``ws``'s scratch vector
    (:class:`~ddosflow.nn.layers.Workspace`), which the backward pass's
    temporaries and the passes without a cache also use: those are dead
    once their call returns, and the step reads neither.
    """
    if params.keys() != state.accum.keys():
        unmatched = sorted(set(params) ^ set(state.accum))
        raise KeyError(f"params must name exactly the optimizer's tensors: {unmatched}")
    for name, w in params.items():
        if grads[name].shape != w.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
    ws = Workspace() if ws is None else ws
    if grads is ws.gradients and list(grads) == list(state.accum):
        g = ws.arena
    else:
        g = np.concatenate([grads[name] for name in state.accum], axis=None)
    step, denom = ws.scratch_views(g.size, g.size)
    state.G += np.multiply(g, g, out=step)
    np.multiply(g, state.eta, out=step)
    step /= np.sqrt(np.add(state.G, state.eps_opt, out=denom), out=denom)
    offset = 0
    for name in state.accum:
        w = params[name]
        w -= step[offset : offset + w.size].reshape(w.shape)
        offset += w.size

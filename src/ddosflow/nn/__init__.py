"""From-scratch dense numeric engine: layers, losses, model assembly,
Adagrad, reverse-mode gradients, gradient checking, and persistence.

The package exports the model-level API; per-layer functions and
parameter classes are imported from :mod:`ddosflow.nn.layers`."""

from .layers import Workspace, sigmoid
from .losses import LossSpec, anchored_loss, apply_loss, bce_loss, dice_loss
from .model import (
    ArchitectureConfig,
    ModelParams,
    init_model,
    model_backward,
    model_forward,
    model_loss,
    named_parameters,
)
from .optim import OptimizerState, adagrad_step, init_optimizer
from .gradcheck import gradient_check
from .persist import load_model, save_model

__all__ = [
    "ArchitectureConfig",
    "ModelParams",
    "OptimizerState",
    "Workspace",
    "LossSpec",
    "sigmoid",
    "bce_loss",
    "dice_loss",
    "anchored_loss",
    "apply_loss",
    "init_model",
    "model_forward",
    "model_backward",
    "model_loss",
    "named_parameters",
    "init_optimizer",
    "adagrad_step",
    "gradient_check",
    "load_model",
    "save_model",
]

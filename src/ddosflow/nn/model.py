"""Model assembly: an input affine map, a stack of residual blocks, each
optionally followed by its own feature attention layer, and a single-logit
output head.

Parameters live in plain dataclasses of float64 arrays; a block's
attention layer lives in the block. Everything that needs to walk the
parameter tree (the optimizer, the gradient checker, persistence) goes
through :func:`named_parameters` / :func:`named_state`, which walk the
dataclass fields depth first and yield (dotted-name, array) pairs in that
fixed order; the arrays are the live objects, so in-place updates through
them update the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import (
    AffineParams,
    AttentionParams,
    BatchNormParams,
    ResidualBlockParams,
    Workspace,
    affine_forward,
    affine_backward,
    attention_forward,
    attention_backward,
    residual_block_forward,
    residual_block_backward,
)
from .losses import LossSpec, apply_loss

__all__ = [
    "ArchitectureConfig",
    "ModelParams",
    "init_model",
    "named_parameters",
    "named_state",
    "model_forward",
    "model_backward",
    "model_loss",
]


@dataclass(frozen=True)
class ArchitectureConfig:
    """Widths and wiring of the network.

    ``input_width`` is the output width of the input affine map;
    ``block_widths`` gives each residual block's output width (a block
    whose input and output widths differ gets a projection shortcut).
    ``attention_after_each`` inserts an attention layer after every block
    instead of only after the last one.
    """

    input_width: int = 64
    block_widths: tuple[int, ...] = (64, 64, 64)
    attention_after_each: bool = False
    init_seed: int = 0
    bn_eps: float = 1e-5
    bn_momentum: float = 0.9

    def __post_init__(self) -> None:
        if self.input_width < 1 or any(w < 1 for w in self.block_widths):
            raise ValueError("widths must be positive")
        if len(self.block_widths) < 1:
            raise ValueError("at least one residual block is required")


@dataclass(eq=False)
class ModelParams:
    """Ordered parameter blocks defining the network.

    Each block carries the attention layer that follows it
    (``blocks[i].attention``, None where there is none). ``attentions``
    lists them aligned with ``blocks``. The default wiring has exactly one
    attention layer, after the final block, exposed as ``attention``.
    """

    input_affine: AffineParams
    blocks: list[ResidualBlockParams]
    output_affine: AffineParams
    n_features: int
    arch: ArchitectureConfig = field(repr=False)

    @property
    def attentions(self) -> list[AttentionParams | None]:
        return [block.attention for block in self.blocks]

    @property
    def attention(self) -> AttentionParams | None:
        return self.blocks[-1].attention


def _zeros_affine(n_out: int, n_in: int) -> AffineParams:
    return AffineParams(W=np.zeros((n_out, n_in)), b=np.zeros(n_out))


def _zeros_bn(width: int, arch: ArchitectureConfig) -> BatchNormParams:
    return BatchNormParams(
        gamma=np.ones(width),
        beta=np.zeros(width),
        running_mean=np.zeros(width),
        running_var=np.ones(width),
        momentum=arch.bn_momentum,
        eps_bn=arch.bn_eps,
    )


def _alloc_model(n_features: int, arch: ArchitectureConfig) -> ModelParams:
    """Build the parameter structure with zero weights and identity norms."""
    blocks: list[ResidualBlockParams] = []
    in_width = arch.input_width
    for i, out_width in enumerate(arch.block_widths):
        projection = _zeros_affine(out_width, in_width) if in_width != out_width else None
        attention = None
        if arch.attention_after_each or i == len(arch.block_widths) - 1:
            attention = AttentionParams(
                W_a=np.zeros((out_width, out_width)), b_a=np.zeros(out_width)
            )
        blocks.append(
            ResidualBlockParams(
                affine1=_zeros_affine(out_width, in_width),
                bn1=_zeros_bn(out_width, arch),
                affine2=_zeros_affine(out_width, out_width),
                bn2=_zeros_bn(out_width, arch),
                projection=projection,
                attention=attention,
            )
        )
        in_width = out_width
    return ModelParams(
        input_affine=_zeros_affine(arch.input_width, n_features),
        blocks=blocks,
        output_affine=_zeros_affine(1, in_width),
        n_features=n_features,
        arch=arch,
    )


def init_model(n_features: int, arch: ArchitectureConfig) -> ModelParams:
    """Seeded initialization: uniform He-style weights, zero biases.

    Each weight matrix is drawn U(-sqrt(6/fan_in), +sqrt(6/fan_in)) from
    one PCG64 stream seeded with ``arch.init_seed``, visiting tensors in
    the :func:`named_parameters` order, so initialization is
    bit-reproducible.
    """
    model = _alloc_model(n_features, arch)
    rng = np.random.Generator(np.random.PCG64(arch.init_seed))
    for name, tensor in named_parameters(model):
        if tensor.ndim == 2 and (name.endswith(".W") or name.endswith(".W_a")):
            fan_in = tensor.shape[1]
            limit = np.sqrt(6.0 / fan_in)
            tensor[...] = rng.uniform(-limit, limit, size=tensor.shape)
    return model


# batch-norm running statistics: state, not trained
_STATE_SUFFIXES = (".running_mean", ".running_var")


def _walk(
    node: object, prefix: str, out: list[tuple[str, np.ndarray]]
) -> list[tuple[str, np.ndarray]]:
    """Append (dotted name, array) for every array under ``node`` to
    ``out``, depth first in dataclass field and list order."""
    if isinstance(node, np.ndarray):
        out.append((prefix[:-1], node))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _walk(item, f"{prefix}{i}.", out)
    else:
        for name in getattr(node, "__dataclass_fields__", ()):
            _walk(getattr(node, name), f"{prefix}{name}.", out)
    return out


def named_parameters(model: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Trainable tensors as (dotted name, live array) pairs, fixed order."""
    pairs = _walk(model, "", [])
    return [(n, t) for n, t in pairs if not n.endswith(_STATE_SUFFIXES)]


def named_state(model: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Non-trainable state (batch-norm running statistics), fixed order."""
    pairs = _walk(model, "", [])
    return [(n, t) for n, t in pairs if n.endswith(_STATE_SUFFIXES)]


def model_forward(
    model: ModelParams,
    X: np.ndarray,
    mode: str = "infer",
    want_cache: bool = False,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, tuple | None]:
    """Run the network, returning one logit per row.

    Returns ``(logits, cache)``; the cache (None unless requested) feeds
    :func:`model_backward` and is shaped like the model:
    ``(X, [(block_cache, attention_cache or None), ...], h_last)``.
    Forward is deterministic: the same parameters and batch give
    bitwise-identical logits.

    The logits and every cached array live in the workspace ``ws``: with
    a caller's workspace they are views that its next pass over this model
    overwrites; without one they belong to a fresh workspace, so the
    caller owns them.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"expected input of width {model.n_features}, got shape {X.shape}"
        )
    ws = Workspace() if ws is None else ws
    steps = []
    h = affine_forward(model.input_affine, X, ws)
    for block in model.blocks:
        h, block_cache = residual_block_forward(block, h, mode, ws)
        attn_cache = None
        if block.attention is not None:
            h, attn_cache = attention_forward(block.attention, h, ws)
        if want_cache:
            steps.append((block_cache, attn_cache))
    logits = affine_forward(model.output_affine, h, ws)[:, 0]
    return logits, ((X, steps, h) if want_cache else None)


def model_backward(
    model: ModelParams,
    cache: tuple,
    dlogits: np.ndarray,
    ws: Workspace | None = None,
) -> dict[str, np.ndarray]:
    """Reverse-mode gradients for every trainable tensor.

    ``cache`` must come from a :func:`model_forward` call with
    ``want_cache=True`` on the same batch. Returns a dict keyed exactly
    like :func:`named_parameters`, in its order: each layer's gradients
    come in the order of its fields.

    The gradients live in the workspace ``ws``: with a caller's workspace
    they are views that its next backward pass overwrites; without one
    they belong to a fresh workspace, so the caller owns them.
    """
    if cache is None:
        raise ValueError("model_backward requires the forward cache")
    ws = Workspace() if ws is None else ws
    X, steps, h_last = cache
    dh, *output_grads = affine_backward(
        model.output_affine, h_last, dlogits.reshape(-1, 1), ws
    )
    block_grads: list[np.ndarray] = []
    for block, (block_cache, attn_cache) in zip(model.blocks[::-1], steps[::-1]):
        attn_grads = []
        if block.attention is not None:
            dh, *attn_grads = attention_backward(block.attention, attn_cache, dh, ws)
        dh, grads = residual_block_backward(block, block_cache, dh, ws)
        # prepended: blocks are visited last to first
        block_grads[:0] = grads + attn_grads
    _, *input_grads = affine_backward(model.input_affine, X, dh, ws)
    names = ws.names.get(model)
    if names is None:
        names = ws.names[model] = [name for name, _ in named_parameters(model)]
    return dict(zip(names, input_grads + block_grads + output_grads, strict=True))


def model_loss(
    model: ModelParams,
    X: np.ndarray,
    y: np.ndarray,
    spec: LossSpec,
    mode: str = "train",
    anchors: np.ndarray | None = None,
    want_grads: bool = True,
    ws: Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Forward plus objective, optionally with parameter gradients.

    The gradients belong to the caller unless ``ws`` is given; then, as
    with :func:`model_backward`, they are views into its buffers."""
    logits, cache = model_forward(model, X, mode=mode, want_cache=want_grads, ws=ws)
    loss, dlogits = apply_loss(logits, y, spec, anchors=anchors)
    if not want_grads:
        return loss, None
    return loss, model_backward(model, cache, dlogits, ws)

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

from collections.abc import Iterator
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
    affine_param_backward,
    attention_forward,
    attention_backward,
    residual_block_forward,
    residual_block_backward,
    rotating_workspace,
    bind_backward_buffers,
    end_to_end,
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
        if not (self.bn_eps > 0.0 and 0.0 <= self.bn_momentum < 1.0):
            raise ValueError("bn_eps must be positive and bn_momentum in [0, 1)")


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
    for _, tensor, _, attr in _tensors(model, state=False):
        if attr in ("W", "W_a"):  # weight matrices
            fan_in = tensor.shape[1]
            limit = np.sqrt(6.0 / fan_in)
            tensor[...] = rng.uniform(-limit, limit, size=tensor.shape)
    return model


# batch-norm running statistics: state, not trained
_STATE_FIELDS = ("running_mean", "running_var")


def _walk(node: object, prefix: str = "") -> Iterator[tuple[str, np.ndarray, object, str]]:
    """Yield ``(dotted name, array, owner, field)`` for every array under
    ``node``, depth first in list and dataclass field order: the array is
    ``owner``'s field ``field`` (a list has no dataclass fields)."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from _walk(item, f"{prefix}{i}.")
    for name in getattr(node, "__dataclass_fields__", ()):
        value = getattr(node, name)
        if isinstance(value, np.ndarray):
            yield prefix + name, value, node, name
        else:
            yield from _walk(value, f"{prefix}{name}.")


def _tensors(model: ModelParams, state: bool) -> list[tuple[str, np.ndarray, object, str]]:
    """:func:`_walk`'s trainable tensors, or its running statistics with ``state``."""
    return [entry for entry in _walk(model) if (entry[3] in _STATE_FIELDS) == state]


def named_parameters(model: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Trainable tensors as (dotted name, live array) pairs, fixed order."""
    return [(name, tensor) for name, tensor, _, _ in _tensors(model, state=False)]


def named_state(model: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Non-trainable state (batch-norm running statistics), fixed order."""
    return [(name, tensor) for name, tensor, _, _ in _tensors(model, state=True)]


def _uncached_workspace(model: ModelParams, ws: Workspace, rows: int) -> Workspace:
    """The workspace of ``ws`` for passes of ``model`` that keep no cache,
    made once per model and workspace and again when a pass needs more
    rows (see :func:`~ddosflow.nn.layers.rotating_workspace`)."""
    capacity, inner = ws.uncached.get(model, (0, None))
    if inner is None or capacity < rows:
        inner = rotating_workspace(model.input_affine, model.blocks, rows)
        ws.uncached[model] = (rows, inner)
    return inner


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
    bitwise-identical logits, with or without a cache.

    The logits and every cached array live in the workspace ``ws``: with
    a caller's workspace they are views that its next pass over this model
    overwrites; without one they belong to a fresh workspace, so the
    caller owns them. A pass with a cache keeps every layer's output; a
    pass without one runs the same layer functions on three rotating
    activation buffers, so a large batch holds about three activations at
    once (see :func:`~ddosflow.nn.layers.rotating_workspace`).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"expected input of width {model.n_features}, got shape {X.shape}"
        )
    ws = Workspace() if ws is None else ws
    if not want_cache:
        ws = _uncached_workspace(model, ws, X.shape[0])
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


def _backward_buffers(model: ModelParams, ws: Workspace, rows: int) -> None:
    """Lay out ``ws``'s gradient arena for ``model``, once per model and
    workspace: tensor ``<path>.<field>`` gets the arena view bound as the
    ``d<field>`` buffer of the layer at ``<path>``, so the backward passes
    write into the arena. The passes' temporaries are bound to shared
    buffers (:func:`~ddosflow.nn.layers.bind_backward_buffers`), again when
    a pass needs more rows."""
    if ws.arena_key is not model:
        tensors = _tensors(model, state=False)
        ws.arena, ws.gradients = end_to_end({name: t.shape for name, t, _, _ in tensors})
        ws.arena_key = model
        for name, _, owner, attr in tensors:
            ws.bind(owner, "d" + attr, ws.gradients[name])
    if ws.backward_rows.get(model, 0) < rows:
        bind_backward_buffers(ws, model.output_affine, model.blocks, rows)
        ws.backward_rows[model] = rows


def model_backward(
    model: ModelParams,
    cache: tuple,
    dlogits: np.ndarray,
    ws: Workspace | None = None,
) -> dict[str, np.ndarray]:
    """Reverse-mode gradients for every trainable tensor.

    ``cache`` must come from a :func:`model_forward` call with
    ``want_cache=True`` on the same batch. Returns the workspace's gradient
    dict, ``ws.gradients``, keyed exactly like :func:`named_parameters`, in
    its order. No input gradient is computed for the input layer.

    Each layer writes its gradients into its views of the workspace's
    gradient arena (:class:`Workspace`): with a caller's workspace its next
    backward pass overwrites them; without one they belong to a fresh
    workspace, so the caller owns them.
    """
    if cache is None:
        raise ValueError("model_backward requires the forward cache")
    ws = Workspace() if ws is None else ws
    _backward_buffers(model, ws, dlogits.shape[0])
    X, steps, h_last = cache
    dh, *_ = affine_backward(model.output_affine, h_last, dlogits.reshape(-1, 1), ws)
    for block, (block_cache, attn_cache) in zip(model.blocks[::-1], steps[::-1]):
        if block.attention is not None:
            dh, *_ = attention_backward(block.attention, attn_cache, dh, ws)
        dh, _ = residual_block_backward(block, block_cache, dh, ws)
    affine_param_backward(model.input_affine, X, dh, ws)
    return ws.gradients


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

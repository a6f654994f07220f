"""Dual-phase training loop and the detection-side helpers.

Phase 1 trains on the original (imbalanced, scaled) flows with a plain
loss. Its frozen predictions on the oversampled set become anchors, and
phase 2 trains on the oversampled set with an anchor penalty that pulls
predictions back toward the phase-1 values. Both phases share one
shuffle stream so a zero-penalty phase 2 continues phase 1 exactly.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DataError
from .flow_data import FlowDataset, ScalerParams, _scorable_in_place
from .nn import (
    LossSpec,
    ModelParams,
    OptimizerState,
    Workspace,
    adagrad_step,
    init_optimizer,
    model_forward,
    model_loss,
    named_parameters,
    sigmoid,
)
from .nn.losses import BASE_LOSSES

if TYPE_CHECKING:
    from .config import DataConfig  # config imports this module

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "TrainReport",
    "train_phase1",
    "compute_anchors",
    "train_phase2",
    "run_dual_phase",
    "predict_proba",
    "classify",
    "Detector",
    "write_train_report_csv",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for both phases.

    The anchor penalty is a raw per-batch sum, so lambda_anchor's
    effective strength grows with batch_size.

    reset_optimizer_phase2 gives phase 2 a fresh Adagrad accumulator
    (the default); switching it off makes a zero-penalty phase 2 an
    exact continuation of phase 1.
    """

    epochs_phase1: int = 50
    epochs_phase2: int = 50
    batch_size: int = 256
    eta: float = 0.01
    lambda_anchor: float = 0.1
    loss_phase1: str = "bce"
    loss_phase2_base: str = "dice"
    threshold: float = 0.5
    seed: int = 0
    eps_dice: float = 1.0
    eps_opt: float = 1e-10
    reset_optimizer_phase2: bool = True

    def __post_init__(self) -> None:
        if self.epochs_phase1 < 0 or self.epochs_phase2 < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.batch_size < 2:  # every block's batch norm needs two rows
            raise ValueError("batch_size must be >= 2")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.lambda_anchor < 0:
            raise ValueError("lambda_anchor must be >= 0")
        if self.loss_phase1 not in BASE_LOSSES:
            raise ValueError(f"loss_phase1 must be one of {BASE_LOSSES}")
        if self.loss_phase2_base not in BASE_LOSSES:
            raise ValueError(f"loss_phase2_base must be one of {BASE_LOSSES}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if self.eps_dice <= 0 or self.eps_opt <= 0:
            raise ValueError("smoothing constants must be positive")


@dataclass(frozen=True)
class EpochRecord:
    phase: int
    epoch: int
    loss: float
    accuracy: float


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch curves plus timing for one or both phases."""

    records: tuple[EpochRecord, ...]
    wall_time_s: float


# rows per forward pass when scoring; of 128 to 4096 rows, 256 scored
# 40000 rows fastest (8 and 78 features, default widths, one BLAS thread)
SCORE_CHUNK = 256


def predict_proba(
    model: ModelParams,
    X: np.ndarray,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Attack probability per row, inference mode (running BN stats).

    Rows are scored :data:`SCORE_CHUNK` at a time through one workspace
    (``ws``, or a fresh one) whose buffers every chunk reuses; the last
    chunk also takes the rows left over, so no pass is shorter than a
    chunk. Each pass keeps no backward cache, so its activations rotate
    through three buffers of the chunk's rows, which stay in cache between
    layers. The returned array is a new one that the caller owns.

    BLAS can round a row of a matrix product differently in the last bit
    when the product has few rows, or a row count that is not a multiple
    of its kernel's block. With OpenBLAS 0.3.31, chunks of 256, 512, 1024
    or 4096 rows give every row the score of one pass over all rows;
    chunks of 1, 7, 511 or 513 rows do not.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"expected (n, {model.n_features}) features, got {X.shape}"
        )
    ws = Workspace() if ws is None else ws
    n = X.shape[0]
    out = np.empty(n, dtype=np.float64)
    # every chunk but the last starts at least SCORE_CHUNK rows before the end
    starts = range(0, max(n - SCORE_CHUNK + 1, min(n, 1)), SCORE_CHUNK)
    for start, stop in zip(starts, [*starts[1:], n]):
        logits, _ = model_forward(model, X[start:stop], mode="infer", ws=ws)
        out[start:stop] = sigmoid(logits)
    return out


def classify(proba: np.ndarray, threshold: float) -> np.ndarray:
    """1 where probability strictly exceeds the threshold, else 0."""
    return (np.asarray(proba) > threshold).astype(np.int64)


def _manifest_entry(extra: dict, key: str, parse):
    """``parse(extra[key])``, or a ValueError naming the missing or
    malformed entry."""
    if key not in extra:
        raise ValueError(f"model file lacks manifest entry {key!r}")
    try:
        return parse(extra[key])
    except (ConfigError, TypeError, ValueError) as exc:
        raise ValueError(f"manifest entry {key!r} is malformed: {exc}") from exc


def _column_names(value: object) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise TypeError("expected a list of column names")
    twice = sorted({n for n in value if value.count(n) > 1})
    if twice:
        raise ValueError(f"names {', '.join(twice)} more than once")
    return tuple(value)


# The manifest's numbers follow the config's rules (_coerce): no bool or
# string for a number, no fraction for a count.
def _vector(value: object) -> np.ndarray:
    from .config import _coerce  # config imports this module
    if isinstance(value, list):
        with contextlib.suppress(TypeError):
            return np.array([_coerce(v, 0.0) for v in value], dtype=np.float64)
    raise TypeError("expected a list of finite numbers")


def _stds(value: object) -> np.ndarray:
    stds = _vector(value)
    if np.any(stds < 0):
        raise ValueError("stds must be non-negative")
    return stds


def _threshold(value: object) -> float:
    """``value`` checked as the config's ``train.threshold`` is; a ConfigError names the fault."""
    from .config import config_from_dict
    return config_from_dict({"train": {"threshold": value}}).train.threshold


@dataclass(frozen=True)
class Detector:
    """A trained model with what scoring a capture needs: the feature
    columns it reads, in order, the scaler fitted on its training rows,
    the decision threshold and the CSV label conventions.

    ``ddosflow train`` saves :meth:`manifest` as the model file's extra
    entries, and ``evaluate``, ``predict`` and library code read them back
    with :meth:`from_manifest`, so every caller scores a row through
    :meth:`score` with the same bits.
    """

    model: ModelParams
    feature_names: tuple[str, ...]
    scaler: ScalerParams
    threshold: float
    data: DataConfig

    def manifest(self) -> dict:
        """The extra manifest entries that :meth:`from_manifest` reads back."""
        return {
            "feature_names": list(self.feature_names),
            "scaler_means": [float(v) for v in self.scaler.means],
            "scaler_stds": [float(v) for v in self.scaler.stds],
            "scaler_fitted_on": self.scaler.fitted_on,
            "threshold": self.threshold,
            **dataclasses.asdict(self.data),
        }

    @classmethod
    def from_manifest(cls, model: ModelParams, extra: dict) -> Detector:
        """The detector of a loaded model, ``load_model``'s pair; a
        ValueError names the faulty entry.

        A file without the label entries takes :class:`DataConfig`'s defaults.
        """
        from .config import DataConfig, _coerce, config_from_dict
        names = _manifest_entry(extra, "feature_names", _column_names)
        scaler = ScalerParams(
            means=_manifest_entry(extra, "scaler_means", _vector),
            stds=_manifest_entry(extra, "scaler_stds", _stds),
            fitted_on=_manifest_entry(extra, "scaler_fitted_on", lambda v: _coerce(v, 0)),
        )
        if not len(names) == len(scaler.means) == model.n_features:
            raise ValueError(
                f"manifest entries 'feature_names' and 'scaler_means' hold {len(names)} "
                f"and {len(scaler.means)} columns for a model of {model.n_features} features"
            )
        threshold = _manifest_entry(extra, "threshold", _threshold)
        labels = {f.name: extra[f.name] for f in dataclasses.fields(DataConfig) if f.name in extra}
        try:
            data = config_from_dict({"data": labels}).data
        except ConfigError as exc:
            raise ValueError(f"manifest label entries are malformed: {exc}") from exc
        return cls(model, names, scaler, threshold, data)

    def prepare(self, X: np.ndarray, tags: np.ndarray | list[int]) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~ddosflow.flow_data._scorable_in_place` with ``predict``'s
        fill rule: the rows of ``X`` (the columns :attr:`feature_names`
        name) without a NaN cell, each ±inf cell set to its column's scaler
        mean, scaled, and their ``tags`` (row numbers or labels, made an
        array), both inside the caller's arrays."""
        return _scorable_in_place(X, np.asarray(tags), lambda _: self.scaler.means, self.scaler)

    def score(self, X: np.ndarray, row_numbers: np.ndarray | None = None) -> np.ndarray:
        """The attack probability of each scaled row of ``X``.

        A logit that overflows to +-inf scores its limit, 1 or 0. A row whose
        features lie so far outside the training range that the network's
        arithmetic gives NaN is a DataError, which counts such rows and names
        the first by its data-row number in ``row_numbers``, or else by its
        position among the scored rows."""
        with np.errstate(over="ignore", invalid="ignore"):
            proba = predict_proba(self.model, X)
        nan = np.flatnonzero(np.isnan(proba))
        if nan.size:
            first = (
                f"data row {row_numbers[nan[0]]}" if row_numbers is not None
                else f"scored row {nan[0] + 1}"
            )
            raise DataError(
                f"{nan.size} of {proba.size} rows scored NaN; the first is {first}. The "
                "network overflows on feature values far outside the training range"
            )
        return proba


def _epoch_accuracy(
    model: ModelParams, X: np.ndarray, y: np.ndarray, threshold: float, ws: Workspace
) -> float:
    pred = classify(predict_proba(model, X, ws=ws), threshold)
    return float((pred == y).mean())


def _run_epochs(
    model: ModelParams,
    dataset: FlowDataset,
    spec: LossSpec,
    cfg: TrainConfig,
    epochs: int,
    phase: int,
    rng: np.random.Generator | None,
    opt: OptimizerState | None,
    anchors: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> tuple[ModelParams, TrainReport]:
    """Mini-batch Adagrad on ``dataset`` for one phase, updating ``model``
    in place; without a caller's rng/opt/ws, a fresh stream, accumulator
    and workspace.

    One workspace serves every step and accuracy pass of the phase, so
    after the first epoch a step allocates no batch, activation or
    gradient arrays."""
    if dataset.n_rows == 0:
        raise DataError("cannot train on an empty dataset")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
    if opt is None:
        opt = init_optimizer(model, eta=cfg.eta, eps_opt=cfg.eps_opt)
    t0 = time.perf_counter()
    X, n = dataset.features, dataset.n_rows
    # the losses take float targets; converted once, not once per batch
    y = dataset.labels.astype(np.float64)
    params = dict(named_parameters(model))
    ws = Workspace() if ws is None else ws
    records: list[EpochRecord] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            m = idx.size
            # the indices are in range; mode "raise" would gather into a temporary
            X_b = np.take(X, idx, axis=0, out=ws.get("batch", "X", m, X.shape[1]), mode="clip")
            y_b = np.take(y, idx, out=ws.get("batch", "y", m), mode="clip")
            a_b = None
            if anchors is not None:
                a_b = np.take(anchors, idx, out=ws.get("batch", "anchors", m), mode="clip")
            loss, grads = model_loss(
                model, X_b, y_b, spec, mode="train", anchors=a_b, ws=ws
            )
            adagrad_step(opt, params, grads, ws)
            loss_sum += loss * m
        records.append(
            EpochRecord(
                phase=phase,
                epoch=epoch,
                loss=loss_sum / n,
                accuracy=_epoch_accuracy(model, X, dataset.labels, cfg.threshold, ws),
            )
        )
    return model, TrainReport(tuple(records), time.perf_counter() - t0)


def train_phase1(
    model: ModelParams,
    dataset: FlowDataset,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
    opt: OptimizerState | None = None,
    ws: Workspace | None = None,
) -> tuple[ModelParams, TrainReport]:
    """Mini-batch Adagrad on the original scaled flows.

    The model is updated in place and also returned. Passing rng/opt
    lets a caller keep one shuffle stream and accumulator across phases,
    and ``ws`` one set of buffers.
    """
    spec = LossSpec(kind=cfg.loss_phase1, eps_dice=cfg.eps_dice)
    return _run_epochs(model, dataset, spec, cfg, cfg.epochs_phase1, 1, rng, opt, ws=ws)


def compute_anchors(
    model: ModelParams, dataset: FlowDataset, ws: Workspace | None = None
) -> np.ndarray:
    """Frozen inference-mode probabilities on every row (synthetic too),
    scored through ``ws`` (or a fresh workspace) as :func:`predict_proba`
    scores."""
    return predict_proba(model, dataset.features, ws)


def train_phase2(
    model: ModelParams,
    balanced: FlowDataset,
    anchors: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
    opt: OptimizerState | None = None,
    ws: Workspace | None = None,
) -> tuple[ModelParams, TrainReport]:
    """Anchored refinement on the oversampled flows.

    Each batch's penalty uses that batch's slice of the anchor vector.
    ``ws`` is as in :func:`train_phase1`.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.shape != (balanced.n_rows,):
        raise ValueError(
            f"anchor length {anchors.shape} does not match "
            f"{balanced.n_rows} dataset rows"
        )
    spec = LossSpec(
        kind="anchored",
        base=cfg.loss_phase2_base,
        lambda_anchor=cfg.lambda_anchor,
        eps_dice=cfg.eps_dice,
    )
    return _run_epochs(
        model, balanced, spec, cfg, cfg.epochs_phase2, 2, rng, opt, anchors, ws
    )


def run_dual_phase(
    model: ModelParams,
    train_set: FlowDataset,
    balanced: FlowDataset,
    cfg: TrainConfig,
) -> tuple[ModelParams, TrainReport, np.ndarray]:
    """Phase 1 on the original flows, then anchored phase 2.

    One shuffle generator is threaded through both phases; the Adagrad
    accumulator restarts at the phase boundary unless configured not to.
    One workspace serves the whole run: phase 2 and the anchors reuse
    phase 1's buffers, since no two of them run at once.
    Returns the trained model, the merged report, and the anchor vector.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    opt = init_optimizer(model, eta=cfg.eta, eps_opt=cfg.eps_opt)
    ws = Workspace()
    t0 = time.perf_counter()
    model, rep1 = train_phase1(model, train_set, cfg, rng=rng, opt=opt, ws=ws)
    anchors = compute_anchors(model, balanced, ws)
    if cfg.reset_optimizer_phase2:
        opt = init_optimizer(model, eta=cfg.eta, eps_opt=cfg.eps_opt)
    model, rep2 = train_phase2(model, balanced, anchors, cfg, rng=rng, opt=opt, ws=ws)
    report = TrainReport(
        rep1.records + rep2.records, time.perf_counter() - t0
    )
    return model, report, anchors


def write_train_report_csv(report: TrainReport, path: str) -> None:
    """phase,epoch,loss,accuracy rows — the data behind the curves."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "epoch", "loss", "accuracy"])
        for rec in report.records:
            writer.writerow(
                [rec.phase, rec.epoch, repr(rec.loss), repr(rec.accuracy)]
            )

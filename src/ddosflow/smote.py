"""Minority-class rebalancing by k-nearest-neighbor interpolation.

Synthetic rows are built by walking the minority class in row order,
picking one of each row's k nearest minority neighbors at random, and
interpolating a uniform random fraction of the way toward it:

    new = parent + lam * (neighbor - parent),  lam ~ U[0, 1)

Run this on standardized features (after ``apply_scaler``) so Euclidean
neighbor distances are not dominated by large-magnitude columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .flow_data import FlowDataset, _round_half_up

__all__ = [
    "SmoteConfig",
    "SyntheticSample",
    "minority_neighbors",
    "synthesize",
    "oversample",
]


@dataclass(frozen=True)
class SmoteConfig:
    """Neighbor count ``k``, RNG seed, and target minority/majority ratio."""

    k: int = 5
    seed: int = 0
    target_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError("target_ratio must be in (0, 1]")


@dataclass(frozen=True)
class SyntheticSample:
    """Provenance record for one synthetic row.

    ``parent_index`` and ``neighbor_index`` are row indices into the
    ORIGINAL dataset passed to :func:`oversample`, and ``vector`` equals
    ``parent + lambda_interp * (neighbor - parent)`` exactly as computed.
    """

    vector: np.ndarray
    parent_index: int
    neighbor_index: int
    lambda_interp: float


def minority_neighbors(X_min: np.ndarray, k: int) -> np.ndarray:
    """Indices of each minority row's k nearest minority rows.

    Distances are Euclidean, computed as explicit squared differences
    (no algebraic shortcuts) so exact ties are preserved; self is
    excluded; ties break toward the lower row index. If ``k`` exceeds
    ``rows - 1`` it is clamped with a warning.

    Args:
        X_min: Minority feature matrix, shape (n, d), n >= 2.
        k: Requested neighbor count, >= 1.

    Returns:
        int64 array of shape (n, effective_k).

    Raises:
        DataError: fewer than 2 minority rows.
    """
    X_min = np.asarray(X_min, dtype=np.float64)
    n = X_min.shape[0]
    if n < 2:
        raise DataError("SMOTE requires >=2 minority samples")
    if k > n - 1:
        warnings.warn(
            f"requested k={k} but only {n} minority rows; clamping k to {n - 1}",
            RuntimeWarning,
            stacklevel=2,
        )
        k = n - 1

    out = np.empty((n, k), dtype=np.int64)
    d = X_min.shape[1]
    chunk = max(1, min(n, 8_388_608 // max(n * d, 1)))  # cap the diff buffer at ~64 MB
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = X_min[start:stop, None, :] - X_min[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        for i in range(start, stop):
            d2[i - start, i] = np.inf  # exclude self
        order = np.argsort(d2, axis=1, kind="stable")  # stable: ties keep low index
        out[start:stop] = order[:, :k]
    return out


def synthesize(x_i: np.ndarray, x_zi: np.ndarray, lambda_interp: float) -> np.ndarray:
    """Interpolate between a parent and one of its neighbors.

    Returns ``x_i + lambda_interp * (x_zi - x_i)``; with lambda in [0, 1)
    the result lies on the closed segment between the two points.
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    x_zi = np.asarray(x_zi, dtype=np.float64)
    if x_i.shape != x_zi.shape:
        raise ValueError(f"dimension mismatch: {x_i.shape} vs {x_zi.shape}")
    if not 0.0 <= lambda_interp < 1.0:
        raise ValueError("lambda_interp must be in [0, 1)")
    return x_i + lambda_interp * (x_zi - x_i)


def oversample(
    ds: FlowDataset, cfg: SmoteConfig
) -> tuple[FlowDataset, list[SyntheticSample]]:
    """Raise the minority class to ``round(target_ratio * majority count)`` rows.

    Original rows are preserved verbatim and first; synthetic rows are
    appended carrying the minority label. Parents are visited by cycling
    through the minority rows in dataset order; for each visit one of the
    parent's k nearest neighbors and one interpolation factor are drawn
    from a single seeded RNG stream, so a fixed seed reproduces the
    synthetic rows bitwise.

    Returns:
        ``(balanced_dataset, records)`` where ``records`` describes each
        appended row (parent, neighbor, interpolation factor).

    Raises:
        DataError: one of the classes is absent.
    """
    counts = np.bincount(ds.labels, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise DataError("oversample requires both classes present")

    minority_label = 0 if counts[0] < counts[1] else 1
    n_min = int(counts[minority_label])
    n_maj = int(counts[1 - minority_label])
    target = _round_half_up(cfg.target_ratio * n_maj)
    n_new = target - n_min
    if n_new <= 0:
        return ds, []

    min_rows = np.flatnonzero(ds.labels == minority_label)
    X_min = ds.features[min_rows]
    neighbors = minority_neighbors(X_min, cfg.k)
    k_eff = neighbors.shape[1]

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    records: list[SyntheticSample] = []
    synth = np.empty((n_new, ds.n_features), dtype=np.float64)
    for s in range(n_new):
        parent = s % n_min
        neighbor = int(neighbors[parent, rng.integers(0, k_eff)])
        lam = float(rng.random())
        vector = synthesize(X_min[parent], X_min[neighbor], lam)
        synth[s] = vector
        records.append(
            SyntheticSample(
                vector=vector,
                parent_index=int(min_rows[parent]),
                neighbor_index=int(min_rows[neighbor]),
                lambda_interp=lam,
            )
        )

    features = np.vstack([ds.features, synth])
    labels = np.concatenate(
        [ds.labels, np.full(n_new, minority_label, dtype=np.int64)]
    )
    return FlowDataset(ds.feature_names, features, labels), records

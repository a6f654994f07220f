"""Minority-class rebalancing by k-nearest-neighbor interpolation.

Synthetic rows are built by walking the minority class in row order,
drawing one of each row's k nearest minority neighbors and a uniform
random fraction, then interpolating every row in one array expression:

    new = parent + lam * (neighbor - parent),  lam ~ U[0, 1)

Run this on standardized features (after ``apply_scaler``) so Euclidean
neighbor distances are not dominated by large-magnitude columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .flow_data import FlowDataset, _round_half_up

__all__ = [
    "SmoteConfig",
    "SmoteProvenance",
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


class SmoteProvenance(NamedTuple):
    """Origin of the synthetic rows, as arrays with one entry per row.

    Entry ``s`` describes balanced row ``n_rows + s``: ``parent_index`` and
    ``neighbor_index`` (int64) index rows of the ORIGINAL dataset passed to
    :func:`oversample`, and ``lambda_interp`` is the factor between them.
    """

    parent_index: np.ndarray
    neighbor_index: np.ndarray
    lambda_interp: np.ndarray


# Float64 cells (4 MB) per working array: a block of Gram rows, its
# candidate pairs and each chunk of re-rank difference rows stay within
# this, so the search holds under 40 MB beside the input and its centred
# copy however wide the candidate sets grow (for n <= _BLOCK_CELLS; one
# query row always takes n cells).
_BLOCK_CELLS = 1 << 19


def minority_neighbors(X_min: np.ndarray, k: int) -> np.ndarray:
    """Indices of each minority row's k nearest minority rows.

    Distances are Euclidean; self is excluded; ties break toward the lower
    row index. If ``k`` exceeds ``rows - 1`` it is clamped with a warning.

    The neighbors are exact, found in two steps. A Gram-matrix search
    (``|a|^2 + |b|^2 - 2 a.b`` on column-centred rows, one matrix product
    per block of query rows) finds each row's approximate k-th distance and
    keeps as candidates every row within twice a proven rounding bound of
    it, a set that holds the true k nearest rows and every tie at the k-th
    distance. The candidates are then re-ranked by explicit squared
    differences, ``sum((a - b) ** 2)``, and ordered by (distance, index),
    so the result is that of a stable sort of every row's explicit
    distances.

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

    d = X_min.shape[1]
    # Rounding bound of the Gram distance G against the explicit one E.
    # Let u = eps/2, g_m = m*u / (1 - m*u), Y the centred copy
    # (Y_a = fl(a - mean)), s = |Y_a| + |Y_b| and D = |a - b|^2 exactly.
    # - Centring: Y_a - Y_b = (a - b) + e with |e| <= u*s / (1 - u), so
    #   | |Y_a - Y_b|^2 - D | <= |e| * (2s + |e|) <= 2.01 u s^2.
    # - Gram: |Y_a|^2, |Y_b|^2 and Y_a.Y_b are each off by at most g_d
    #   times their sum of absolute products (any summation order, FMA or
    #   not), and the two additions by u of terms <= (1 + g_d) s^2: about
    #   (d + 2) u s^2 in all.
    # - Explicit: the difference, the square and the d-term sum give
    #   |E - D| <= g_(d+2) D, with D <= (1.01 s)^2.
    # So |G - E| <= (2d + 6) u s^2 to first order. tol = (2d + 16) eps s^2
    # is twice that, which covers the higher-order terms (d*u << 1) and
    # the rounding of the norms and of the threshold below. Per query row
    # i, s <= |Y_i| + max_j |Y_j|.
    # Candidates: the k rows of least G have E <= kth + tol, so the k-th
    # least E is at most kth + tol, and every row j at or below it has
    # G_j <= E_j + tol <= kth + 2 tol. Non-finite input makes the
    # threshold NaN or inf and every row a candidate.
    with np.errstate(invalid="ignore", over="ignore"):
        Y = X_min - X_min.mean(axis=0)
        sq_norms = np.einsum("ij,ij->i", Y, Y)
        norms = np.sqrt(sq_norms)
        tol = (2 * d + 16) * np.finfo(np.float64).eps * (norms + norms.max()) ** 2

    out = np.empty((n, k), dtype=np.int64)
    block = max(1, min(n, _BLOCK_CELLS // n))
    pairs = max(1, _BLOCK_CELLS // max(d, 1))
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = np.arange(stop - start)
        with np.errstate(invalid="ignore", over="ignore"):
            gram = Y[start:stop] @ Y.T
            gram *= -2.0
            gram += sq_norms[start:stop, None]
            gram += sq_norms
            gram[rows, rows + start] = np.inf  # exclude self
            kth = np.partition(gram, k - 1, axis=1)[:, k - 1]
            cand = ~(gram > (kth + 2 * tol[start:stop])[:, None])  # NaN stays in
        del gram
        cand[rows, rows + start] = False
        counts = np.count_nonzero(cand, axis=1)
        qi, cj = np.nonzero(cand)  # row-major, so grouped by query row
        del cand
        d2 = np.empty(qi.size)
        for lo in range(0, qi.size, pairs):
            diff = X_min[qi[lo : lo + pairs] + start]
            diff -= X_min[cj[lo : lo + pairs]]
            d2[lo : lo + pairs] = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((cj, d2, qi))  # by query row, then (d2, index)
        first = np.cumsum(counts) - counts
        out[start:stop] = cj[order[first[:, None] + np.arange(k)]]
    return out


def synthesize(
    x_i: np.ndarray, x_zi: np.ndarray, lambda_interp: float | np.ndarray
) -> np.ndarray:
    """Interpolate rows: ``x_i + lambda_interp * (x_zi - x_i)``.

    ``x_i`` and ``x_zi`` have shape (..., d) and ``lambda_interp`` holds one
    factor per row, shape (...): a scalar for a single row. With factors in
    [0, 1) each result lies on the closed segment between its two points.
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    x_zi = np.asarray(x_zi, dtype=np.float64)
    lam = np.asarray(lambda_interp, dtype=np.float64)
    if x_i.shape != x_zi.shape:
        raise ValueError(f"dimension mismatch: {x_i.shape} vs {x_zi.shape}")
    if lam.shape != x_i.shape[:-1]:
        raise ValueError(f"lambda_interp shape {lam.shape} vs rows {x_i.shape[:-1]}")
    if not ((lam >= 0.0) & (lam < 1.0)).all():
        raise ValueError("lambda_interp must be in [0, 1)")
    return x_i + lam[..., None] * (x_zi - x_i)


def oversample(
    ds: FlowDataset, cfg: SmoteConfig
) -> tuple[FlowDataset, SmoteProvenance]:
    """Raise the minority class to ``round(target_ratio * majority count)`` rows.

    Original rows are preserved verbatim and first; synthetic rows are
    appended carrying the minority label. Parents are visited by cycling
    through the minority rows in dataset order; for each visit one of the
    parent's k nearest neighbors and then one interpolation factor are
    drawn from a single seeded RNG stream, so a fixed seed reproduces the
    synthetic rows bitwise; one :func:`synthesize` call then builds them.

    Returns:
        ``(balanced_dataset, provenance)``: the :class:`SmoteProvenance`
        of the appended rows, empty arrays when none are added.

    Raises:
        DataError: one of the classes is absent.
    """
    counts = np.bincount(ds.labels, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise DataError("oversample requires both classes present")

    minority_label = 0 if counts[0] < counts[1] else 1
    n_min = int(counts[minority_label])
    n_new = _round_half_up(cfg.target_ratio * int(counts[1 - minority_label])) - n_min
    if n_new <= 0:
        empty = np.empty(0, dtype=np.int64)
        return ds, SmoteProvenance(empty, empty, np.empty(0))

    min_rows = np.flatnonzero(ds.labels == minority_label)
    neighbors = minority_neighbors(ds.features[min_rows], cfg.k)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    col = np.empty(n_new, dtype=np.int64)
    lam = np.empty(n_new, dtype=np.float64)
    for s in range(n_new):  # one stream, per row: neighbor, then factor
        col[s], lam[s] = rng.integers(0, neighbors.shape[1]), rng.random()

    parent = np.arange(n_new) % n_min
    parent_index = min_rows[parent]
    neighbor_index = min_rows[neighbors[parent, col]]
    synth = synthesize(ds.features[parent_index], ds.features[neighbor_index], lam)

    labels = np.concatenate([ds.labels, np.full(n_new, minority_label, dtype=np.int64)])
    balanced = FlowDataset(ds.feature_names, np.vstack([ds.features, synth]), labels)
    return balanced, SmoteProvenance(parent_index, neighbor_index, lam)

"""Synthetic flow generator for desk-scale runs and tests.

Produces an imbalanced two-class Gaussian dataset shaped like a flow
CSV: majority rows are benign, minority rows are attacks, and the class
means sit ``separation`` noise standard deviations apart along the unit
diagonal. At 6 sigma the classes are essentially linearly separable, so
a correct pipeline must reach near-perfect test metrics on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow_data import FlowDataset, save_flow_csv

__all__ = ["SyntheticSpec", "make_synthetic", "write_synthetic_csv"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of the generated dataset.

    ``separation`` is the distance between class means measured in units
    of ``noise_scale`` (the per-coordinate standard deviation).
    """

    n_majority: int = 1000
    n_minority: int = 50
    n_features: int = 8
    separation: float = 6.0
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_majority < 1:
            raise ValueError("n_majority must be >= 1")
        if self.n_minority < 2:
            raise ValueError("n_minority must be >= 2")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")
        if not (math.isfinite(self.separation) and self.separation > 0):
            raise ValueError("separation must be finite and positive")
        if not (math.isfinite(self.noise_scale) and self.noise_scale > 0):
            raise ValueError("noise_scale must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def make_synthetic(spec: SyntheticSpec) -> FlowDataset:
    """Draw the two Gaussian blobs; majority rows first, then minority."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    d = spec.n_features
    offset = np.full(d, spec.separation * spec.noise_scale / np.sqrt(d))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        benign = rng.normal(0.0, spec.noise_scale, size=(spec.n_majority, d))
        attack = rng.normal(0.0, spec.noise_scale, size=(spec.n_minority, d)) + offset
    features = np.ascontiguousarray(np.vstack([benign, attack]))
    if not np.isfinite(features).all():
        raise ValueError("separation and noise_scale draw rows that overflow float64")
    labels = np.concatenate(
        [
            np.zeros(spec.n_majority, dtype=np.int64),
            np.ones(spec.n_minority, dtype=np.int64),
        ]
    )
    names = tuple(f"feature_{i}" for i in range(d))
    return FlowDataset(feature_names=names, features=features, labels=labels)


def write_synthetic_csv(spec: SyntheticSpec, path: str) -> FlowDataset:
    """Generate and save as a flow CSV (BENIGN/DDoS tokens); returns the data."""
    ds = make_synthetic(spec)
    save_flow_csv(ds, path)
    return ds

"""DDoS flow detection from first principles.

A complete tabular-flow pipeline: CSV loading and cleaning, SMOTE
oversampling of the minority class, an attention-augmented residual
network trained in two anchored phases with Adagrad, and confusion /
ROC-AUC evaluation. The numeric engine (layers, losses, gradients,
optimizer) is implemented directly on numpy arrays and validated by a
finite-difference gradient checker.

The package exports the data-side names of the README's "Library use";
everything else is imported from its module (``ddosflow.nn``,
``ddosflow.trainer``, ``ddosflow.metrics``, ...).
"""

from .errors import ConfigError, DataError
from .flow_data import (
    SplitConfig,
    apply_scaler,
    clean,
    fit_scaler,
    load_flow_csv,
    train_test_split,
)
from .smote import SmoteConfig, oversample
from .trainer import TrainConfig

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "SplitConfig",
    "SmoteConfig",
    "TrainConfig",
    "load_flow_csv",
    "clean",
    "train_test_split",
    "fit_scaler",
    "apply_scaler",
    "oversample",
    "__version__",
]

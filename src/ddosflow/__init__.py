"""DDoS flow detection from first principles.

A complete tabular-flow pipeline: CSV loading and cleaning, SMOTE
oversampling of the minority class, an attention-augmented residual
network trained in two anchored phases with Adagrad, and confusion /
ROC-AUC evaluation. The numeric engine (layers, losses, gradients,
optimizer) is implemented directly on numpy arrays and validated by a
finite-difference gradient checker.
"""

from .config import (
    DataConfig,
    GradCheckConfig,
    PipelineConfig,
    default_config,
    dumps_config,
    load_config,
    loads_config,
    with_seed,
)
from .errors import ConfigError, DataError
from .flow_data import (
    FlowDataset,
    ScalerParams,
    SplitConfig,
    apply_scaler,
    clean,
    fit_scaler,
    load_feature_matrix,
    load_flow_csv,
    save_flow_csv,
    train_test_split,
)
from .metrics import (
    ConfusionCounts,
    EvalReport,
    accuracy,
    build_report,
    confusion,
    f1,
    format_report_kv,
    format_report_table,
    precision,
    recall,
    roc_auc,
)
from .smote import SmoteConfig, SmoteProvenance, minority_neighbors, oversample, synthesize
from .synth import SyntheticSpec, make_synthetic, write_synthetic_csv
from .trainer import (
    EpochRecord,
    TrainConfig,
    TrainReport,
    classify,
    compute_anchors,
    predict_proba,
    run_dual_phase,
    train_phase1,
    train_phase2,
    write_train_report_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "FlowDataset",
    "ScalerParams",
    "SplitConfig",
    "load_flow_csv",
    "load_feature_matrix",
    "save_flow_csv",
    "clean",
    "train_test_split",
    "fit_scaler",
    "apply_scaler",
    "SmoteConfig",
    "SmoteProvenance",
    "minority_neighbors",
    "synthesize",
    "oversample",
    "ConfusionCounts",
    "EvalReport",
    "confusion",
    "precision",
    "recall",
    "f1",
    "accuracy",
    "roc_auc",
    "build_report",
    "format_report_table",
    "format_report_kv",
    "TrainConfig",
    "EpochRecord",
    "TrainReport",
    "train_phase1",
    "compute_anchors",
    "train_phase2",
    "run_dual_phase",
    "predict_proba",
    "classify",
    "write_train_report_csv",
    "SyntheticSpec",
    "make_synthetic",
    "write_synthetic_csv",
    "DataConfig",
    "GradCheckConfig",
    "PipelineConfig",
    "default_config",
    "load_config",
    "loads_config",
    "dumps_config",
    "with_seed",
    "__version__",
]

"""Pipeline configuration: one JSON document covering every stage.

Defaults are complete — ``print-default-config`` emits the whole
document, and a user config may override any subset of keys. Unknown
keys are rejected by dotted path so typos fail loudly instead of
silently training with defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .errors import ConfigError
from .flow_data import SplitConfig
from .nn import ArchitectureConfig
from .smote import SmoteConfig
from .trainer import TrainConfig

__all__ = [
    "DataConfig",
    "GradCheckConfig",
    "PipelineConfig",
    "default_config",
    "config_to_dict",
    "config_from_dict",
    "dumps_config",
    "loads_config",
    "load_config",
    "with_seed",
]


@dataclass(frozen=True)
class DataConfig:
    """CSV label conventions (CICIDS defaults)."""

    label_column: str = "Label"
    benign_token: str = "BENIGN"
    attack_token: str = "DDoS"

    def __post_init__(self) -> None:
        if not self.label_column:
            raise ValueError("label_column must be non-empty")
        if self.benign_token.strip().casefold() == self.attack_token.strip().casefold():
            raise ValueError("benign_token and attack_token must differ")


@dataclass(frozen=True)
class GradCheckConfig:
    """Shape and tolerances of the self-check model."""

    h: float = 1e-5
    tolerance: float = 1e-4
    batch_rows: int = 6
    n_features: int = 8
    input_width: int = 8
    block_widths: tuple[int, ...] = (8, 8)
    seed: int = 4

    def __post_init__(self) -> None:
        if self.h <= 0 or self.tolerance <= 0:
            raise ValueError("h and tolerance must be positive")
        if self.batch_rows < 2:
            raise ValueError("batch_rows must be >= 2")
        if self.n_features < 1 or self.input_width < 1:
            raise ValueError("widths must be positive")
        if not self.block_widths or any(w < 1 for w in self.block_widths):
            raise ValueError("block_widths must be positive")


@dataclass(frozen=True)
class PipelineConfig:
    data: DataConfig
    split: SplitConfig
    smote: SmoteConfig
    architecture: ArchitectureConfig
    train: TrainConfig
    gradcheck: GradCheckConfig


_SECTIONS: dict[str, type] = {
    "data": DataConfig,
    "split": SplitConfig,
    "smote": SmoteConfig,
    "architecture": ArchitectureConfig,
    "train": TrainConfig,
    "gradcheck": GradCheckConfig,
}


def default_config() -> PipelineConfig:
    """Full defaults; the seed of each stage is distinct (0..4)."""
    return PipelineConfig(
        data=DataConfig(),
        split=SplitConfig(seed=0),
        smote=SmoteConfig(seed=1),
        architecture=ArchitectureConfig(init_seed=2),
        train=TrainConfig(seed=3),
        gradcheck=GradCheckConfig(seed=4),
    )


def config_to_dict(cfg: PipelineConfig) -> dict:
    out: dict[str, dict] = {}
    for section in _SECTIONS:
        d = dataclasses.asdict(getattr(cfg, section))
        out[section] = {
            k: list(v) if isinstance(v, tuple) else v for k, v in d.items()
        }
    return out


def _coerce(path: str, value, expected):
    """Check/convert one JSON value against the default's type."""
    if isinstance(expected, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
        return value
    if isinstance(expected, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if isinstance(expected, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not math.isfinite(value):  # JSON's NaN and Infinity parse
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if isinstance(expected, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if isinstance(expected, tuple):
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{path}: expected a list of integers, got {value!r}")
        return tuple(value)
    raise ConfigError(f"{path}: unsupported value type")  # pragma: no cover


def config_from_dict(doc: dict) -> PipelineConfig:
    """Merge a (possibly partial) config document over the defaults.

    Raises:
        ConfigError: non-object document, unknown section or key (named
            by dotted path), wrong value type, or an invariant violation.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(doc) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown config section {unknown[0]!r}")

    sections = {}
    for section, cls in _SECTIONS.items():
        proto = getattr(default_config(), section)
        given = doc.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{section}: expected a JSON object")
        allowed = {f.name for f in dataclasses.fields(cls)}
        for key in given:
            if key not in allowed:
                raise ConfigError(f"unknown config key {section}.{key!r}")
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name in given:
                kwargs[f.name] = _coerce(
                    f"{section}.{f.name}", given[f.name], getattr(proto, f.name)
                )
            else:
                kwargs[f.name] = getattr(proto, f.name)
        try:
            sections[section] = cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return PipelineConfig(**sections)


def dumps_config(cfg: PipelineConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"


def loads_config(text: str) -> PipelineConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def load_config(path: str) -> PipelineConfig:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return loads_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def with_seed(cfg: PipelineConfig, seed: int) -> PipelineConfig:
    """Re-seed every stage from one master seed (split, SMOTE, init, train, check)."""
    return dataclasses.replace(
        cfg,
        split=dataclasses.replace(cfg.split, seed=seed),
        smote=dataclasses.replace(cfg.smote, seed=seed + 1),
        architecture=dataclasses.replace(cfg.architecture, init_seed=seed + 2),
        train=dataclasses.replace(cfg.train, seed=seed + 3),
        gradcheck=dataclasses.replace(cfg.gradcheck, seed=seed + 4),
    )

"""Pipeline configuration: one JSON document covering every stage.

Defaults are complete — ``print-default-config`` emits the whole
document, and a user config may override any subset of keys. Unknown
keys are rejected by dotted path so typos fail loudly instead of
silently training with defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import ConfigError, _from_dict
from .flow_data import DataConfig, SplitConfig
from .nn import ArchitectureConfig
from .smote import SmoteConfig
from .trainer import TrainConfig

__all__ = [
    "DataConfig",
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
class PipelineConfig:
    data: DataConfig
    split: SplitConfig
    smote: SmoteConfig
    architecture: ArchitectureConfig
    train: TrainConfig


_SECTIONS: dict[str, type] = {
    "data": DataConfig,
    "split": SplitConfig,
    "smote": SmoteConfig,
    "architecture": ArchitectureConfig,
    "train": TrainConfig,
}


def default_config() -> PipelineConfig:
    """Full defaults, with the stage seeds :func:`with_seed` gives seed 0."""
    sections = {name: cls() for name, cls in _SECTIONS.items()}
    return with_seed(PipelineConfig(**sections), 0)


def config_to_dict(cfg: PipelineConfig) -> dict:
    out: dict[str, dict] = {}
    for section in _SECTIONS:
        d = dataclasses.asdict(getattr(cfg, section))
        out[section] = {
            k: list(v) if isinstance(v, tuple) else v for k, v in d.items()
        }
    return out


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
    defaults = default_config()
    return PipelineConfig(
        **{s: _from_dict(getattr(defaults, s), doc.get(s, {}), s) for s in _SECTIONS}
    )


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
    """Re-seed every stage from one master seed (split, SMOTE, init, train)."""
    return dataclasses.replace(
        cfg,
        split=dataclasses.replace(cfg.split, seed=seed),
        smote=dataclasses.replace(cfg.smote, seed=seed + 1),
        architecture=dataclasses.replace(cfg.architecture, init_seed=seed + 2),
        train=dataclasses.replace(cfg.train, seed=seed + 3),
    )

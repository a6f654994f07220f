"""One JSON document drives the pipeline; typos and bad values fail loudly."""

import json

import pytest

from ddosflow.config import (
    config_from_dict,
    config_to_dict,
    default_config,
    dumps_config,
    load_config,
    loads_config,
    with_seed,
)
from ddosflow.errors import ConfigError


def test_defaults_round_trip_through_json():
    cfg = default_config()
    text = dumps_config(cfg)
    assert loads_config(text) == cfg
    doc = json.loads(text)
    assert set(doc) == {"data", "split", "smote", "architecture", "train", "gradcheck"}


def test_empty_document_gives_defaults():
    assert config_from_dict({}) == default_config()


def test_default_stage_seeds_are_distinct():
    cfg = default_config()
    assert cfg.split.seed == 0
    assert cfg.smote.seed == 1
    assert cfg.architecture.init_seed == 2
    assert cfg.train.seed == 3
    assert cfg.gradcheck.seed == 4
    assert cfg == with_seed(default_config(), 0)


def test_partial_override_merges_over_defaults():
    cfg = config_from_dict(
        {"train": {"epochs_phase1": 7}, "smote": {"k": 3}}
    )
    assert cfg.train.epochs_phase1 == 7
    assert cfg.train.epochs_phase2 == default_config().train.epochs_phase2
    assert cfg.smote.k == 3
    assert cfg.split == default_config().split


def test_block_widths_list_becomes_tuple():
    cfg = config_from_dict({"architecture": {"block_widths": [16, 8]}})
    assert cfg.architecture.block_widths == (16, 8)
    assert config_to_dict(cfg)["architecture"]["block_widths"] == [16, 8]


def test_unknown_section_rejected_by_name():
    with pytest.raises(ConfigError, match="unknown config section 'trian'"):
        config_from_dict({"trian": {}})


def test_unknown_key_rejected_by_dotted_path():
    with pytest.raises(ConfigError, match="unknown config key train.'epochs'"):
        config_from_dict({"train": {"epochs": 10}})


def test_non_object_document_rejected():
    with pytest.raises(ConfigError, match="JSON object"):
        config_from_dict([1, 2])
    with pytest.raises(ConfigError, match="expected a JSON object"):
        config_from_dict({"train": 5})


def test_type_mismatches_rejected_with_path():
    with pytest.raises(ConfigError, match="train.epochs_phase1"):
        config_from_dict({"train": {"epochs_phase1": "many"}})
    with pytest.raises(ConfigError, match="expected an integer"):
        config_from_dict({"train": {"epochs_phase1": 1.5}})
    with pytest.raises(ConfigError, match="expected true/false"):
        config_from_dict({"split": {"stratify": 1}})
    with pytest.raises(ConfigError, match="expected a list of integers"):
        config_from_dict({"architecture": {"block_widths": [8, "x"]}})
    with pytest.raises(ConfigError, match="expected a string"):
        config_from_dict({"data": {"label_column": 3}})


def test_bool_is_not_an_integer():
    with pytest.raises(ConfigError, match="expected an integer"):
        config_from_dict({"train": {"seed": True}})


def test_int_coerces_to_float():
    cfg = config_from_dict({"train": {"eta": 1}})
    assert cfg.train.eta == 1.0
    assert isinstance(cfg.train.eta, float)


def test_invariant_violations_name_the_section():
    with pytest.raises(ConfigError, match="split: test_fraction"):
        config_from_dict({"split": {"test_fraction": 2.0}})
    with pytest.raises(ConfigError, match="train: "):
        config_from_dict({"train": {"batch_size": 0}})
    with pytest.raises(ConfigError, match="train: batch_size must be >= 2"):
        config_from_dict({"train": {"batch_size": 1}})
    with pytest.raises(ConfigError, match="smote: k"):
        config_from_dict({"smote": {"k": 0}})


def test_with_seed_rederives_every_stage():
    cfg = with_seed(default_config(), 100)
    assert cfg.split.seed == 100
    assert cfg.smote.seed == 101
    assert cfg.architecture.init_seed == 102
    assert cfg.train.seed == 103
    assert cfg.gradcheck.seed == 104
    # everything that is not a seed is untouched
    assert cfg.train.epochs_phase1 == default_config().train.epochs_phase1
    assert cfg.architecture.block_widths == default_config().architecture.block_widths


def test_loads_rejects_invalid_json():
    with pytest.raises(ConfigError, match="not valid JSON"):
        loads_config("{nope")


def test_load_config_prefixes_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{bad json")
    with pytest.raises(ConfigError, match=str(p)):
        load_config(str(p))
    p.write_text(dumps_config(default_config()))
    assert load_config(str(p)) == default_config()


def test_dumps_is_stable():
    a = dumps_config(default_config())
    b = dumps_config(loads_config(a))
    assert a == b
    assert a.endswith("\n")

"""Every name a package or module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import ddosflow
import ddosflow.nn


def _modules():
    names = []
    for package in (ddosflow, ddosflow.nn):
        names.append(package.__name__)
        names += [
            f"{package.__name__}.{info.name}"
            for info in pkgutil.iter_modules(package.__path__)
            if not info.ispkg
        ]
    return sorted(names)


def test_every_module_is_covered():
    mods = _modules()
    assert "ddosflow.trainer" in mods and "ddosflow.nn.model" in mods


@pytest.mark.parametrize("module_name", _modules())
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []

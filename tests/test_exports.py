"""Every name a package or module exports through ``__all__`` exists, and
the packages export exactly the names the README's API section lists."""

import importlib
import pathlib
import pkgutil
import re

import pytest

import ddosflow
import ddosflow.nn

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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


def _readme_api():
    """``{package: [names]}`` from the README's API list items."""
    section = README.read_text().split("\n## API\n", 1)[1]
    items = re.findall(r"^- `([\w.]+)`:(.*?)(?=^- |\Z)", section, re.MULTILINE | re.DOTALL)
    return {package: re.findall(r"`(\w+)`", names) for package, names in items}


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


@pytest.mark.parametrize("package", [ddosflow, ddosflow.nn], ids=lambda p: p.__name__)
def test_package_exports_match_readme(package):
    assert package.__all__ == _readme_api()[package.__name__]

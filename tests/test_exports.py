"""Every name a package or module exports through ``__all__`` exists, the
packages export exactly the names the README's API section lists, and the
package imports itself only by relative imports."""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import ddosflow
import ddosflow.nn
from ddosflow.nn import ArchitectureConfig, init_model, save_model

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


def test_load_model_runs_with_only_the_nn_package_imported(tmp_path):
    """``load_model`` imports ``ddosflow.config`` (which imports
    ``ddosflow.nn``) when it runs. A fresh interpreter that has imported only
    ``ddosflow.nn`` is the one order in which that import comes first; this
    process imported ``config`` while collecting the tests."""
    path = tmp_path / "m.txt"
    save_model(init_model(3, ArchitectureConfig(input_width=2, block_widths=(2,))), str(path))
    code = (
        "import sys\n"
        "import ddosflow.nn\n"
        "assert 'ddosflow.config' not in sys.modules\n"
        "model, extra = ddosflow.nn.load_model(sys.argv[1])\n"
        "assert (model.n_features, model.arch.block_widths, extra) == (3, (2,), {})\n"
    )
    src = str(pathlib.Path(ddosflow.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("package", [ddosflow, ddosflow.nn], ids=lambda p: p.__name__)
def test_package_exports_match_readme(package):
    assert package.__all__ == _readme_api()[package.__name__]


def test_package_imports_itself_only_relatively():
    """A copy of ``src/ddosflow`` loaded under another package name (two
    trees side by side in one process) must not reach back into whichever
    ``ddosflow`` is installed, so no module names it absolutely."""
    root = pathlib.Path(ddosflow.__file__).resolve().parent
    absolute = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            absolute += [
                f"{path.relative_to(root)}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] == "ddosflow"
            ]
    assert len(list(root.rglob("*.py"))) > 10
    assert absolute == []

"""Every name a package or module exports through ``__all__`` exists, the
packages export exactly the names the README's API section lists, the
package imports itself only by relative imports, at module level and
without a cycle, and every name the benchmark's traced run replaces exists."""

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

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = pathlib.Path(ddosflow.__file__).resolve().parent
README = ROOT / "README.md"


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


def _fresh_python(*args):
    """``python *args`` in a fresh interpreter that imports this package."""
    src = str(SRC.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_load_model_runs_with_only_the_nn_package_imported(tmp_path):
    """``load_model`` checks a manifest by the config's value rules, which
    ``ddosflow.errors`` holds, so a fresh interpreter that has imported only
    ``ddosflow.nn`` loads a model without importing ``ddosflow.config``; this
    process imported ``config`` while collecting the tests."""
    path = tmp_path / "m.txt"
    save_model(init_model(3, ArchitectureConfig(input_width=2, block_widths=(2,))), str(path))
    code = (
        "import sys\n"
        "import ddosflow.nn\n"
        "assert 'ddosflow.config' not in sys.modules\n"
        "model, extra = ddosflow.nn.load_model(sys.argv[1])\n"
        "assert (model.n_features, model.arch.block_widths, extra) == (3, (2,), {})\n"
        "assert 'ddosflow.config' not in sys.modules\n"
    )
    done = _fresh_python("-c", code, str(path))
    assert done.returncode == 0, done.stderr


def _imports(path):
    """``(node, names, top)`` for each import statement of the module at
    ``path``: the absolute names of the modules (and, for ``from``, of the
    names) it imports, and whether it is a statement of the module's body."""
    tree = ast.parse(path.read_text(), str(path))
    package = ["ddosflow", *path.relative_to(SRC).parent.parts]
    body = set(map(id, tree.body))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        yield node, names, id(node) in body


def test_the_import_graph_is_a_module_level_one_without_cycles():
    """Every import is a statement of its module's body: none inside a
    function, where it would hide a cycle until the function runs, and no
    ``if TYPE_CHECKING`` block. Only ``cli`` imports ``config``, which
    imports the modules whose settings it gathers."""
    nested, config_users = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node, names, top in _imports(path):
            where = f"{path.relative_to(SRC)}:{node.lineno}"
            if not top:
                nested.append(where)
            if "ddosflow.config" in names and path.name != "cli.py":
                config_users.append(where)
    assert nested == []
    assert config_users == []


@pytest.mark.parametrize("module_name", _modules())
def test_each_module_imports_alone_in_a_fresh_interpreter(module_name):
    """Imported first, a module takes what it needs from modules that have
    finished importing; a cycle of module-level imports fails here."""
    done = _fresh_python("-c", f"import {module_name}")
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


def test_every_name_the_traced_benchmark_replaces_exists():
    """``perfbench/layers.py`` times the commands by replacing, for the run,
    each ``(module, name)`` key of its ``WRAPS`` table by a traced call; a
    name the program no longer looks up in that module fails the benchmark.
    The file is parsed, not imported, so no benchmark code runs here."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAPS"]
    ]
    keys = [(key.elts[0].id, key.elts[1].value) for key in table.keys]
    assert len(keys) > 20
    missing = [
        f"{module}.{name}" for module, name in keys
        if not hasattr(importlib.import_module(f"ddosflow.{module}"), name)
    ]
    assert missing == []

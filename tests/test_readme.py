"""README's "Library use" snippet runs as written against the package."""

import pathlib
import re

import numpy as np

from ddosflow.cli import main
from ddosflow.smote import synthesize

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_snippet():
    text = README.read_text()
    section = text[text.index("## Library use") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_snippet_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "flows.csv", "--seed", "0"]) == 0
    ns = {}
    exec(compile(_library_snippet(), "README.md", "exec"), ns)
    assert "roc_auc" in capsys.readouterr().out

    # the snippet's comment on provenance holds
    train_s, balanced, prov = ns["train_s"], ns["balanced"], ns["provenance"]
    synth = balanced.features[train_s.n_rows :]
    assert synth.shape[0] == len(prov.parent_index) > 0
    expected = synthesize(
        train_s.features[prov.parent_index],
        train_s.features[prov.neighbor_index],
        prov.lambda_interp,
    )
    np.testing.assert_array_equal(synth, expected)

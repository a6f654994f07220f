"""README's "Quick start" commands and "Library use" snippet run as
written against the package."""

import pathlib
import re
import shlex

import numpy as np

from ddosflow.cli import main
from ddosflow.smote import synthesize

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _code_block(heading, language):
    text = README.read_text()
    section = text[text.index(heading) :]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def _library_snippet():
    return _code_block("## Library use", "python")


def test_quick_start_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line)
        for line in _code_block("## Quick start", "sh").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    assert [argv[:2] for argv in commands] == [
        ["ddosflow", name] for name in ("synth", "train", "evaluate", "predict", "gradcheck")
    ]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "run" / "model.txt").is_file()
    assert (tmp_path / "predictions.csv").read_text().startswith("row,probability,label\n")


def test_library_use_snippet_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "flows.csv", "--seed", "0"]) == 0
    ns = {}
    exec(compile(_library_snippet(), "README.md", "exec"), ns)
    assert "roc_auc" in capsys.readouterr().out

    # the snippet's saved model scores flows.csv as `ddosflow predict` does, bit for bit
    assert main(["predict", "--model", "model.txt", "--data", "flows.csv", "--out", "pred.csv"]) == 0
    predicted = [line.split(",")[:2] for line in (tmp_path / "pred.csv").read_text().splitlines()[1:]]
    scored = [[str(r), repr(p)] for r, p in zip(ns["rows"].tolist(), ns["scores"].tolist())]
    assert scored == predicted and len(scored) == 1050

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

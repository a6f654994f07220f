"""Tiny-size smoke runs of the whole benchmark, untraced and traced."""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import rounds  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY_CICIDS = dataclasses.replace(
    workloads.WORKLOADS["cicids"].train, n_benign=400, n_attack=100
)
TINY = {
    "desk": dict(train=workloads.FileSpec(200, 20), capture=workloads.FileSpec(300, 30)),
    "cicids": dict(train=TINY_CICIDS, capture=dataclasses.replace(TINY_CICIDS, inf_share=0.0)),
}
# one known-fault operation per round, and how many operations a round has
ROUND = {"desk": (1, 16), "cicids": (1, 19)}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(rounds, "WORK", str(tmp_path))
    small = {
        name: dataclasses.replace(wl, **TINY[name]) for name, wl in workloads.WORKLOADS.items()
    }
    # a default-config train of the desk shape takes seconds; keep it short
    small["desk"] = dataclasses.replace(
        small["desk"], config={"train": {"epochs_phase1": 2, "epochs_phase2": 2}}
    )
    monkeypatch.setattr(workloads, "WORKLOADS", small)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(ROUND))
def test_untraced_run_reports_every_end_to_end_metric(tiny, capsys, name):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["failed"], result["attempted"]) == ROUND[name]
    assert set(result["metrics"]) == set(run.UNITS)
    for metric, m in result["metrics"].items():
        assert m["unit"] == run.UNITS[metric]
        assert m["value"] > 0


def test_traced_run_reports_every_per_layer_metric(tiny, capsys):
    import layers

    assert run.main(["--workload", "cicids", "--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
    result = _result(capsys)
    assert result["correct"] is True
    # one round; two untraced trains and two traced train/evaluate/predict
    # passes in-process; the SMOTE and persistence checks
    failed, attempted = ROUND["cicids"]
    assert (result["failed"], result["attempted"]) == (failed, attempted + 2 + 6 + 3)
    assert set(result["metrics"]) == set(layers.UNITS)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["smote.synthetic_rows"] > 0
    assert values["trainer.steps"] > 0
    assert values["flow_data.rows_dropped"] > 0 and values["flow_data.inf_cells"] > 0
    # every wrapped name is the program's own again once the pass is over
    for (module, attr), _ in layers.WRAPS.items():
        assert getattr(module, attr).__module__.startswith("ddosflow")


def test_a_probe_failure_is_known_only_with_the_faults_symptom():
    ledger = rounds.Ledger(known=frozenset({"probe-train"}))
    ledger.record("probe-train", False, "batch size >= 2", symptom=True)
    assert ledger.unexpected == []
    ledger.record("probe-train", False, "data error: no such file", symptom=False)
    ledger.record("train", False, "batch size >= 2", symptom=True)
    assert ledger.unexpected == ["probe-train", "train"]
    assert (ledger.attempted, ledger.failed) == (3, 3)


def test_benchmark_json_lists_every_metric_the_run_prints():
    import layers

    with open(os.path.join(rounds.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(rounds, "SRC", str(tmp_path))
    assert run.main(["--workload", "desk", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_a_commands_peak_rss_leaves_out_the_benchmarks_own_memory(monkeypatch, tmp_path):
    monkeypatch.setattr(rounds, "WORK", str(tmp_path))
    held = np.ones(200 * 2**20 // 8)  # 200 MB, every page touched
    cmd = rounds.run_child(["-c", "pass"])
    assert cmd.ok
    assert cmd.maxrss_mb < 100 < held.nbytes / 2**20

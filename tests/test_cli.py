"""Command-line behavior: exit codes, file outputs, determinism."""

import hashlib
import json
import re

import numpy as np
import pytest

from ddosflow.cli import main
from ddosflow.config import default_config, dumps_config, loads_config
from ddosflow.nn import load_model


FAST_CONFIG = {
    "train": {"epochs_phase1": 8, "epochs_phase2": 8, "batch_size": 64},
    "architecture": {"input_width": 8, "block_widths": [8, 8]},
}


def write_fast_config(tmp_path, **extra_sections):
    doc = {k: dict(v) for k, v in FAST_CONFIG.items()}
    for section, keys in extra_sections.items():
        doc.setdefault(section, {}).update(keys)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def make_data(tmp_path, name="flows.csv", seed=0, majority=120, minority=30):
    path = tmp_path / name
    rc = main(
        [
            "synth",
            "--out", str(path),
            "--n-majority", str(majority),
            "--n-minority", str(minority),
            "--n-features", "4",
            "--seed", str(seed),
        ]
    )
    assert rc == 0
    return str(path)


def run_train(tmp_path, data, out="run", config=None, extra=()):
    outdir = tmp_path / out
    argv = ["train", "--data", data, "--out", str(outdir)]
    if config:
        argv += ["--config", config]
    argv += list(extra)
    rc = main(argv)
    return rc, outdir


# --------------------------------------------------------------- plumbing

def test_print_default_config_round_trips(capsys):
    assert main(["print-default-config"]) == 0
    text = capsys.readouterr().out
    assert loads_config(text) == default_config()


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", "x.csv", "--bogus"])
    assert exc.value.code == 1


def test_missing_required_argument():
    with pytest.raises(SystemExit) as exc:
        main(["synth"])
    assert exc.value.code == 1


# ------------------------------------------------------------------ synth

def test_synth_writes_deterministic_csv(tmp_path, capsys):
    a = make_data(tmp_path, "a.csv", seed=5)
    b = make_data(tmp_path, "b.csv", seed=5)
    c = make_data(tmp_path, "c.csv", seed=6)
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a, "rb").read() != open(c, "rb").read()
    header = open(a).readline().strip().split(",")
    assert header[-1] == "Label"
    assert len(header) == 5


# ------------------------------------------------------------------ train

def test_train_produces_model_and_reports(tmp_path, capsys):
    data = make_data(tmp_path)
    cfg = write_fast_config(tmp_path)
    rc, outdir = run_train(tmp_path, data, config=cfg)
    assert rc == 0
    assert (outdir / "model.txt").exists()
    assert (outdir / "train_report.csv").exists()
    assert (outdir / "eval_report.txt").exists()
    assert (outdir / "eval_report.kv").exists()
    out = capsys.readouterr().out
    assert "Accuracy" in out
    # 95 benign + 25 attack training rows; SMOTE adds 70 attack rows
    assert "train 120 rows -> 190 after oversampling (70 synthetic); test 30 rows" in out
    kv = dict(
        line.split("=", 1)
        for line in (outdir / "eval_report.kv").read_text().strip().splitlines()
    )
    assert 0.0 <= float(kv["accuracy"]) <= 1.0
    report_lines = (outdir / "train_report.csv").read_text().strip().splitlines()
    assert report_lines[0] == "phase,epoch,loss,accuracy"
    assert len(report_lines) == 1 + 16  # 8 epochs per phase


def test_train_reruns_are_byte_identical(tmp_path):
    data = make_data(tmp_path)
    cfg = write_fast_config(tmp_path)
    _, out1 = run_train(tmp_path, data, out="r1", config=cfg)
    _, out2 = run_train(tmp_path, data, out="r2", config=cfg)
    for name in ("model.txt", "train_report.csv", "eval_report.txt", "eval_report.kv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# sha256 of each artifact of a `train` run on make_data()'s CSV, and of the
# `evaluate --out` report and `predict` CSV of its model on a capture, recorded
# with NumPy 2.4.6 (scipy-openblas 0.3.31). A refactor that is meant to keep
# behaviour must keep these bytes; a change that moves floats on purpose
# re-records them and says so. Another BLAS or NumPy build may round a
# matrix product differently, which fails this test without any change of
# the program.
PINNED_ARTIFACTS = {
    "default": (
        {},
        {
            "model.txt": "f39529c030d6af97eed11bbdb8da5a3a7b48196ce3d7e2cf764f90253446cb0a",
            "train_report.csv": "1932924986db565a678a113786fcdd85d1cc421ce73777120d51e30151be4657",
            "eval_report.txt": "b20b79b9263738ac150647bc9794b650cf78f92477eb46fd7ea4995f3117e4ed",
            "eval_report.kv": "a020ade51020d616d0b659a88697f087eb8a17c690bb0b7010213186a3642388",
            "capture_report.kv": "35f57fd21ebc97837c54c2454c6a65d40edadee22947dcac4daf37906831b16f",
            "predictions.csv": "91acb343e838c922fa5084e13fe502e3923d667167781429f4a2596e18e06631",
        },
    ),
    # projection shortcut on block 1 and an attention layer after each block
    "projection-attention-each": (
        {"architecture": {"block_widths": [8, 6], "attention_after_each": True}},
        {
            "model.txt": "922498a25566fceef7530167fb3314bd3336c60e4a5496cdba2bd05501fd1095",
            "train_report.csv": "ae8a491508a4093ad49b8a9f073d1f6e8f097bcf5943663dff6e8ef20ca0a894",
            "eval_report.txt": "b011a3a6ccdac9230ef1b23908b192cb79a7aded0d97bacaaf40f676f744521f",
            "eval_report.kv": "e14b7d195209a2338757f250b6dc170fc3a5ad887cfbf1ef252318c889ef9b40",
            "capture_report.kv": "01da2e3f82e0cf96938f2399d7179e7d2962ae56a6b07b8d09577edb06cf5af8",
            "predictions.csv": "1414d9e7c7b79a1d752c5d4384b3cf51d4343cc332995681c695f7b20474d537",
        },
    ),
}


@pytest.mark.parametrize("wiring", sorted(PINNED_ARTIFACTS))
def test_train_artifacts_match_pinned_digests(tmp_path, wiring):
    sections, digests = PINNED_ARTIFACTS[wiring]
    data = make_data(tmp_path)
    cfg = write_fast_config(tmp_path, **sections)
    rc, outdir = run_train(tmp_path, data, config=cfg)
    assert rc == 0
    # the trained model scores a capture that spans several scoring chunks
    capture = make_data(tmp_path, "capture.csv", seed=1, majority=1200, minority=100)
    model = str(outdir / "model.txt")
    report, predictions = outdir / "capture_report.kv", outdir / "predictions.csv"
    assert main(["evaluate", "--model", model, "--data", capture, "--out", str(report)]) == 0
    assert main(["predict", "--model", model, "--data", capture, "--out", str(predictions)]) == 0
    got = {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in digests
    }
    assert got == digests


def test_train_seed_override_changes_model(tmp_path):
    data = make_data(tmp_path)
    cfg = write_fast_config(tmp_path)
    _, out1 = run_train(tmp_path, data, out="r1", config=cfg, extra=["--seed", "1"])
    _, out2 = run_train(tmp_path, data, out="r2", config=cfg, extra=["--seed", "2"])
    assert (out1 / "model.txt").read_bytes() != (out2 / "model.txt").read_bytes()


def test_train_missing_data_file(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_train_invalid_config(tmp_path, capsys):
    data = make_data(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"train": {"epochs": 3}}')
    rc, _ = run_train(tmp_path, data, config=str(bad))
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


def test_train_unparseable_config(tmp_path, capsys):
    data = make_data(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    rc, _ = run_train(tmp_path, data, config=str(bad))
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_train_one_class_test_split_fails_before_training(tmp_path, capsys):
    # 40 benign + 2 attack rows: split seed 0 puts no attack row among the
    # 8 test rows, which would leave AUC undefined after training
    data = make_data(tmp_path, majority=40, minority=2)
    cfg = write_fast_config(
        tmp_path, train={"epochs_phase1": 3, "epochs_phase2": 3}, split={"seed": 0}
    )
    rc, outdir = run_train(tmp_path, data, config=cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert "split: test split has 8 benign and 0 attack rows" in err
    assert "split.stratify" in err
    assert not (outdir / "model.txt").exists()
    assert not (outdir / "train_report.csv").exists()


def test_train_split_with_one_minority_row_fails_before_smote(tmp_path, capsys):
    # stratified, 40 benign + 2 attack rows leave one attack row for
    # training; SMOTE interpolates between two, so the split stage stops
    data = make_data(tmp_path, majority=40, minority=2)
    cfg = write_fast_config(
        tmp_path,
        train={"epochs_phase1": 3, "epochs_phase2": 3},
        split={"seed": 0, "stratify": True},
    )
    rc, outdir = run_train(tmp_path, data, config=cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert "split: training split has 32 benign and 1 attack rows" in err
    assert "SMOTE needs at least 2 rows of each class" in err
    assert not (outdir / "model.txt").exists()
    assert not (outdir / "train_report.csv").exists()


def test_train_empty_csv(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    p.write_text("feature_0,Label\n")
    assert main(["train", "--data", str(p), "--out", str(tmp_path / "o")]) == 2


def test_train_duplicate_header_is_a_data_error(tmp_path, capsys):
    p = tmp_path / "dup.csv"
    p.write_text("a,a,Label\n1,2,BENIGN\n3,4,DDoS\n")
    assert main(["train", "--data", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "load: " in err and "duplicate column names: a" in err


# --------------------------------------------------------------- evaluate

@pytest.fixture
def trained(tmp_path):
    data = make_data(tmp_path)
    cfg = write_fast_config(tmp_path)
    rc, outdir = run_train(tmp_path, data, config=cfg)
    assert rc == 0
    return data, str(outdir / "model.txt")


def test_evaluate_matches_training_eval(trained, tmp_path, capsys):
    data, model = trained
    out = tmp_path / "eval.kv"
    assert main(["evaluate", "--model", model, "--data", data, "--out", str(out)]) == 0
    kv = dict(line.split("=", 1) for line in out.read_text().strip().splitlines())
    # the model separates its own easy training data essentially perfectly
    assert float(kv["accuracy"]) >= 0.99
    assert float(kv["roc_auc"]) >= 0.99


def test_evaluate_rejects_column_mismatch(trained, tmp_path, capsys):
    data, model = trained
    rows = open(data).read().splitlines()
    header = rows[0].split(",")
    header[0] = "renamed_column"
    mangled = tmp_path / "mangled.csv"
    mangled.write_text("\n".join([",".join(header)] + rows[1:]) + "\n")
    assert main(["evaluate", "--model", model, "--data", str(mangled)]) == 2
    err = capsys.readouterr().err
    assert "feature columns do not match the model" in err
    assert "feature_0" in err and "renamed_column" in err


def test_evaluate_threshold_override(trained, tmp_path):
    data, model = trained
    lo = tmp_path / "lo.kv"
    hi = tmp_path / "hi.kv"
    main(["evaluate", "--model", model, "--data", data, "--threshold", "0.0001", "--out", str(lo)])
    main(["evaluate", "--model", model, "--data", data, "--threshold", "0.9999", "--out", str(hi)])
    lo_kv = dict(l.split("=", 1) for l in lo.read_text().strip().splitlines())
    hi_kv = dict(l.split("=", 1) for l in hi.read_text().strip().splitlines())
    # near-zero threshold flags everything; near-one flags almost nothing
    assert int(lo_kv["tp"]) + int(lo_kv["fp"]) > int(hi_kv["tp"]) + int(hi_kv["fp"])


def test_evaluate_missing_model(tmp_path, capsys):
    data = make_data(tmp_path)
    assert main(["evaluate", "--model", str(tmp_path / "no.txt"), "--data", data]) == 2


def test_evaluate_corrupt_model(tmp_path, capsys):
    data = make_data(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_text("not a model\n")
    assert main(["evaluate", "--model", str(bad), "--data", data]) == 1
    assert "not a model file" in capsys.readouterr().err


def _drop(key):
    def edit(manifest):
        del manifest[key]
        return manifest
    return edit


def _bogus_architecture_key(manifest):
    manifest["architecture"]["bogus"] = 1
    return manifest


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda manifest: list(manifest), "manifest is not a JSON object"),
        (_drop("architecture"), "manifest lacks 'architecture'"),
        (_drop("n_features"), "manifest lacks 'n_features'"),
        (_bogus_architecture_key, "manifest rejected: .*bogus"),
    ],
    ids=["not-an-object", "no-architecture", "no-n_features", "unknown-architecture-key"],
)
def test_evaluate_malformed_manifest_is_named(trained, tmp_path, capsys, edit, message):
    data, model = trained
    lines = open(model).read().splitlines()
    manifest = edit(json.loads(lines[1][len("manifest "):]))
    lines[1] = "manifest " + json.dumps(manifest)
    bad = tmp_path / "bad_manifest.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_model(str(bad))
    assert main(["evaluate", "--model", str(bad), "--data", data]) == 1
    assert re.search(f"error: load-model: .*{message}", capsys.readouterr().err)


def test_evaluate_scores_a_one_class_capture(trained, tmp_path, capsys):
    data, model = trained
    benign = make_data(tmp_path, name="benign.csv", seed=5, majority=200, minority=2)
    rows = open(benign).read().splitlines()
    rows = rows[:1] + [r for r in rows[1:] if r.endswith(",BENIGN")]
    assert len(rows) == 1 + 200
    only = tmp_path / "benign_only.csv"
    only.write_text("\n".join(rows) + "\n")
    out = tmp_path / "eval.kv"
    rc = main(["evaluate", "--model", model, "--data", str(only), "--out", str(out)])
    assert rc == 0
    kv = dict(line.split("=", 1) for line in out.read_text().strip().splitlines())
    assert kv["roc_auc"] == "0.0"
    assert "roc_auc" in kv["degenerate"].split(",")
    assert int(kv["tn"]) + int(kv["fp"]) == 200


# ---------------------------------------------------------------- predict

def test_predict_scores_every_clean_row(trained, tmp_path, capsys):
    data, model = trained
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", model, "--data", data, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "row,probability,label"
    assert len(lines) == 1 + 150
    probs = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(0.0 < p < 1.0 for p in probs)
    labels = {l.split(",")[2] for l in lines[1:]}
    assert labels <= {"BENIGN", "DDoS"}


def test_predict_drops_unparseable_rows(trained, tmp_path, capsys):
    data, model = trained
    rows = open(data).read().splitlines()
    parts = rows[1].split(",")
    parts[0] = "garbage"
    rows[1] = ",".join(parts)
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("\n".join(rows) + "\n")
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", model, "--data", str(dirty), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 149  # one row dropped
    first_rows = [int(l.split(",")[0]) for l in lines[1:3]]
    assert first_rows == [2, 3]  # row 1 was the dropped one
    assert "dropped 1" in capsys.readouterr().out


def test_predict_threshold_changes_labels(trained, tmp_path):
    data, model = trained
    lo = tmp_path / "lo.csv"
    main(["predict", "--model", model, "--data", data, "--out", str(lo), "--threshold", "0.0001"])
    labels = [l.split(",")[2] for l in lo.read_text().strip().splitlines()[1:]]
    assert labels.count("DDoS") == 150  # everything is above the floor threshold


def test_predict_ignores_extra_columns(trained, tmp_path):
    data, model = trained
    rows = open(data).read().splitlines()
    header = rows[0].split(",")
    aug = [",".join(header[:-1] + ["extra", header[-1]])]
    for r in rows[1:]:
        cells = r.split(",")
        aug.append(",".join(cells[:-1] + ["999", cells[-1]]))
    augmented = tmp_path / "aug.csv"
    augmented.write_text("\n".join(aug) + "\n")
    base = tmp_path / "base.csv"
    plus = tmp_path / "plus.csv"
    main(["predict", "--model", model, "--data", data, "--out", str(base)])
    main(["predict", "--model", model, "--data", str(augmented), "--out", str(plus)])
    assert base.read_bytes() == plus.read_bytes()


def test_predict_duplicate_feature_column(trained, tmp_path, capsys):
    _, model = trained
    dup = tmp_path / "dup.csv"
    dup.write_text(
        "feature_0,feature_1,feature_2,feature_3,feature_1\n"
        "1,2,3,4,5\n6,7,8,9,10\n"
    )
    rc = main(["predict", "--model", model, "--data", str(dup), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "duplicate column names: feature_1" in capsys.readouterr().err


def test_predict_missing_feature_column(trained, tmp_path, capsys):
    data, model = trained
    rows = open(data).read().splitlines()
    keep = [0, 1, 3, 4]  # drop feature_2 (columns: f0 f1 f2 f3 Label)
    slim = ["\n".join(",".join(r.split(",")[i] for i in keep) for r in rows)]
    slimmed = tmp_path / "slim.csv"
    slimmed.write_text(slim[0] + "\n")
    rc = main(["predict", "--model", model, "--data", str(slimmed), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "feature_2" in capsys.readouterr().err


# --------------------------------------------------------------- gradcheck

def test_gradcheck_passes_at_default_tolerance(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "gradient check passed" in out
    assert out.count("[PASS]") == 3  # one verdict per loss


def test_gradcheck_fails_at_impossible_tolerance(capsys):
    assert main(["gradcheck", "--tolerance", "1e-12"]) == 3
    captured = capsys.readouterr()
    assert "FAILED" in captured.err


def test_gradcheck_honors_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gradcheck": {"batch_rows": 4, "block_widths": [6]}}))
    assert main(["gradcheck", "--config", str(cfg)]) == 0


# ------------------------------------------------------------- alignment

def test_align_features_keeps_a_dataset_already_in_model_order():
    from ddosflow.cli import _align_features
    from ddosflow.flow_data import FlowDataset

    ds = FlowDataset(("a", "b"), np.array([[1.0, 2.0]]), np.array([1]))
    assert _align_features(ds, ("a", "b")) is ds
    swapped = _align_features(ds, ("b", "a"))
    assert swapped.feature_names == ("b", "a")
    np.testing.assert_array_equal(swapped.features, [[2.0, 1.0]])

"""Command-line behavior: exit codes, file outputs, determinism."""

import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddosflow
from ddosflow import cli
from ddosflow.cli import _stage, main
from ddosflow.config import DataConfig, default_config, dumps_config, loads_config
from ddosflow.flow_data import load_feature_matrix
from ddosflow.nn import load_model, save_model
from ddosflow.trainer import Detector


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


def make_data(tmp_path, name="flows.csv", seed=0, majority=120, minority=30, n_features=4):
    path = tmp_path / name
    rc = main(
        [
            "synth",
            "--out", str(path),
            "--n-majority", str(majority),
            "--n-minority", str(minority),
            "--n-features", str(n_features),
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
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert Path(a).read_bytes() != Path(c).read_bytes()
    header = Path(a).read_text().splitlines()[0].strip().split(",")
    assert header[-1] == "Label"
    assert len(header) == 5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seed", "-1"], "error: seed must be >= 0"),
        (["--separation", "nan"], "error: separation must be finite and positive"),
        (["--separation", "inf"], "error: separation must be finite and positive"),
        (["--noise-scale", "inf"], "error: noise_scale must be finite and positive"),
        (["--noise-scale", "1e308"], "error: separation and noise_scale draw rows that overflow float64"),
    ],
    ids=["seed-negative", "separation-nan", "separation-inf", "noise-inf", "noise-overflows"],
)
def test_synth_refuses_a_spec_that_draws_no_finite_rows(tmp_path, capsys, argv, message):
    """A negative seed, or a separation or noise scale that is not finite or
    draws rows that overflow, exits 1 before the file is written; no NumPy
    warning escapes, as pytest makes each one an error."""
    out = tmp_path / "flows.csv"
    assert main(["synth", "--out", str(out), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""
    assert not out.exists()


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


def test_train_clamps_smote_k_without_a_warning(tmp_path, capsys):
    """66 rows with 6 attacks, stratified: the training split holds 5 attack
    rows, so SMOTE's k=5 is clamped to 4. The clamp is a reported run fact,
    not a warning, which pytest (as CI's entry-point step) would raise."""
    data = make_data(tmp_path, majority=60, minority=6)
    cfg = write_fast_config(tmp_path, split={"stratify": True})
    rc, outdir = run_train(tmp_path, data, config=cfg)
    assert rc == 0
    assert (outdir / "model.txt").exists()
    assert "smote k=4 (5 requested, 5 minority rows)" in capsys.readouterr().out


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
            "model.txt": "0fd14084bfa3125d48e821a68fab1d9a7171afa96265b9d07e3578f0cc652c1a",
            "train_report.csv": "1932924986db565a678a113786fcdd85d1cc421ce73777120d51e30151be4657",
            "eval_report.txt": "b20b79b9263738ac150647bc9794b650cf78f92477eb46fd7ea4995f3117e4ed",
            "eval_report.kv": "a020ade51020d616d0b659a88697f087eb8a17c690bb0b7010213186a3642388",
            "capture_report.kv": "35f57fd21ebc97837c54c2454c6a65d40edadee22947dcac4daf37906831b16f",
            "predictions.csv": "91acb343e838c922fa5084e13fe502e3923d667167781429f4a2596e18e06631",
        },
    ),
    # a projection shortcut on block 1
    "projection": (
        {"architecture": {"block_widths": [8, 6]}},
        {
            "model.txt": "ab32f4d9a0c4f054ae07456dc7db24bb82137275cd0478ec0fac8e8ca5de1504",
            "train_report.csv": "9a173ab85478f076be3b779707c8d4037c5683716d88d13f5911c5c545050441",
            "eval_report.txt": "d618dfa9fdcc9e56faf19b554c7c09e7cf2a7522055da346a52103988b7a6a47",
            "eval_report.kv": "48a2c43a3b869c3d527a45a93bf9f5951c0f280811b3d87226bca15a70fe9764",
            "capture_report.kv": "186d67c9f5cb023fe7b407f01a27df65773668d3e70215e8d05c5a3296768fb2",
            "predictions.csv": "e2e05b62d372414efb1933de2a81de825dfbb32201c61c192343fa1b1120dc10",
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


def test_training_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A 78-feature file at batch 256 reaches weight-gradient products that
    OpenBLAS would split over the batch rows across threads; train writes
    the same bytes with one BLAS thread as with two."""
    data = make_data(tmp_path, majority=3000, minority=300, n_features=78)
    config = tmp_path / "epochs.json"
    config.write_text(json.dumps({"train": {"epochs_phase1": 2, "epochs_phase2": 2}}))
    src = str(Path(ddosflow.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        argv = ["train", "--data", data, "--config", str(config), "--out", str(out)]
        run = subprocess.run(
            [sys.executable, "-m", "ddosflow.cli", *argv], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        outputs.append([(out / name).read_bytes() for name in ("model.txt", "train_report.csv")])
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"architecture": {"attention_after_each": False}}, "unknown config key architecture.'attention_after_each'"),
        ({"architecture": {"bn_eps": 1e-5}}, "unknown config key architecture.'bn_eps'"),
        ({"architecture": {"bn_momentum": 0.9}}, "unknown config key architecture.'bn_momentum'"),
        ({"train": {"eps_dice": 1.0}}, "unknown config key train.'eps_dice'"),
        ({"train": {"eps_opt": 1e-10}}, "unknown config key train.'eps_opt'"),
        ({"train": {"reset_optimizer_phase2": True}}, "unknown config key train.'reset_optimizer_phase2'"),
        ({"train": {"loss_phase1": "bce"}}, "unknown config key train.'loss_phase1'"),
        ({"train": {"loss_phase2_base": "dice"}}, "unknown config key train.'loss_phase2_base'"),
        ({"gradcheck": {"tolerance": 1e-4}}, "unknown config section 'gradcheck'"),
    ],
    ids=["attention_after_each", "bn_eps", "bn_momentum", "eps_dice", "eps_opt",
         "reset_optimizer_phase2", "loss_phase1", "loss_phase2_base", "gradcheck"],
)
def test_train_refuses_a_removed_config_key(tmp_path, capsys, doc, message):
    """The model owns its one attention layer; batch norm's epsilon and
    momentum, the Dice and Adagrad smoothing terms and both phase losses
    are constants; phase 2 always starts a fresh accumulator; and the
    gradient self-check runs one fixed network. So a config that names one
    of the old keys, even at its old default, fails before any data is
    read."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    # the data file does not exist: reading it would exit 2, not 1
    rc, outdir = run_train(tmp_path, str(tmp_path / "absent.csv"), config=str(config))
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {config}: {message}\n"
    assert not outdir.exists()


@pytest.mark.parametrize(
    "train, where",
    [({"eta": 1e100}, "phase 1 epoch 1"), ({"lambda_anchor": 1e308}, "phase 2 epoch 1")],
    ids=["eta", "lambda_anchor"],
)
def test_training_that_diverges_stops_before_writing_a_model(tmp_path, capsys, train, where):
    """A step size or anchor weight that the config accepts but that drives
    the weights, the loss or the scores to inf or NaN stops train at the
    first such epoch, which the error names, before model.txt or
    train_report.csv is written; no NumPy warning escapes, as pytest makes
    each one an error."""
    data = make_data(tmp_path)
    rc, outdir = run_train(tmp_path, data, config=write_fast_config(tmp_path, train=train))
    err = capsys.readouterr().err
    assert rc == 1
    assert re.fullmatch(rf"error: train: training diverged in {where}: non-finite \w+ \(.+\)\n", err), err
    assert not (outdir / "model.txt").exists()
    assert not (outdir / "train_report.csv").exists()


def test_train_takes_a_seed_beyond_64_bits(tmp_path):
    data = make_data(tmp_path)
    config = write_fast_config(tmp_path, split={"seed": 2**128 + 1})
    rc, outdir = run_train(tmp_path, data, config=config)
    assert rc == 0
    assert (outdir / "model.txt").exists()


def test_train_unparseable_config(tmp_path, capsys):
    data = make_data(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    rc, _ = run_train(tmp_path, data, config=str(bad))
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"train": {"eta": float("nan")}}, "train.eta: expected a finite number, got nan"),
        ({"train": {"lambda_anchor": float("inf")}}, "train.lambda_anchor: expected a finite"),
        ({"smote": {"target_ratio": float("-inf")}}, "smote.target_ratio: expected a finite"),
        ({"train": {"batch_size": 1}}, "train: batch_size must be >= 2"),
        ({"split": {"seed": -1}}, "split: seed must be >= 0"),
        ({"smote": {"seed": -5}}, "smote: seed must be >= 0"),
        ({"architecture": {"init_seed": -1}}, "architecture: init_seed must be >= 0"),
        ({"train": {"seed": -2}}, "train: seed must be >= 0"),
    ],
    ids=["eta-nan", "lambda-inf", "ratio-minus-inf", "batch-size-1", "split-seed",
         "smote-seed", "init-seed", "train-seed"],
)
def test_train_rejects_a_bad_number_before_reading_data(tmp_path, capsys, doc, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))  # writes the JSON extensions NaN and Infinity
    # the data file does not exist: reading it would exit 2, not 1
    rc, outdir = run_train(tmp_path, str(tmp_path / "absent.csv"), config=str(cfg))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not outdir.exists()


def test_train_creates_the_model_files_directory(tmp_path):
    data = make_data(tmp_path)
    model = tmp_path / "nodir" / "sub" / "model.txt"
    rc, _ = run_train(tmp_path, data, config=write_fast_config(tmp_path), extra=["--model", str(model)])
    assert rc == 0
    load_model(str(model))


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


def test_train_suffixes_a_duplicate_header(tmp_path, capsys):
    data = make_data(tmp_path)
    rows = Path(data).read_text().splitlines()
    assert rows[0] == "feature_0,feature_1,feature_2,feature_3,Label"
    twin = tmp_path / "twin.csv"
    twin.write_text("\n".join(["feature_0,feature_1,feature_2,feature_0,Label"] + rows[1:]) + "\n")
    rc, outdir = run_train(tmp_path, str(twin), config=write_fast_config(tmp_path))
    assert rc == 0
    _, extra = load_model(str(outdir / "model.txt"))
    assert extra["feature_names"] == ["feature_0", "feature_1", "feature_2", "feature_0.1"]
    model = str(outdir / "model.txt")
    assert main(["evaluate", "--model", model, "--data", str(twin)]) == 0
    assert main(["predict", "--model", model, "--data", str(twin), "--out", str(tmp_path / "p.csv")]) == 0


def test_train_stops_on_a_column_that_overflows_the_scaler(tmp_path, capsys):
    data = make_data(tmp_path)
    rows = Path(data).read_text().splitlines()
    big = tmp_path / "big.csv"
    # two cells of 1e308 already sum past float64's largest value
    big.write_text("\n".join(["big," + rows[0]] + ["1e308," + r for r in rows[1:]]) + "\n")
    rc, outdir = run_train(tmp_path, str(big), config=write_fast_config(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error: scale: mean or standard deviation overflows float64 in columns: big" in err
    assert not (outdir / "model.txt").exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_a_capture_that_is_not_utf8_is_a_data_error_naming_the_file(
    trained, tmp_path, capsys, command
):
    _, model = trained
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"a,Label\n\xff,BENIGN\n")
    argv = {
        "train": ["train", "--data", str(bad), "--out", str(tmp_path / "o")],
        "evaluate": ["evaluate", "--model", model, "--data", str(bad)],
        "predict": ["predict", "--model", model, "--data", str(bad), "--out", str(tmp_path / "p.csv")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"data error: load: {bad}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("where", ["row", "header"])
@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_a_cell_longer_than_csvs_field_limit_is_a_data_error_naming_its_row(
    trained, tmp_path, capsys, command, where
):
    """csv.reader refuses a field longer than its limit (131,072 characters
    by default), in a data row or in the header; NumPy's parser leaves such
    a line to it, so every command names the file and the row."""
    data, model = trained
    header, *rows = Path(data).read_text().splitlines()
    long = "9" * 200_000
    if where == "header":
        header = header.replace("feature_3", long)
    else:
        rows[2] = long + rows[2][rows[2].index(","):]
    capture = tmp_path / "long.csv"
    capture.write_text("\n".join([header, *rows]) + "\n")
    argv = {
        "train": ["train", "--data", str(capture), "--out", str(tmp_path / "o")],
        "evaluate": ["evaluate", "--model", model, "--data", str(capture)],
        "predict": ["predict", "--model", model, "--data", str(capture), "--out", str(tmp_path / "p.csv")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    at = "header" if where == "header" else "row 3"
    limit = f"field larger than field limit ({csv.field_size_limit()})"
    assert capsys.readouterr().err == f"data error: load: {capture}: {at}: {limit}\n"


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_an_inf_fill_mean_that_overflows_is_a_data_error_naming_its_column(
    trained, tmp_path, capsys, command
):
    """Two finite cells of 1e308 sum past float64's largest value, so the
    mean that would replace the column's Infinity cell is no number: the
    command names the column (and, as in every test, lets no RuntimeWarning
    escape) instead of scoring or training on an infinite cell."""
    data, model = trained
    header, *rows = Path(data).read_text().splitlines()
    for i, cell in enumerate(["1e308", "1e308", "Infinity"]):
        rows[i] = cell + rows[i][rows[i].index(","):]
    capture = tmp_path / "overflow.csv"
    capture.write_text("\n".join([header, *rows]) + "\n")
    argv, stage = {
        "train": (["train", "--data", str(capture), "--out", str(tmp_path / "o")], "clean"),
        "evaluate": (["evaluate", "--model", model, "--data", str(capture)], str(capture)),
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    message = "mean of the finite values overflows float64 in columns: feature_0"
    assert capsys.readouterr().err == f"data error: {stage}: {message}\n"


def test_stage_prefixes_an_error_whose_class_takes_other_arguments():
    with pytest.raises(ValueError, match=r"^load: 'utf-8' codec can't decode") as info:
        with _stage("load"):
            b"\xff".decode("utf-8")
    assert type(info.value) is ValueError
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


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
    rows = Path(data).read_text().splitlines()
    header = rows[0].split(",")
    header[0] = "renamed_column"
    mangled = tmp_path / "mangled.csv"
    mangled.write_text("\n".join([",".join(header)] + rows[1:]) + "\n")
    assert main(["evaluate", "--model", model, "--data", str(mangled)]) == 2
    assert "missing feature columns: feature_0" in capsys.readouterr().err


def pairwise_auc(scores, truth):
    """Share of (attack, benign) pairs in which the attack scores higher,
    ties counting half."""
    pos, neg = scores[truth == 1][:, None], scores[truth == 0][None, :]
    return ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size)


def test_evaluate_and_predict_score_the_same_rows_of_a_reordered_capture(trained, tmp_path):
    data, model = trained
    rows = [line.split(",") for line in Path(data).read_text().splitlines()]
    columns = dict(zip(rows[0], zip(*rows[1:])))  # feature_0..3, Label
    n = len(rows) - 1
    columns["extra_a"] = [str(i * 0.5) for i in range(n)]
    # NaN and empty cells in a column the model does not use keep their rows
    columns["extra_b"] = ["nan" if i % 7 == 0 else "" if i % 11 == 0 else "1" for i in range(n)]
    columns["feature_1"] = ("garbage",) + columns["feature_1"][1:]  # drops row 1
    order = ["extra_a", "feature_2", "Label", "feature_0", "extra_b", "feature_3", "feature_1"]
    capture = tmp_path / "capture.csv"
    capture.write_text(
        "\n".join([",".join(order)] + [",".join(r) for r in zip(*(columns[c] for c in order))])
        + "\n"
    )
    kv_path, pred_path = tmp_path / "capture.kv", tmp_path / "pred.csv"
    assert main(["evaluate", "--model", model, "--data", str(capture), "--out", str(kv_path)]) == 0
    assert main(["predict", "--model", model, "--data", str(capture), "--out", str(pred_path)]) == 0

    kv = dict(line.split("=", 1) for line in kv_path.read_text().splitlines())
    pred = [line.split(",") for line in pred_path.read_text().splitlines()[1:]]
    row = np.array([int(r) for r, _, _ in pred])
    proba = np.array([float(p) for _, p, _ in pred])
    flagged = np.array([label == "DDoS" for _, _, label in pred])
    truth = (np.array(columns["Label"]) == "DDoS")[row - 1].astype(np.int64)
    assert row.tolist() == list(range(2, n + 1))
    assert [int(kv[k]) for k in ("tp", "fp", "tn", "fn")] == [
        int(((flagged == f) & (truth == t)).sum()) for f, t in ((1, 1), (1, 0), (0, 0), (0, 1))
    ]
    assert float(kv["roc_auc"]) == pytest.approx(pairwise_auc(proba, truth), abs=1e-12)


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
    assert main(["evaluate", "--model", str(bad), "--data", data]) == 2
    assert f"data error: load-model: {bad}: not a model file" in capsys.readouterr().err


def _drop(key, section=None):
    def edit(manifest):
        del (manifest[section] if section else manifest)[key]
        return manifest
    return edit


def _put(key, value, section=None):
    def edit(manifest):
        (manifest[section] if section else manifest)[key] = value
        return manifest
    return edit


# architecture and n_features follow the config's type and range rules
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda manifest: list(manifest), "manifest is not a JSON object"),
        (_drop("architecture"), "manifest lacks 'architecture'"),
        (_drop("n_features"), "manifest lacks 'n_features'"),
        (_drop("init_seed", "architecture"), "manifest rejected: architecture lacks 'init_seed'"),
        (_drop("block_widths", "architecture"), "manifest rejected: architecture lacks 'block_widths'"),
        (_put("bogus", 1, "architecture"), "manifest rejected: .*bogus"),
        (_put("input_width", 64.0, "architecture"), "manifest rejected: architecture.input_width: expected an integer"),
        (_put("block_widths", [64, 64.0, 64], "architecture"), "manifest rejected: architecture.block_widths: expected a list of integers"),
        (_put("init_seed", True, "architecture"), "manifest rejected: architecture.init_seed: expected an integer"),
        (_put("n_features", 8.5), "manifest rejected: n_features: expected an integer"),
        (_put("n_features", "8"), "manifest rejected: n_features: expected an integer"),
        (_put("n_features", -3), "manifest rejected: n_features: expected an integer of at least 1, got -3"),
    ],
    ids=[
        "not-an-object", "no-architecture", "no-n_features",
        "architecture-no-init_seed", "architecture-no-block_widths", "unknown-architecture-key",
        "input_width-float", "block_widths-float", "init_seed-bool",
        "n_features-fraction", "n_features-string", "n_features-negative",
    ],
)
def test_evaluate_malformed_manifest_is_named(trained, tmp_path, capsys, edit, message):
    data, model = trained
    lines = Path(model).read_text().splitlines()
    manifest = edit(json.loads(lines[1][len("manifest "):]))
    lines[1] = "manifest " + json.dumps(manifest)
    bad = tmp_path / "bad_manifest.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_model(str(bad))
    for command in (["evaluate"], ["predict", "--out", str(tmp_path / "p.csv")]):
        assert main([*command, "--model", str(bad), "--data", data]) == 2
        err = capsys.readouterr().err
        assert re.search(f"^data error: load-model: {re.escape(str(bad))}: {message}", err), err
        assert "Traceback" not in err


def _set(key, value):
    def edit(lines):
        manifest = json.loads(lines[1][len("manifest "):])
        manifest[key] = value
        lines[1] = "manifest " + json.dumps(manifest)
    return edit


def _nan_in_first_tensor(lines):
    assert lines[2].startswith("tensor ")
    lines[3] = " ".join(["nan"] + lines[3].split()[1:])


def _manifest_not_json(lines):
    lines[1] = lines[1][:-1]  # drop the closing brace


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("threshold", None), "manifest entry 'threshold' is malformed"),
        (_set("feature_names", 5), "manifest entry 'feature_names' is malformed"),
        (_set("benign_token", 5), "manifest label entries are malformed: data.benign_token: expected a string"),
        (_set("attack_token", None), "manifest label entries are malformed: data.attack_token: expected a string"),
        (_set("attack_token", " benign"), "manifest label entries are malformed: .*benign_token and attack_token must differ"),
        (
            _set("feature_names", ["feature_0", "feature_0", "feature_2", "feature_3"]),
            "manifest entry 'feature_names' is malformed: names feature_0 more than once",
        ),
        (
            _set("feature_names", ["feature_0", "feature_1", "feature_2"]),
            "manifest entries 'feature_names' and 'scaler_means' hold 3 and 4 columns for a model of 4 features",
        ),
        (_set("scaler_stds", [1.0, 1.0, 1.0]), "means and stds must be 1-D vectors of equal length"),
        (_set("scaler_means", [0.0, float("nan"), 0.0, 0.0]), "manifest entry 'scaler_means' is malformed: expected a list of finite numbers"),
        (_set("scaler_stds", [1.0, 1.0, float("inf"), 1.0]), "manifest entry 'scaler_stds' is malformed: expected a list of finite numbers"),
        (_nan_in_first_tensor, "line 4: tensor '[^']+' holds a non-finite value"),
        (_manifest_not_json, "manifest is not valid JSON"),
        # numbers follow the config's type rules: no string or bool, no fraction for a count
        (_set("threshold", "0.5"), "manifest entry 'threshold' is malformed: train.threshold: expected a number"),
        (_set("threshold", 1.5), r"manifest entry 'threshold' is malformed: train: threshold must lie in \(0, 1\)"),
        (_set("scaler_fitted_on", 5.7), "manifest entry 'scaler_fitted_on' is malformed: expected an integer"),
        (_set("scaler_fitted_on", True), "manifest entry 'scaler_fitted_on' is malformed: expected an integer"),
        (_set("scaler_fitted_on", -5), "fitted_on must be at least 1, got -5"),
        (_set("scaler_fitted_on", 0), "fitted_on must be at least 1, got 0"),
        (_set("scaler_means", ["0.0", "1.0", "2.0", "3.0"]), "manifest entry 'scaler_means' is malformed: expected a list of finite numbers"),
        (_set("scaler_stds", [True, True, True, True]), "manifest entry 'scaler_stds' is malformed: expected a list of finite numbers"),
        (_set("scaler_stds", [-1.0, 1.0, 1.0, 1.0]), "manifest entry 'scaler_stds' is malformed: stds must be non-negative"),
    ],
    ids=[
        "threshold-null", "feature_names-int", "benign_token-int", "attack_token-null",
        "equal-tokens", "feature_names-repeated", "feature_names-short", "scaler_stds-short",
        "scaler_means-nan", "scaler_stds-inf", "tensor-nan", "manifest-not-json",
        "threshold-string", "threshold-1.5", "scaler_fitted_on-fraction", "scaler_fitted_on-bool",
        "scaler_fitted_on-negative", "scaler_fitted_on-zero", "scaler_means-strings", "scaler_stds-bools",
        "scaler_stds-negative",
    ],
)
def test_scoring_names_a_wrongly_typed_manifest_entry(trained, tmp_path, capsys, edit, message, command):
    _, model = trained
    lines = Path(model).read_text().splitlines()
    edit(lines)
    bad = tmp_path / "bad_model.txt"
    bad.write_text("\n".join(lines) + "\n")
    try:
        load_model(str(bad))  # a fault in a manifest entry: the model itself loads
    except ValueError as exc:  # a fault load_model finds: named as scoring names it
        assert re.search(f"^{re.escape(str(bad))}: {message}", str(exc))
    # a capture that does not exist: the model is checked before it is read
    absent = tmp_path / "absent.csv"
    assert main([command, "--model", str(bad), "--data", str(absent), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert re.search(f"^data error: load-model: {re.escape(str(bad))}: {message}", err), err
    assert "Traceback" not in err


def test_scoring_model_without_a_label_entry_is_a_data_error_naming_it(trained, tmp_path, capsys):
    data, model = trained
    for key in ("label_column", "benign_token", "attack_token"):
        lines = Path(model).read_text().splitlines()
        manifest = json.loads(lines[1][len("manifest "):])
        del manifest[key]
        lines[1] = "manifest " + json.dumps(manifest, sort_keys=True)
        bad = tmp_path / f"without_{key}.txt"
        bad.write_text("\n".join(lines) + "\n")
        for command in ("evaluate", "predict"):
            assert main([command, "--model", str(bad), "--data", data, "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert f"data error: load-model: {bad}: model file lacks manifest entry {key!r}" in err, err


@pytest.mark.parametrize("version", [1, 2])
def test_scoring_an_old_format_model_file_is_refused(trained, tmp_path, capsys, version):
    """A file in a format before batch norm's epsilon and momentum became
    constants (version 2, whose manifest holds ``bn_eps`` and
    ``bn_momentum``), or also before the model owned its attention layer
    (version 1, whose manifest holds ``attention_after_each`` and which
    names the layer's tensors as the last block's), stops on its first
    line."""
    data, model = trained
    lines = Path(model).read_text().splitlines()
    assert lines[0] == "ddosflow-model 3"
    manifest = json.loads(lines[1][len("manifest "):])
    manifest["architecture"].update(bn_eps=1e-5, bn_momentum=0.9)
    tensors = lines[2:]
    if version == 1:
        manifest["architecture"]["attention_after_each"] = False
        last = len(manifest["architecture"]["block_widths"]) - 1
        tensors = [line.replace("tensor attention.", f"tensor blocks.{last}.attention.") for line in tensors]
    old = tmp_path / f"version_{version}.txt"
    old.write_text("\n".join([
        f"ddosflow-model {version}", "manifest " + json.dumps(manifest, sort_keys=True), *tensors
    ]) + "\n")
    for command in ("evaluate", "predict"):
        assert main([command, "--model", str(old), "--data", data, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"data error: load-model: {old}: unsupported format version {version}" in err, err
        assert "Traceback" not in err


@pytest.mark.parametrize("labels", [None, ("class", "normal", "attack")], ids=["default", "relabeled"])
def test_a_detector_round_trips_its_manifest(tmp_path, labels):
    """The detector read back from a model file writes the file's extras
    again, and saving it again gives the same bytes, for the default label
    conventions and threshold and for others."""
    data = make_data(tmp_path)
    sections = {}
    if labels is not None:
        column, benign, attack = labels
        text = Path(data).read_text().replace(",Label\n", f",{column}\n", 1)
        text = text.replace(",BENIGN\n", f",{benign}\n").replace(",DDoS\n", f",{attack}\n")
        Path(data).write_text(text)
        sections = {
            "data": {"label_column": column, "benign_token": benign, "attack_token": attack},
            "train": {"threshold": 0.3},
        }
    rc, outdir = run_train(tmp_path, data, config=write_fast_config(tmp_path, **sections))
    assert rc == 0
    path = outdir / "model.txt"
    model, extra = load_model(str(path))
    detector = Detector.from_manifest(model, extra)
    assert detector.manifest() == extra
    expected = DataConfig(*labels) if labels else DataConfig()
    assert (detector.data, detector.threshold) == (expected, 0.3 if labels else 0.5)
    resaved = tmp_path / "resaved.txt"
    save_model(detector.model, str(resaved), extra=detector.manifest())
    assert resaved.read_bytes() == path.read_bytes()


def test_the_library_scores_a_capture_as_predict_does(trained, tmp_path):
    """A capture with a NaN cell, an Infinity cell and a blank line, scored
    through the library's Detector, gets the row numbers and the exact
    probabilities of ``ddosflow predict``."""
    data, model = trained
    header, *rows = Path(data).read_text().splitlines()[:9]
    rows[1] = "nan," + rows[1].split(",", 1)[1]
    rows[3] = rows[3].split(",", 1)[0] + ",Infinity," + rows[3].split(",", 2)[2]
    capture = tmp_path / "capture.csv"
    capture.write_text("\n".join([header, *rows[:5], "", *rows[5:]]) + "\n")
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", model, "--data", str(capture), "--out", str(out)]) == 0
    expected = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]

    detector = Detector.from_manifest(*load_model(model))
    X, row_numbers = detector.prepare(*load_feature_matrix(str(capture), detector.feature_names))
    proba = detector.score(X, row_numbers)
    assert [[str(r), repr(p)] for r, p in zip(row_numbers.tolist(), proba.tolist())] == expected
    assert [r for r, _ in expected] == ["1", "3", "4", "5", "7", "8", "9"]


def test_evaluate_scores_a_one_class_capture(trained, tmp_path, capsys):
    data, model = trained
    benign = make_data(tmp_path, name="benign.csv", seed=5, majority=200, minority=2)
    rows = Path(benign).read_text().splitlines()
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


@pytest.mark.parametrize("stds", [None, 0.5], ids=["network-overflows", "scaler-overflows"])
@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_a_row_that_scores_nan_is_a_data_error_naming_it(trained, tmp_path, capsys, command, stds):
    """A cell far outside the training range overflows the network's
    arithmetic (or first the scaler's, with a std below 1) to a NaN score:
    the command counts the rows, names the first and writes nothing (and,
    as in every test, lets no RuntimeWarning escape)."""
    data, model = trained
    if stds is not None:
        lines = Path(model).read_text().splitlines()
        _set("scaler_stds", [stds] * 4)(lines)
        model = tmp_path / "small_stds.txt"
        model.write_text("\n".join(lines) + "\n")
    header, *rows = Path(data).read_text().splitlines()[:4]
    rows[1] = "1e308,1e308,1e308,1e308," + rows[1].rsplit(",", 1)[1]
    capture = tmp_path / "far.csv"
    capture.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out"
    assert main([command, "--model", str(model), "--data", str(capture), "--out", str(out)]) == 2
    row = "data row 2" if command == "predict" else "scored row 2"
    assert f"data error: {command}: 1 of 3 rows scored NaN; the first is {row}." in capsys.readouterr().err
    assert not out.exists()


def test_a_row_that_overflows_inside_the_network_scores_1_or_0(trained, tmp_path):
    """+-1e308 in one feature overflows inside the network, here to a logit
    of about +-1e306; the row scores 1 or 0, with no RuntimeWarning."""
    data, model = trained
    header, row = Path(data).read_text().splitlines()[:2]
    rest = row.split(",", 1)[1]
    capture = tmp_path / "far.csv"
    capture.write_text(f"{header}\n1e308,{rest}\n-1e308,{rest}\n")
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", model, "--data", str(capture), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["1,1.0,DDoS", "2,0.0,BENIGN"]


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
    rows = Path(data).read_text().splitlines()
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


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_a_capture_with_no_scorable_row_is_one_data_error(trained, tmp_path, capsys, command):
    """Every row has an empty cell, so both commands drop every row: they
    stop with the same message, which names the file, and write nothing."""
    data, model = trained
    header, *rows = Path(data).read_text().splitlines()[:4]
    capture = tmp_path / "empty_cells.csv"
    capture.write_text("\n".join([header, *("," + r.split(",", 1)[1] for r in rows)]) + "\n")
    out = tmp_path / "out"
    assert main([command, "--model", model, "--data", str(capture), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {capture}: no scorable rows\n"
    assert not out.exists()


def test_predict_threshold_changes_labels(trained, tmp_path):
    data, model = trained
    lo = tmp_path / "lo.csv"
    main(["predict", "--model", model, "--data", data, "--out", str(lo), "--threshold", "0.0001"])
    labels = [l.split(",")[2] for l in lo.read_text().strip().splitlines()[1:]]
    assert labels.count("DDoS") == 150  # everything is above the floor threshold


def test_predict_ignores_extra_columns(trained, tmp_path):
    data, model = trained
    rows = Path(data).read_text().splitlines()
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
    # the second feature_1 reads as feature_1.1, which the model does not use
    dup = tmp_path / "dup.csv"
    dup.write_text(
        "feature_0,feature_1,feature_2,feature_3,feature_1\n"
        "1,2,3,4,5\n6,7,8,9,10\n"
    )
    plain = tmp_path / "plain.csv"
    plain.write_text("feature_0,feature_1,feature_2,feature_3\n1,2,3,4\n6,7,8,9\n")
    for capture, out in ((dup, "dup_pred.csv"), (plain, "plain_pred.csv")):
        rc = main(["predict", "--model", model, "--data", str(capture), "--out", str(tmp_path / out)])
        assert rc == 0
    assert (tmp_path / "dup_pred.csv").read_bytes() == (tmp_path / "plain_pred.csv").read_bytes()


def test_predict_missing_feature_column(trained, tmp_path, capsys):
    data, model = trained
    rows = Path(data).read_text().splitlines()
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


def test_gradcheck_fails_at_impossible_tolerance(monkeypatch, capsys):
    """The command exits 3 when a report fails, here the fixed check's own
    reports judged at a tolerance no float gradient meets."""
    reports = [dataclasses.replace(r, tol=1e-300) for r in cli.self_check()]
    monkeypatch.setattr(cli, "self_check", lambda: reports)
    assert main(["gradcheck"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "gradient check FAILED\n"
    assert captured.out.count("[FAIL]") == 3


def test_gradcheck_takes_no_options():
    """The self-check runs one fixed network, so the options that once
    reshaped it are usage errors."""
    for argv in (["--tolerance", "1e-4"], ["--seed", "1"], ["--config", "c.json"]):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", *argv])
        assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--data", "absent.csv", "--out", "o", "--threshold", "nan"], "train.threshold: expected a finite number"),
        (["train", "--data", "absent.csv", "--out", "o", "--seed", "-1"], "--seed -1: seed must be >= 0"),
    ],
    ids=["threshold-nan", "seed-negative"],
)
def test_command_line_overrides_are_checked_as_config_values(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize(
    "value, message",
    [("nan", "train.threshold: expected a finite number"), ("1.5", "train: threshold must lie in (0, 1)")],
)
def test_a_scoring_threshold_override_is_checked_as_a_config_value(trained, tmp_path, capsys, command, value, message):
    data, model = trained
    out = tmp_path / "o"
    assert main([command, "--model", model, "--data", data, "--out", str(out), "--threshold", value]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


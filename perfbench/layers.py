"""Traced run: per-layer numbers from the ddosflow commands run in-process.

``cli.main`` runs ``train``, ``evaluate`` and ``predict`` in this process,
while the names those commands look up (``cli.load_flow_csv``,
``cli.oversample``, ``trainer.train_phase1``, ...) are replaced by wrappers
that record a span (name, start, end, parent) around every call. The
program's own command code runs; no file of it changes, and the wrappers
are removed when the pass ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import sys
import time

import numpy as np

import checks
import rounds
import workloads

sys.path.insert(0, rounds.SRC)

from ddosflow import cli, smote, trainer  # noqa: E402
from ddosflow.config import default_config, load_config  # noqa: E402
from ddosflow.nn import layers as nn_layers  # noqa: E402
from ddosflow.nn import (  # noqa: E402
    LossSpec,
    adagrad_step,
    apply_loss,
    init_model,
    init_optimizer,
    load_model,
    model_backward,
    model_forward,
    named_parameters,
    save_model,
)

LAYERS = ("cli", "flow_data", "smote", "trainer", "nn", "persist", "metrics")

# (module, name the calling code looks up) -> span name "<layer>.<call>".
# Each command runs inside a "cli.<command>" span, so calls of one function
# are told apart by their parent: the train file's load_flow_csv from the
# capture's.
WRAPS = {
    (cli, "load_flow_csv"): "flow_data.load_flow_csv",
    (cli, "clean"): "flow_data.clean",
    (cli, "train_test_split"): "flow_data.split",
    (cli, "fit_scaler"): "flow_data.fit_scaler",
    (cli, "apply_scaler"): "flow_data.apply_scaler",
    (cli, "load_feature_matrix"): "flow_data.load_matrix",
    (cli, "oversample"): "smote.oversample",
    (smote, "minority_neighbors"): "smote.knn",
    (cli, "init_model"): "nn.init_model",
    (cli, "run_dual_phase"): "trainer.run_dual_phase",
    (trainer, "train_phase1"): "trainer.phase1",
    (trainer, "compute_anchors"): "trainer.anchors",
    (trainer, "train_phase2"): "trainer.phase2",
    (cli, "predict_proba"): "trainer.predict_proba",
    (trainer, "predict_proba"): "trainer.predict_proba",
    (trainer, "model_loss"): "nn.model_loss",
    (trainer, "adagrad_step"): "nn.adagrad_step",
    (trainer, "model_forward"): "nn.model_forward_infer",
    (cli, "save_model"): "persist.save_model",
    (cli, "write_train_report_csv"): "persist.write_train_report",
    (cli, "load_model"): "persist.load_model",
    (cli, "build_report"): "metrics.build_report",
    (cli, "format_report_table"): "metrics.format_report",
    (cli, "format_report_kv"): "metrics.format_report",
}

# what the metrics need from a call, by span name: f(args, result)
KEEP = {
    # rows dropped, and the +-inf cells of the loaded matrix before clean
    "flow_data.clean": lambda args, ds: (
        args[0].n_rows - ds.n_rows,
        int(np.isinf(args[0].features).sum()),
    ),
    # scaled training set, SMOTE config, balanced set
    "smote.oversample": lambda args, result: (args[0], args[1], result[0]),
    "trainer.predict_proba": lambda args, proba: proba.shape[0],
}

# in-process train passes, traced (True) or not, in the order A B B A so a
# steady drift of machine speed cancels out of their difference
PASSES = (True, False, False, True)

UNITS = {
    "cli.import_s": "s",
    "flow_data.load_train_s": "s",
    "flow_data.load_capture_s": "s",
    "flow_data.load_matrix_s": "s",
    "flow_data.clean_s": "s",
    "flow_data.rows_dropped": "count",
    "flow_data.inf_cells": "count",
    "flow_data.split_s": "s",
    "flow_data.scale_s": "s",
    "smote.knn_s": "s",
    "smote.knn_rows": "count",
    "smote.knn_scaling_exponent": "exponent",
    "smote.oversample_s": "s",
    "smote.synthetic_rows": "count",
    "trainer.phase1_s": "s",
    "trainer.anchors_s": "s",
    "trainer.phase2_s": "s",
    "trainer.steps": "count",
    "trainer.step_ms": "ms",
    "trainer.accuracy_pass_s": "s",
    "trainer.predict_rows_per_s": "rows/s",
    "nn.model_forward_train_us": "us",
    "nn.model_backward_us": "us",
    "nn.loss_us": "us",
    "nn.adagrad_step_us": "us",
    "nn.model_forward_infer_us": "us",
    "nn.affine_fwd_us": "us",
    "nn.affine_bwd_us": "us",
    "nn.batchnorm_fwd_us": "us",
    "nn.batchnorm_bwd_us": "us",
    "nn.attention_fwd_us": "us",
    "nn.attention_bwd_us": "us",
    "nn.residual_block_fwd_us": "us",
    "nn.residual_block_bwd_us": "us",
    "persist.save_model_s": "s",
    "persist.load_model_s": "s",
    "persist.model_bytes": "count",
    "metrics.build_report_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.traced_train_s": "s",
    "trace.untraced_train_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans kept in memory: name, start, end and the index of the parent."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.notes: dict[int, object] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), math.nan, parent])
        self._open.append(index)
        try:
            yield index
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def wrapped(self, targets: dict[tuple[object, str], str], keep: dict):
        """Replace ``module.attr`` by a traced call for the block's duration.

        For a span name in ``keep``, ``keep[name](args, result)`` is stored
        in ``notes`` under the span's index.
        """
        saved = {}
        for (module, attr), name in targets.items():
            fn = saved[(module, attr)] = getattr(module, attr)
            setattr(module, attr, self._traced(fn, name, keep.get(name)))
        try:
            yield
        finally:
            for (module, attr), fn in saved.items():
                setattr(module, attr, fn)

    def _traced(self, fn, name: str, note):
        def call(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if note is not None:
                self.notes[index] = note(args, result)
            return result

        return call

    def _matching(self, name: str, parent: str | None) -> list[int]:
        """Indexes of the spans called ``name``, under the first ``parent``."""
        p = None if parent is None else [s[0] for s in self.spans].index(parent)
        return [
            i for i, (n, _, _, par) in enumerate(self.spans)
            if n == name and (p is None or par == p)
        ]

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        return [self.spans[i][2] - self.spans[i][1] for i in self._matching(name, parent)]

    def kept(self, name: str, parent: str | None = None) -> list:
        return [self.notes[i] for i in self._matching(name, parent)]

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(self.durations(name, parent))

    def self_times(self) -> dict[str, float]:
        """Per layer, span time not covered by the span's own children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += end - start - covered
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _median_time(fn, min_reps: int = 5, min_total: float = 0.2) -> float:
    """Median wall time of ``fn()`` over enough calls to fill ``min_total`` seconds."""
    times: list[float] = []
    while len(times) < min_reps or sum(times) < min_total:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _commands(inputs: workloads.Inputs, workdir: str) -> dict[str, list[str]]:
    """``ddosflow`` arguments of the workload's train, evaluate and predict."""
    model = os.path.join(workdir, "model.txt")
    config = ["--config", inputs.config_json] if inputs.config_json else []
    return {
        "train": ["train", "--data", inputs.train_csv, "--out", workdir, *config],
        "evaluate": [
            "evaluate", "--model", model, "--data", inputs.capture_csv,
            "--out", os.path.join(workdir, "capture_report.kv"),
        ],
        "predict": [
            "predict", "--model", model, "--data", inputs.capture_csv,
            "--out", os.path.join(workdir, "predictions.csv"),
        ],
    }


def _cli(ledger: rounds.Ledger, op: str, argv: list[str]) -> None:
    """``ddosflow argv`` in this process, its printout discarded; one operation."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if not ledger.record(op, code == 0, f"exit code {code}"):
        raise RuntimeError(f"in-process {op} failed, so the traced run has no figures")


def nn_ops(arch, n_features: int, batch: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """Median time of each network op on one batch at the workload's widths."""
    model = init_model(n_features, arch)
    block, attn = model.blocks[0], model.attention
    anchors = np.linspace(0.05, 0.95, batch.shape[0])
    spec = LossSpec(kind="anchored", base="dice", lambda_anchor=0.1)
    logits, cache = model_forward(model, batch, mode="train", want_cache=True)
    _, dlogits = apply_loss(logits, y, spec, anchors=anchors)
    grads = model_backward(model, cache, dlogits)
    params = dict(named_parameters(model))
    opt = init_optimizer(model)
    infer = np.resize(batch, (4096, batch.shape[1]))

    h = nn_layers.affine_forward(model.input_affine, batch)
    a1 = nn_layers.affine_forward(block.affine1, h)
    _, bn_cache = nn_layers.batchnorm_forward(block.bn1, a1, "train")
    block_out, block_cache = nn_layers.residual_block_forward(block, h, "train")
    _, attn_cache = nn_layers.attention_forward(attn, block_out)
    dout = np.ones_like(a1)
    ops = {
        "nn.model_forward_train_us": lambda: model_forward(model, batch, mode="train", want_cache=True),
        "nn.model_backward_us": lambda: model_backward(model, cache, dlogits),
        "nn.loss_us": lambda: apply_loss(logits, y, spec, anchors=anchors),
        "nn.adagrad_step_us": lambda: adagrad_step(opt, params, grads),
        "nn.model_forward_infer_us": lambda: model_forward(model, infer, mode="infer"),
        "nn.affine_fwd_us": lambda: nn_layers.affine_forward(block.affine1, h),
        "nn.affine_bwd_us": lambda: nn_layers.affine_backward(block.affine1, h, dout),
        "nn.batchnorm_fwd_us": lambda: nn_layers.batchnorm_forward(block.bn1, a1, "train"),
        "nn.batchnorm_bwd_us": lambda: nn_layers.batchnorm_backward(block.bn1, bn_cache, dout),
        "nn.attention_fwd_us": lambda: nn_layers.attention_forward(attn, block_out),
        "nn.attention_bwd_us": lambda: nn_layers.attention_backward(attn, attn_cache, np.ones_like(block_out)),
        "nn.residual_block_fwd_us": lambda: nn_layers.residual_block_forward(block, h, "train"),
        "nn.residual_block_bwd_us": lambda: nn_layers.residual_block_backward(block, block_cache, np.ones_like(block_out)),
    }
    return {name: _median_time(fn, min_reps=20, min_total=0.05) * 1e6 for name, fn in ops.items()}


def traced_run(wl: workloads.Workload, inputs: workloads.Inputs, ledger: rounds.Ledger) -> dict[str, float]:
    """One round of CLI children, then in-process ``train`` passes with and
    without the wrappers; each traced pass goes on to evaluate and predict."""
    rounds.run_round(wl, inputs, ledger, rounds.Samples())
    import_s = statistics.median(
        rounds.run_child(["-c", "import ddosflow.cli"]).wall_s for _ in range(5)
    )

    workdir = os.path.join(rounds.WORK, wl.name, "traced")
    commands = _commands(inputs, workdir)
    train_times: dict[bool, list[float]] = {True: [], False: []}
    for traced in PASSES:
        if not traced:
            start = time.perf_counter()
            _cli(ledger, "untraced-train", commands["train"])
            train_times[False].append(time.perf_counter() - start)
            continue
        tr = Tracer()
        with tr.wrapped(WRAPS, KEEP):
            for name, argv in commands.items():
                with tr.span(f"cli.{name}"):
                    _cli(ledger, f"traced-{name}", argv)
        train_times[True].append(tr.total("cli.train"))

    # the layer figures come from the last traced pass, the warmest
    cfg = _pipeline_config(inputs)
    model_path = os.path.join(workdir, "model.txt")
    (train_s, smote_cfg, balanced), = tr.kept("smote.oversample")
    out = {"cli.import_s": import_s}
    out.update(_flow_data_metrics(tr))
    out.update(_smote_metrics(tr, ledger, train_s, smote_cfg, balanced))
    out.update(_trainer_metrics(tr))
    batch = balanced.features[: cfg.train.batch_size]
    out.update(nn_ops(cfg.architecture, train_s.n_features, batch, balanced.labels[: batch.shape[0]]))
    out.update(_persist_metrics(tr, ledger, model_path))
    out["metrics.build_report_s"] = tr.total("metrics.build_report", parent="cli.evaluate")
    out.update({f"{layer}.self_s": t for layer, t in tr.self_times().items()})
    out["trace.spans"] = float(len(tr.spans))
    out["trace.traced_train_s"] = statistics.median(train_times[True])
    out["trace.untraced_train_s"] = statistics.median(train_times[False])
    out["trace.overhead_s"] = out["trace.traced_train_s"] - out["trace.untraced_train_s"]
    tr.write(os.path.join(rounds.WORK, wl.name, "trace.jsonl"))
    return {name: out[name] for name in UNITS}


def _pipeline_config(inputs: workloads.Inputs):
    return load_config(inputs.config_json) if inputs.config_json else default_config()


def _flow_data_metrics(tr: Tracer) -> dict[str, float]:
    cleaned = tr.kept("flow_data.clean")
    return {
        "flow_data.load_train_s": tr.total("flow_data.load_flow_csv", parent="cli.train"),
        "flow_data.load_capture_s": tr.total("flow_data.load_flow_csv", parent="cli.evaluate"),
        "flow_data.load_matrix_s": tr.total("flow_data.load_matrix"),
        "flow_data.clean_s": tr.total("flow_data.clean"),
        "flow_data.rows_dropped": float(sum(dropped for dropped, _ in cleaned)),
        "flow_data.inf_cells": float(sum(inf for _, inf in cleaned)),
        "flow_data.split_s": tr.total("flow_data.split"),
        "flow_data.scale_s": tr.total("flow_data.fit_scaler") + tr.total("flow_data.apply_scaler"),
    }


def _smote_metrics(tr: Tracer, ledger: rounds.Ledger, train_s, smote_cfg, balanced) -> dict[str, float]:
    counts = np.bincount(train_s.labels, minlength=2)
    minority = int(np.argmin(counts))
    X_min = train_s.features[train_s.labels == minority]
    knn_full = tr.durations("smote.knn")[0]
    half = X_min[: X_min.shape[0] // 2]
    k = smote_cfg.k
    if knn_full < 0.2:  # too short to time once; time both sizes alike
        knn_full = _median_time(lambda: smote.minority_neighbors(X_min, k))
    knn_half = _median_time(lambda: smote.minority_neighbors(half, k), min_reps=1)
    ledger.record(
        "smote-counts",
        *checks.smote_counts(balanced.labels, train_s.n_rows, smote_cfg.target_ratio),
    )
    ledger.record(
        "smote-segments",
        *checks.synthetic_on_segments(
            X_min, balanced.features[train_s.n_rows :], k, sample=50, seed=0
        ),
    )
    return {
        "smote.knn_s": tr.total("smote.knn"),
        "smote.knn_rows": float(X_min.shape[0]),
        "smote.knn_scaling_exponent": math.log(knn_full / knn_half) / math.log(X_min.shape[0] / half.shape[0]),
        "smote.oversample_s": tr.total("smote.oversample"),
        "smote.synthetic_rows": float(balanced.n_rows - train_s.n_rows),
    }


def _trainer_metrics(tr: Tracer) -> dict[str, float]:
    losses = tr.durations("nn.model_loss")
    steps = tr.durations("nn.adagrad_step")
    (scored,) = tr.kept("trainer.predict_proba", parent="cli.evaluate")
    return {
        "trainer.phase1_s": tr.total("trainer.phase1"),
        "trainer.anchors_s": tr.total("trainer.anchors"),
        "trainer.phase2_s": tr.total("trainer.phase2"),
        "trainer.steps": float(len(steps)),
        "trainer.step_ms": statistics.median(a + b for a, b in zip(losses, steps)) * 1e3,
        # the pass _run_epochs repeats every epoch for its accuracy record
        "trainer.accuracy_pass_s": statistics.median(
            tr.durations("trainer.predict_proba", parent="trainer.phase2")
        ),
        "trainer.predict_rows_per_s": scored / tr.total("trainer.predict_proba", parent="cli.evaluate"),
    }


def _persist_metrics(tr: Tracer, ledger: rounds.Ledger, model_path: str) -> dict[str, float]:
    """Load the saved model and save it again: the bytes must not change."""
    resaved = model_path + ".resaved"
    model, extra = load_model(model_path)
    save_model(model, resaved, extra=extra)
    ledger.record("persist-roundtrip", *checks.same_bytes([model_path], [resaved]))
    return {
        "persist.save_model_s": tr.total("persist.save_model"),
        # evaluate and predict each load the model once
        "persist.load_model_s": statistics.median(tr.durations("persist.load_model")),
        "persist.model_bytes": float(os.path.getsize(model_path)),
    }

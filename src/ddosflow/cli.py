"""Command-line entry points.

Subcommands: synth, train, evaluate, predict, gradcheck,
print-default-config. Every command is deterministic given its config;
all seeds live in the config document (or the --seed override).

Exit codes: 0 success, 1 usage or config error, 2 data error,
3 self-check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import os
import sys

import numpy as np

# perfbench/layers.py times each call by replacing the name a command looks it
# up by (tests/test_exports.py checks that every such name is here); it also
# replaces apply_scaler and predict_proba, though no command calls them.
from .config import (
    PipelineConfig,
    default_config,
    dumps_config,
    load_config,
    with_seed,
)
from .errors import ConfigError, DataError
from .flow_data import (
    FlowDataset,
    _finite_means,
    _scorable_in_place,
    apply_scaler,  # noqa: F401
    clean,
    fit_scaler,
    load_feature_matrix,
    load_flow_csv,
    train_test_split,
)
from .metrics import build_report, format_report_kv, format_report_table
from .nn import init_model, load_model, save_model
from .nn.gradcheck import self_check
from .smote import neighbor_count, oversample, synthetic_count
from .synth import SyntheticSpec, write_synthetic_csv
from .trainer import (
    Detector,
    _threshold,
    classify,
    predict_proba,  # noqa: F401
    run_dual_phase,
    write_train_report_csv,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (default would be 2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@contextlib.contextmanager
def _stage(name: str):
    """Prefix errors with the pipeline stage, or the file, that raised them.
    The error is raised again as the one of DataError, OSError and
    ValueError it is, the classes :func:`main` tells apart: a subclass's
    constructor may take other arguments."""
    try:
        yield
    except (DataError, OSError, ValueError) as exc:
        kind = next(k for k in (DataError, OSError, ValueError) if isinstance(exc, k))
        raise kind(f"{name}: {exc}") from exc


def _load_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """``train``'s ``--config`` file (or the defaults) with ``--seed`` and
    ``--threshold`` applied, each checked as a config file value is."""
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        try:
            cfg = with_seed(cfg, args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed {args.seed}: {exc}") from exc
    if args.threshold is not None:
        train = dataclasses.replace(cfg.train, threshold=_threshold(args.threshold))
        cfg = dataclasses.replace(cfg, train=train)
    return cfg


def _scoring_model(args: argparse.Namespace) -> Detector:
    """Load and check ``--model`` before any capture is read; ``--threshold``
    overrides its threshold, checked as the config's ``train.threshold`` is.
    Every fault in the file is a DataError that names the file."""
    with _stage("load-model"):
        try:
            model, extra = load_model(args.model)  # its errors name the file
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        try:
            detector = Detector.from_manifest(model, extra)
        except ValueError as exc:
            raise DataError(f"{args.model}: {exc}") from exc
    if args.threshold is not None:
        detector = dataclasses.replace(detector, threshold=_threshold(args.threshold))
    return detector


def _score_report(detector: Detector, ds: FlowDataset, kv_path: str | None) -> str:
    """Score the scaled rows of ``ds``; print and return the report as a table,
    and write it as ``key=value`` lines to ``kv_path`` if one is given."""
    proba = detector.score(ds.features)
    report = build_report(classify(proba, detector.threshold), proba, ds.labels)
    if kv_path:
        with open(kv_path, "w") as fh:
            fh.write(format_report_kv(report))
    table = format_report_table(report)
    print(table)
    return table


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        n_majority=args.n_majority,
        n_minority=args.n_minority,
        n_features=args.n_features,
        separation=args.separation,
        noise_scale=args.noise_scale,
        seed=args.seed if args.seed is not None else 0,
    )
    ds = write_synthetic_csv(spec, args.out)
    print(
        f"wrote {ds.n_rows} rows ({spec.n_minority} attack) "
        f"x {spec.n_features} features to {args.out}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_pipeline_config(args)
    os.makedirs(args.out, exist_ok=True)
    model_path = args.model or os.path.join(args.out, "model.txt")
    os.makedirs(os.path.dirname(model_path) or ".", exist_ok=True)

    with _stage("load"):
        raw, dropped = load_flow_csv(args.data, cfg.data)
    if dropped:
        print(f"dropped {len(dropped)} non-numeric columns: {', '.join(dropped)}")
    with _stage("clean"):
        ds = clean(raw)
    del raw
    with _stage("split"):
        # the training rows are gathered once, into the head of the matrix
        # that SMOTE fills
        train_ds, test_ds = train_test_split(
            ds, cfg.split, room=lambda labels: synthetic_count(labels, cfg.smote)
        )
        del ds  # the split holds copies of its rows
        train_counts = np.bincount(train_ds.labels, minlength=2)
        if train_counts.min() < 2:  # SMOTE interpolates between minority rows
            raise DataError(
                f"training split has {train_counts[0]} benign and {train_counts[1]} "
                "attack rows; SMOTE needs at least 2 rows of each class"
            )
        test_counts = np.bincount(test_ds.labels, minlength=2)
        if not test_counts.all():  # AUC and recall need both classes
            raise DataError(
                f"test split has {test_counts[0]} benign and {test_counts[1]} attack "
                "rows; evaluation needs both classes (see split.stratify)"
            )
    with _stage("scale"):
        scaler = fit_scaler(train_ds)
        # the split's matrices are this command's own, so they scale in place
        for part in (train_ds, test_ds):
            scaler.scale(part.features, out=part.features)
    with _stage("smote"):
        balanced, _ = oversample(train_ds, cfg.smote)
    print(
        f"train {train_ds.n_rows} rows -> {balanced.n_rows} after oversampling "
        f"({balanced.n_rows - train_ds.n_rows} synthetic); test {test_ds.n_rows} rows"
    )
    if balanced.n_rows > train_ds.n_rows:
        n_min = int(train_counts.min())
        k = neighbor_count(cfg.smote.k, n_min)
        print(f"smote k={k} ({cfg.smote.k} requested, {n_min} minority rows)")

    with _stage("train"):
        model = init_model(train_ds.n_features, cfg.architecture)
        model, report, _ = run_dual_phase(model, train_ds, balanced, cfg.train)
    print(f"trained {len(report.records)} epochs in {report.wall_time_s:.1f}s")

    detector = Detector(model, train_ds.feature_names, scaler, cfg.train.threshold, cfg.data)
    with _stage("save"):
        save_model(model, model_path, extra=detector.manifest())
        write_train_report_csv(report, os.path.join(args.out, "train_report.csv"))

    with _stage("evaluate"):
        kv_path = os.path.join(args.out, "eval_report.kv")
        table = _score_report(detector, test_ds, kv_path)
        with open(os.path.join(args.out, "eval_report.txt"), "w") as fh:
            fh.write(table + "\n")
    print(f"model: {model_path}")
    print(f"reports: {args.out}/train_report.csv eval_report.txt eval_report.kv")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    detector = _scoring_model(args)
    names = detector.feature_names
    with _stage("load"):
        raw, _ = load_flow_csv(args.data, detector.data, columns=names)
    # the capture is this command's own, so it is made ready in place;
    # infinities take the mean of their column's finite cells, as in clean(),
    # not the scaler means of Detector.prepare
    with _stage(args.data):
        X, y = _scorable_in_place(
            raw.features, raw.labels, lambda kept: _finite_means(kept, names), detector.scaler
        )
    with _stage("evaluate"):
        _score_report(detector, FlowDataset(names, X, y), args.out)
    if args.out:
        print(f"report: {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    detector = _scoring_model(args)
    benign, attack = detector.data.benign_token, detector.data.attack_token

    with _stage("load"):
        X, row_numbers = load_feature_matrix(args.data, detector.feature_names)

    # rows with unparseable cells are dropped; infinities take the scaler's
    # means. X is this command's own, so it is made ready in place.
    n_read = X.shape[0]
    with _stage(args.data):
        X, rows = detector.prepare(X, row_numbers)
    del row_numbers
    n_dropped = n_read - X.shape[0]

    with _stage("predict"):
        proba = detector.score(X, rows)
    pred = classify(proba, detector.threshold)

    with _stage("write"):
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "probability", "label"])
            # csv writes a float with repr, which round-trips it exactly
            writer.writerows(
                (r, p, attack if c else benign)
                for r, p, c in zip(rows.tolist(), proba.tolist(), pred.tolist())
            )
    flagged = int(pred.sum())
    note = f", dropped {n_dropped} rows with unparseable cells" if n_dropped else ""
    print(f"scored {X.shape[0]} rows, {flagged} flagged as {attack}{note}")
    print(f"predictions: {args.out}")
    return 0


def cmd_gradcheck(_args: argparse.Namespace) -> int:
    ok = True
    for report in self_check():
        print(report.format())
        print()
        ok = ok and report.passed
    if not ok:
        print("gradient check FAILED", file=sys.stderr)
        return 3
    print("gradient check passed")
    return 0


def cmd_print_default_config(_args: argparse.Namespace) -> int:
    sys.stdout.write(dumps_config(default_config()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ddosflow",
        description="DDoS flow detection: SMOTE-balanced dual-phase "
        "residual network with feature attention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled flow CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--n-majority", type=int, default=1000)
    p.add_argument("--n-minority", type=int, default=50)
    p.add_argument("--n-features", type=int, default=8)
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run the full training pipeline")
    p.add_argument("--data", required=True, help="labeled flow CSV")
    p.add_argument("--out", required=True, help="output directory for reports")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--model", help="model file path (default OUT/model.txt)")
    p.add_argument("--seed", type=int, default=None, help="override all seeds")
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a labeled CSV against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="labeled flow CSV")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", help="also write key=value report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="per-row probabilities for a flow CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="flow CSV (labels not needed)")
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient self-check")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("print-default-config", help="emit the full default config")
    p.set_defaults(func=cmd_print_default_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

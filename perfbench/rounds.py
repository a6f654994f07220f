"""Rounds of real CLI commands and the checks on their outputs.

Every ``train``, ``evaluate`` and ``predict`` runs as ``python -m
ddosflow.cli`` in its own child process, with the checkout's ``src`` on
``PYTHONPATH`` and one BLAS/OpenMP thread, so wall time and peak RSS are
what a user pays, interpreter start included. The children are started by
``launch.py``, so their peak RSS leaves out this process's own memory.
"""

from __future__ import annotations

import os

# one thread per BLAS/OpenMP pool, set before NumPy loads here and passed to
# every child: the load on the machine comes from one process at a time
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import atexit  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "work")
THRESHOLD = 0.5  # the program's default; no workload overrides it
TRAIN_OUTPUTS = ("model.txt", "train_report.csv", "eval_report.txt", "eval_report.kv")

# the operations each known fault makes fail, every time, on fixed inputs;
# a failure counts as the fault's only when it shows the fault's symptom
BATCH_REMAINDER_ERROR = "batch size >= 2"
KNOWN_FAULTS = {
    "batch-remainder": frozenset({"probe-train"}),
    "inf-fill": frozenset({"probe-auc-agreement"}),
    None: frozenset(),
}


@dataclass
class Command:
    wall_s: float
    maxrss_mb: float
    returncode: int
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure.

    ``known`` names the operations a known fault makes fail. Such a failure
    is the fault's only if the caller says it shows the fault's symptom;
    any other failure makes the run incorrect.
    """

    known: frozenset[str] = frozenset()
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "", symptom: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)
            if not (name in self.known and symptom):
                self.unexpected.append(name)
        return ok


@dataclass
class Samples:
    """Per-command measurements of one run."""

    train: list[float] = field(default_factory=list)
    evaluate: list[float] = field(default_factory=list)
    predict: list[float] = field(default_factory=list)
    maxrss: list[float] = field(default_factory=list)
    auc: list[float] = field(default_factory=list)
    recall: list[float] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return env


_launcher: subprocess.Popen | None = None


def _stop_launcher() -> None:
    _launcher.stdin.close()
    _launcher.wait()


def run_child(argv: list[str]) -> Command:
    """Run ``python argv`` to completion; wall time and peak RSS are its own."""
    global _launcher
    if _launcher is None:
        _launcher = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
        )
        atexit.register(_stop_launcher)
    os.makedirs(WORK, exist_ok=True)
    out, err = os.path.join(WORK, "child.out"), os.path.join(WORK, "child.err")
    job = {"argv": [sys.executable, *argv], "env": child_env(), "cwd": ROOT, "stdout": out, "stderr": err}
    _launcher.stdin.write(json.dumps(job) + "\n")
    _launcher.stdin.flush()
    reply = _launcher.stdout.readline()
    if not reply:
        raise RuntimeError("the command launcher ended early")
    done = json.loads(reply)
    with open(err, encoding="utf-8") as fh:
        stderr = fh.read().strip()
    return Command(done["wall_s"], done["maxrss_kb"] / 1024.0, done["returncode"], stderr)


def cli(*args: str) -> list[str]:
    return ["-m", "ddosflow.cli", *args]


def train(data_csv: str, config_json: str | None, outdir: str) -> Command:
    shutil.rmtree(outdir, ignore_errors=True)
    config = ["--config", config_json] if config_json else []
    return run_child(cli("train", "--data", data_csv, "--out", outdir, *config))


def score_capture(
    ledger: Ledger,
    tag: str,
    model: str,
    capture_csv: str,
    truth: workloads.Flows,
    outdir: str,
    samples: Samples | None,
) -> None:
    """``evaluate`` and ``predict`` one capture, then check both outputs.

    A probe (``samples`` None) checks only the ROC-AUC agreement its fault
    breaks.
    """
    kv_path = os.path.join(outdir, "capture_report.kv")
    pred_path = os.path.join(outdir, "predictions.csv")
    ev = run_child(cli("evaluate", "--model", model, "--data", capture_csv, "--out", kv_path))
    pr = run_child(cli("predict", "--model", model, "--data", capture_csv, "--out", pred_path))
    ev_ok = ledger.record(f"{tag}evaluate", ev.ok, ev.stderr)
    pr_ok = ledger.record(f"{tag}predict", pr.ok, pr.stderr)
    kv = checks.read_kv(kv_path) if ev_ok else None
    pred = checks.read_predictions(pred_path) if pr_ok else None
    kept_truth = truth.labels[truth.kept]

    def check(name: str, ready: bool, fn) -> None:
        # with both outputs there, a failed check is the outputs' disagreement
        ok, detail = fn() if ready else (False, "no output to check")
        ledger.record(f"{tag}{name}", ok, detail, symptom=ready)

    check(
        "auc-agreement",
        ev_ok and pr_ok,
        lambda: checks.auc_agreement(float(kv["roc_auc"]), pred[1], kept_truth),
    )
    if samples is None:
        return
    samples.maxrss += [ev.maxrss_mb, pr.maxrss_mb]
    if ev_ok:
        samples.evaluate.append(ev.wall_s)
        samples.auc.append(float(kv["roc_auc"]))
        samples.recall.append(float(kv["recall"]))
    if pr_ok:
        samples.predict.append(pr.wall_s)
    check("confusion-totals", ev_ok, lambda: checks.confusion_totals(kv, kept_truth))
    check(
        "predictions",
        pr_ok,
        lambda: checks.predictions_match(
            *pred, truth.kept, THRESHOLD, workloads.ATTACK, workloads.BENIGN
        ),
    )
    check("auc-floor", ev_ok, lambda: checks.auc_floor(float(kv["roc_auc"])))


def run_round(wl: workloads.Workload, inputs: workloads.Inputs, ledger: Ledger, s: Samples) -> None:
    """Two train/evaluate/predict repetitions, their checks, and the probe.

    Every round attempts the same operations, so the share that fails is
    the same in every run whatever its length.
    """
    outdirs = [os.path.join(WORK, wl.name, f"run{rep}") for rep in (0, 1)]
    trained = []
    for outdir in outdirs:
        cmd = train(inputs.train_csv, inputs.config_json, outdir)
        s.maxrss.append(cmd.maxrss_mb)
        trained.append(ledger.record("train", cmd.ok, cmd.stderr))
        if cmd.ok:
            s.train.append(cmd.wall_s)
        model = os.path.join(outdir, "model.txt")
        score_capture(ledger, "", model, inputs.capture_csv, inputs.capture, outdir, s)
    if all(trained):
        ok, detail = checks.same_bytes(
            *[[os.path.join(d, f) for f in TRAIN_OUTPUTS] for d in outdirs]
        )
    else:
        ok, detail = False, "a train failed"
    ledger.record("train-byte-identical", ok, detail)
    run_probe(wl, inputs, ledger)


def run_probe(wl: workloads.Workload, inputs: workloads.Inputs, ledger: Ledger) -> None:
    """The operations a known fault makes fail, on fixed inputs."""
    if wl.fault is None:
        return
    outdir = os.path.join(WORK, wl.name, "probe")
    cmd = train(inputs.probe_train_csv, inputs.probe_config_json, outdir)
    symptom = cmd.returncode == 1 and BATCH_REMAINDER_ERROR in cmd.stderr
    trained = ledger.record("probe-train", cmd.ok, cmd.stderr, symptom)
    if wl.fault != "inf-fill":
        return
    if trained:
        model = os.path.join(outdir, "model.txt")
        score_capture(
            ledger, "probe-", model, inputs.probe_capture_csv, inputs.probe_capture, outdir, None
        )
    else:
        for name in ("probe-evaluate", "probe-predict", "probe-auc-agreement"):
            ledger.record(name, False, "probe model missing")


def clear(wl: workloads.Workload) -> None:
    """Remove what an earlier run of the workload left behind."""
    shutil.rmtree(os.path.join(WORK, wl.name), ignore_errors=True)


def write_inputs(
    wl: workloads.Workload, seed: int, min_total_s: float = 0.0
) -> tuple[workloads.Inputs, list[float]]:
    """Write the workload's inputs at least once and for at least
    ``min_total_s`` seconds; returns the inputs and the time of each writing.

    Every writing gives the same files, so it may run between rounds.
    """
    times: list[float] = []
    while not times or sum(times) < min_total_s:
        start = time.perf_counter()
        inputs = workloads.prepare(wl, seed, os.path.join(WORK, wl.name))
        times.append(time.perf_counter() - start)
    return inputs, times

"""Seeded input generation and the workload definitions.

The generator is written here, apart from ``ddosflow.synth``, so the
benchmark's inputs and its expected labels do not depend on the code under
test. Rows are two Gaussian classes whose means sit ``SEPARATION`` noise
standard deviations apart along the unit diagonal, the same geometry as the
program's own synthetic generator, so a working pipeline must score near
perfectly on them.

CICIDS-shaped files carry the 78 numeric CICIDS2017 feature columns (with
the export's padded header names), four identifier columns that are not
numeric, and three kinds of bad cells in the rate columns: ``Infinity``
(zero-duration flows), empty cells and unparseable text.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

SEPARATION = 6.0
BENIGN, ATTACK = "BENIGN", "DDoS"

CICIDS_FEATURES = (
    "Destination Port", "Flow Duration", "Total Fwd Packets",
    "Total Backward Packets", "Total Length of Fwd Packets",
    "Total Length of Bwd Packets", "Fwd Packet Length Max",
    "Fwd Packet Length Min", "Fwd Packet Length Mean", "Fwd Packet Length Std",
    "Bwd Packet Length Max", "Bwd Packet Length Min", "Bwd Packet Length Mean",
    "Bwd Packet Length Std", "Flow Bytes/s", "Flow Packets/s", "Flow IAT Mean",
    "Flow IAT Std", "Flow IAT Max", "Flow IAT Min", "Fwd IAT Total",
    "Fwd IAT Mean", "Fwd IAT Std", "Fwd IAT Max", "Fwd IAT Min",
    "Bwd IAT Total", "Bwd IAT Mean", "Bwd IAT Std", "Bwd IAT Max",
    "Bwd IAT Min", "Fwd PSH Flags", "Bwd PSH Flags", "Fwd URG Flags",
    "Bwd URG Flags", "Fwd Header Length", "Bwd Header Length",
    "Fwd Packets/s", "Bwd Packets/s", "Min Packet Length",
    "Max Packet Length", "Packet Length Mean", "Packet Length Std",
    "Packet Length Variance", "FIN Flag Count", "SYN Flag Count",
    "RST Flag Count", "PSH Flag Count", "ACK Flag Count", "URG Flag Count",
    "CWE Flag Count", "ECE Flag Count", "Down/Up Ratio",
    "Average Packet Size", "Avg Fwd Segment Size", "Avg Bwd Segment Size",
    "Fwd Header Length.1", "Fwd Avg Bytes/Bulk", "Fwd Avg Packets/Bulk",
    "Fwd Avg Bulk Rate", "Bwd Avg Bytes/Bulk", "Bwd Avg Packets/Bulk",
    "Bwd Avg Bulk Rate", "Subflow Fwd Packets", "Subflow Fwd Bytes",
    "Subflow Bwd Packets", "Subflow Bwd Bytes", "Init_Win_bytes_forward",
    "Init_Win_bytes_backward", "act_data_pkt_fwd", "min_seg_size_forward",
    "Active Mean", "Active Std", "Active Max", "Active Min", "Idle Mean",
    "Idle Std", "Idle Max", "Idle Min",
)
ID_COLUMNS = ("Flow ID", "Source IP", "Destination IP", "Timestamp")
RATE_COLUMNS = ("Flow Bytes/s", "Flow Packets/s")
CORRUPT_CELL = "n/a"


@dataclass(frozen=True)
class FileSpec:
    """Make-up of one generated flow CSV.

    ``cicids`` selects the CICIDS2017 shape (78 named features, identifier
    columns, bad cells); otherwise the file has ``n_features`` plain columns
    like ``ddosflow synth`` writes. The shares give the fraction of rows
    with each kind of bad cell.
    """

    n_benign: int
    n_attack: int
    n_features: int = 8
    cicids: bool = False
    inf_share: float = 0.0
    empty_share: float = 0.0
    corrupt_share: float = 0.0

    @property
    def n_rows(self) -> int:
        return self.n_benign + self.n_attack


@dataclass(frozen=True)
class Flows:
    """What the benchmark knows about a generated file.

    ``labels`` is the generator's truth (1 = attack) per data row in file
    order; ``unparseable`` marks rows holding an empty or corrupt cell, which
    the program must drop; ``inf_cells`` counts the ``Infinity`` cells.
    """

    labels: np.ndarray
    unparseable: np.ndarray
    inf_cells: int

    @property
    def kept(self) -> np.ndarray:
        return ~self.unparseable


@dataclass(frozen=True)
class Workload:
    """Inputs and program config of one benchmark workload.

    ``train`` is the labelled training file, ``capture`` the held-out
    labelled capture scored by ``evaluate`` and ``predict``. ``config`` is a
    partial pipeline config (None runs the program's defaults). ``fault``
    names a known fault whose probe runs on fixed inputs in every round.
    """

    name: str
    train: FileSpec
    capture: FileSpec
    config: dict | None
    fault: str | None = None


def _cicids(n_benign: int, n_attack: int, inf_share: float = 0.01) -> FileSpec:
    return FileSpec(
        n_benign, n_attack, len(CICIDS_FEATURES), cicids=True,
        inf_share=inf_share, empty_share=0.004, corrupt_share=0.002,
    )


# Seeded captures hold empty and corrupt cells but no Infinity: evaluate and
# predict fill Infinity differently (the "inf-fill" fault), and whether that
# changes the ROC-AUC depends on the seed, so it is shown on fixed inputs.
WORKLOADS = {
    # README quick-start shape on the default config: per-batch Python and
    # NumPy call overhead in trainer and nn, with CSV, clean and k-NN
    # negligible. The capture is large enough that scoring takes over a
    # second, so process start-up is not most of it.
    "desk": Workload(
        "desk",
        train=FileSpec(1000, 50),
        capture=FileSpec(38000, 2000),
        config=None,
        fault="batch-remainder",
    ),
    # CICIDS2017-shaped training with a few thousand minority rows and two
    # epochs per phase: CSV parsing, clean, the quadratic k-NN and wide-batch
    # BLAS work each take a large share of train. Then evaluate and predict
    # on a capture twice the training file's size: reading and inference
    # instead of SMOTE and backward passes.
    "cicids": Workload(
        "cicids",
        train=_cicids(9000, 2000),
        capture=_cicids(18000, 2000, inf_share=0.0),
        config={"train": {"epochs_phase1": 2, "epochs_phase2": 2}},
        fault="inf-fill",
    ),
}

# Fixed-seed probe inputs, the same whatever the workload seed.
PROBE_SEED = 0
# "batch-remainder": 300 benign + 21 attack rows. The default 80/20 split
# leaves 257 training rows, one more than a multiple of the default batch
# size of 256, and train fails on the one-row batch.
BATCH_REMAINDER_TRAIN = FileSpec(300, 21)
# "inf-fill": a small model, with its own config, scores a 3300-row
# capture, half of it attack flows, with Infinity in both rate columns of 2%
# of its rows. evaluate fills them with the capture's column mean, predict
# with the training mean; the capture's class mix is far from the training
# file's, so the two fills differ and evaluate's ROC-AUC differs from that of
# predict's scores.
INF_FILL_CONFIG = {
    "architecture": {"input_width": 16, "block_widths": [16, 16]},
    "train": {"epochs_phase1": 5, "epochs_phase2": 5},
}
INF_FILL_TRAIN = _cicids(2700, 300)
INF_FILL_CAPTURE = _cicids(1650, 1650, inf_share=0.02)


def _column_scales(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed per-column location and scale, so columns differ in magnitude."""
    rng = np.random.Generator(np.random.PCG64(12345))
    scale = 10.0 ** rng.integers(0, 6, n)
    loc = scale * rng.integers(0, 20, n)
    return loc, scale


# rows formatted and written at a time: the text of a whole file is never
# held in memory, which keeps set-up time less sensitive to cache and
# allocator pressure from elsewhere on the machine
BLOCK_ROWS = 1024


def _blocks(n_rows: int, lines: Callable[[int, int], str]) -> Iterator[str]:
    return (lines(s, min(s + BLOCK_ROWS, n_rows)) for s in range(0, n_rows, BLOCK_ROWS))


def generate(spec: FileSpec, seed: int) -> tuple[str, Iterator[str], Flows]:
    """Draw one file: its header line, its data lines in blocks, and the
    generator's truth. Every random draw is made here; the blocks only
    format, as they are consumed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    d = spec.n_features
    labels = np.zeros(spec.n_rows, dtype=np.int64)
    labels[spec.n_benign :] = 1
    labels = labels[rng.permutation(spec.n_rows)]
    z = rng.standard_normal((spec.n_rows, d))
    z[labels == 1] += SEPARATION / np.sqrt(d)
    tokens = np.where(labels == 1, ATTACK, BENIGN).tolist()

    if not spec.cicids:
        header = ",".join([f"feature_{j}" for j in range(d)] + ["Label"]) + "\n"

        def plain(start: int, stop: int) -> str:
            return "".join(
                ",".join(map(repr, r)) + "," + t + "\n"
                for r, t in zip(z[start:stop].tolist(), tokens[start:stop])
            )

        none = np.zeros(spec.n_rows, dtype=bool)
        return header, _blocks(spec.n_rows, plain), Flows(labels, none, 0)

    loc, scale = _column_scales(d)
    values = loc + scale * z
    rate_idx = [CICIDS_FEATURES.index(c) for c in RATE_COLUMNS]
    kind = rng.random(spec.n_rows)
    inf_rows = kind < spec.inf_share
    empty_rows = (kind >= spec.inf_share) & (kind < spec.inf_share + spec.empty_share)
    corrupt_rows = (kind >= spec.inf_share + spec.empty_share) & (
        kind < spec.inf_share + spec.empty_share + spec.corrupt_share
    )
    bad: dict[int, dict[int, str]] = {}  # row -> {feature column: cell text}
    for i in np.flatnonzero(inf_rows).tolist():
        bad[i] = dict.fromkeys(rate_idx, "Infinity")
    for i in np.flatnonzero(empty_rows).tolist():
        bad[i] = {rate_idx[0]: ""}
    for i in np.flatnonzero(corrupt_rows).tolist():
        bad[i] = {rate_idx[int(rng.integers(0, 2))]: CORRUPT_CELL}
    octets = rng.integers(1, 255, (spec.n_rows, 3)).tolist()
    ports = rng.integers(1024, 65535, spec.n_rows).tolist()

    def cicids(start: int, stop: int) -> str:
        out = []
        for i, r in enumerate(values[start:stop].tolist(), start):
            cells = ["%.6g" % v for v in r]
            for j, text in bad.get(i, {}).items():
                cells[j] = text
            a, b, c = octets[i]
            src, dst = f"172.16.{a}.{b}", f"192.168.10.{c}"
            ids = [f"{src}-{dst}-{ports[i]}-80-6", src, dst, f"7/7/2017 {i % 24}:{i % 60:02d}"]
            out.append(",".join(ids + cells + [tokens[i]]) + "\n")
        return "".join(out)

    header = ",".join([" " + n for n in ID_COLUMNS + CICIDS_FEATURES] + [" Label"]) + "\n"
    flows = Flows(labels, empty_rows | corrupt_rows, int(inf_rows.sum()) * len(rate_idx))
    return header, _blocks(spec.n_rows, cicids), flows


def write_csv(path: str, header: str, blocks: Iterable[str]) -> None:
    # no cell holds a comma or a quote, so plain joins are valid CSV
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for block in blocks:
            fh.write(block)


def file_seed(seed: int, role: int) -> int:
    """Independent stream per file role (0 train, 1 capture) from one seed."""
    return int(np.random.SeedSequence([seed, role]).generate_state(1)[0])


@dataclass(frozen=True)
class Inputs:
    """Paths of a workload's generated files plus the truth about them.

    The ``probe_*`` fields are set when the workload has a known-fault probe
    (``probe_capture`` only for "inf-fill"). ``probe_config_json`` is the
    config the probe trains with: the workload's own for "batch-remainder",
    a small model of its own for "inf-fill".
    """

    train_csv: str
    capture_csv: str
    config_json: str | None
    capture: Flows
    probe_train_csv: str | None = None
    probe_capture_csv: str | None = None
    probe_capture: Flows | None = None
    probe_config_json: str | None = None


def _write(spec: FileSpec, seed: int, path: str) -> Flows:
    header, blocks, flows = generate(spec, seed)
    write_csv(path, header, blocks)
    return flows


def prepare(workload: Workload, seed: int, workdir: str) -> Inputs:
    """Generate and write every input file of ``workload`` from ``seed``."""
    os.makedirs(workdir, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    _write(workload.train, file_seed(seed, 0), path("train.csv"))
    capture = _write(workload.capture, file_seed(seed, 1), path("capture.csv"))
    config_json = _write_config(workload.config, path("config.json"))
    inputs = Inputs(path("train.csv"), path("capture.csv"), config_json, capture)
    if workload.fault == "batch-remainder":
        _write(BATCH_REMAINDER_TRAIN, PROBE_SEED, path("probe_train.csv"))
        inputs = replace(
            inputs, probe_train_csv=path("probe_train.csv"), probe_config_json=config_json
        )
    elif workload.fault == "inf-fill":
        _write(INF_FILL_TRAIN, PROBE_SEED, path("probe_train.csv"))
        probe = _write(INF_FILL_CAPTURE, PROBE_SEED + 1, path("probe_capture.csv"))
        inputs = replace(
            inputs,
            probe_train_csv=path("probe_train.csv"),
            probe_capture_csv=path("probe_capture.csv"),
            probe_capture=probe,
            probe_config_json=_write_config(INF_FILL_CONFIG, path("probe_config.json")),
        )
    return inputs


def _write_config(config: dict | None, path: str) -> str | None:
    """Write a partial pipeline config; None (the defaults) writes nothing."""
    if config is None:
        return None
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return path

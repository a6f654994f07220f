"""The raw CICIDS2017 export layout, generated in place (no download).

The raw 85-column files carry flow identifiers, padded header names and
two columns named ``Fwd Header Length``; pandas-exported copies name the
second one ``Fwd Header Length.1``. Both must train, evaluate and predict,
and give the same bytes.
"""

import json
import math

import numpy as np

from ddosflow.cli import main
from ddosflow.nn import load_model

# the header row of the TrafficLabelling CSVs, padding included
RAW_HEADER = (
    "Flow ID, Source IP, Source Port, Destination IP, Destination Port, Protocol, "
    "Timestamp, Flow Duration, Total Fwd Packets, Total Backward Packets,"
    "Total Length of Fwd Packets, Total Length of Bwd Packets, Fwd Packet Length Max, "
    "Fwd Packet Length Min, Fwd Packet Length Mean, Fwd Packet Length Std,"
    "Bwd Packet Length Max, Bwd Packet Length Min, Bwd Packet Length Mean, "
    "Bwd Packet Length Std,Flow Bytes/s, Flow Packets/s, Flow IAT Mean, Flow IAT Std, "
    "Flow IAT Max, Flow IAT Min,Fwd IAT Total, Fwd IAT Mean, Fwd IAT Std, Fwd IAT Max, "
    "Fwd IAT Min,Bwd IAT Total, Bwd IAT Mean, Bwd IAT Std, Bwd IAT Max, Bwd IAT Min,"
    "Fwd PSH Flags, Bwd PSH Flags, Fwd URG Flags, Bwd URG Flags, Fwd Header Length, "
    "Bwd Header Length,Fwd Packets/s, Bwd Packets/s, Min Packet Length, "
    "Max Packet Length, Packet Length Mean, Packet Length Std, Packet Length Variance,"
    "FIN Flag Count, SYN Flag Count, RST Flag Count, PSH Flag Count, ACK Flag Count, "
    "URG Flag Count, CWE Flag Count, ECE Flag Count, Down/Up Ratio, Average Packet Size, "
    "Avg Fwd Segment Size, Avg Bwd Segment Size, Fwd Header Length,Fwd Avg Bytes/Bulk, "
    "Fwd Avg Packets/Bulk, Fwd Avg Bulk Rate, Bwd Avg Bytes/Bulk, Bwd Avg Packets/Bulk,"
    "Bwd Avg Bulk Rate,Subflow Fwd Packets, Subflow Fwd Bytes, Subflow Bwd Packets, "
    "Subflow Bwd Bytes,Init_Win_bytes_forward, Init_Win_bytes_backward, act_data_pkt_fwd, "
    "min_seg_size_forward,Active Mean, Active Std, Active Max, Active Min,Idle Mean, "
    "Idle Std, Idle Max, Idle Min, Label"
).split(",")
IDENTIFIERS = ("Flow ID", "Source IP", "Destination IP", "Timestamp")
CONSTANT = (
    "Bwd PSH Flags", "Fwd URG Flags", "Bwd URG Flags", "CWE Flag Count",
    "Fwd Avg Bytes/Bulk", "Fwd Avg Packets/Bulk", "Fwd Avg Bulk Rate",
    "Bwd Avg Bytes/Bulk", "Bwd Avg Packets/Bulk", "Bwd Avg Bulk Rate",
)
RATES = ("Flow Bytes/s", "Flow Packets/s")
N_BENIGN, N_ATTACK, N_REPEATED = 200, 40, 12

CONFIG = {
    "split": {"stratify": True},
    "train": {"epochs_phase1": 4, "epochs_phase2": 4, "batch_size": 64},
    "architecture": {"input_width": 8, "block_widths": [8, 8]},
}


def raw_rows(seed=0):
    """Rows of the raw layout, as lists of cell text, and the 1-based
    numbers of the rows that hold a NaN cell."""
    rng = np.random.Generator(np.random.PCG64(seed))
    names = [h.strip() for h in RAW_HEADER]
    col = {name: j for j, name in enumerate(names)}
    n = N_BENIGN + N_ATTACK
    attack = rng.permutation(n) < N_ATTACK
    values = np.abs(rng.normal(size=(n, len(names)))) * 100 + 300 * attack[:, None]
    rows = []
    for i in range(n):
        cells = [repr(round(float(v), 3)) for v in values[i]]
        cells[col["Flow ID"]] = f"192.168.10.{i % 250}-104.16.207.165-{50000 + i}-443-6"
        cells[col["Source IP"]] = f"192.168.10.{i % 250}"
        cells[col["Destination IP"]] = "104.16.207.165"
        cells[col["Timestamp"]] = f"7/7/2017 3:{i % 60:02d}"
        cells[col["Protocol"]] = "6" if i % 3 else "17"
        for name in CONSTANT:
            cells[col[name]] = "0"
        if i % 9 == 0:  # the export writes -1 for an unseen window
            cells[col["Init_Win_bytes_forward"]] = "-1"
            cells[col["Init_Win_bytes_backward"]] = "-1"
        if i % 17 == 3:  # a zero-duration flow
            cells[col["Flow Duration"]] = "0"
            for name in RATES:
                cells[col[name]] = "Infinity"
        if i % 41 == 5:
            cells[col["Flow Bytes/s"]] = "NaN"
        cells[col["Label"]] = "DDoS" if attack[i] else "BENIGN"
        rows.append(cells)
    # the second Fwd Header Length repeats the first cell for cell
    first, second = [j for j, h in enumerate(names) if h == "Fwd Header Length"]
    for cells in rows:
        cells[second] = cells[first]
    rows += [list(rows[i]) for i in rng.choice(n, N_REPEATED, replace=False)]
    nan_rows = [r for r, cells in enumerate(rows, start=1) if "NaN" in cells]
    return rows, nan_rows


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")
    return str(path)


def run_copy(tmp_path, name, header, rows, config):
    data = write_csv(tmp_path / f"{name}.csv", header, rows)
    out = tmp_path / name
    assert main(["train", "--data", data, "--out", str(out), "--config", config]) == 0
    model = str(out / "model.txt")
    kv, pred = out / "capture.kv", out / "predictions.csv"
    assert main(["evaluate", "--model", model, "--data", data, "--out", str(kv)]) == 0
    assert main(["predict", "--model", model, "--data", data, "--out", str(pred)]) == 0
    return out, kv, pred


def test_raw_and_pandas_named_cicids_layouts_train_and_score_alike(tmp_path, capsys):
    assert len(RAW_HEADER) == 85
    rows, nan_rows = raw_rows()
    assert nan_rows and any("Infinity" in r for r in rows)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    pandas_header = list(RAW_HEADER)
    second = [i for i, h in enumerate(RAW_HEADER) if h.strip() == "Fwd Header Length"][1]
    pandas_header[second] = " Fwd Header Length.1"

    raw_out, raw_kv, raw_pred = run_copy(tmp_path, "raw", RAW_HEADER, rows, str(config))
    assert f"dropped 4 non-numeric columns: {', '.join(IDENTIFIERS)}" in capsys.readouterr().out
    pd_out, _, pd_pred = run_copy(tmp_path, "pandas", pandas_header, rows, str(config))

    assert (raw_out / "model.txt").read_bytes() == (pd_out / "model.txt").read_bytes()
    assert raw_pred.read_bytes() == pd_pred.read_bytes()
    _, extra = load_model(str(raw_out / "model.txt"))
    assert len(extra["feature_names"]) == 85 - len(IDENTIFIERS) - 1
    assert extra["feature_names"].count("Fwd Header Length") == 1
    assert "Fwd Header Length.1" in extra["feature_names"]
    assert all(math.isfinite(v) for v in extra["scaler_means"] + extra["scaler_stds"])

    # both scoring commands keep every row without a NaN cell. Their scores
    # are not compared: evaluate fills an Infinity cell with the capture's
    # column mean and predict with the scaler's, so rows of zero-duration
    # flows may score differently (the known ±inf fill fault, which these
    # Infinity cells are kept to exercise)
    kv = dict(line.split("=", 1) for line in raw_kv.read_text().splitlines())
    scored = [int(line.split(",")[0]) for line in raw_pred.read_text().splitlines()[1:]]
    assert scored == [r for r in range(1, len(rows) + 1) if r not in nan_rows]
    assert sum(int(kv[k]) for k in ("tp", "fp", "tn", "fn")) == len(scored)

"""Benchmark of the ddosflow command line: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

The run repeats whole rounds of real ``train``, ``evaluate`` and
``predict`` commands and the checks on their outputs (``rounds.py``) for
about ``--seconds`` seconds. It prints each metric on standard error and,
as the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 1`` it runs one
round and then the commands in-process, traced and untraced
(``layers.py``), and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import rounds  # first: fixes the thread settings before NumPy loads
import numpy as np
import workloads

# Set-up is timed before the first round and again after every round, for
# at least SETUP_MIN_S each time. The machine's speed changes from one
# half-minute to the next; samples spread over the run, like the command
# timings, keep a slow or fast spell at its start from setting setup_s.
SETUP_MIN_S = 1.0

UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "evaluate_rows_per_s": "rows/s",
    "predict_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "test_auc": "ratio",
    "test_recall": "ratio",
}


def end_to_end(wl, seed: int, seconds: float, ledger: rounds.Ledger) -> dict[str, float]:
    """Whole rounds for about ``seconds``, set-up time not counted."""
    rounds.clear(wl)
    inputs, setup = rounds.write_inputs(wl, seed, SETUP_MIN_S)
    s = rounds.Samples()
    measured = longest = 0.0
    while True:
        t0 = time.perf_counter()
        rounds.run_round(wl, inputs, ledger, s)
        took = time.perf_counter() - t0
        measured += took
        longest = max(longest, took)
        setup += rounds.write_inputs(wl, seed, SETUP_MIN_S)[1]
        # stop where the run ends nearest to the requested length
        if measured + longest / 2 >= seconds:
            break
    print("set-up times (s): " + " ".join(f"{t:.3f}" for t in setup), file=sys.stderr)
    for name in ("train", "evaluate", "predict"):
        times = " ".join(f"{t:.3f}" for t in getattr(s, name))
        print(f"{name} wall times (s): {times}", file=sys.stderr)
    scored = int(inputs.capture.kept.sum())

    def median(xs: list[float]) -> float:
        return statistics.median(xs) if xs else 0.0

    # Times and rates are totals over the run's commands, not medians: a
    # command's time jumps between a fast and a slow mode of the machine,
    # and a median jumps with it where a total moves by the share of
    # commands in each mode.
    def mean(times: list[float]) -> float:
        return sum(times) / len(times) if times else 0.0

    def rate(times: list[float]) -> float:
        # every row scored by the run's commands over their summed wall time
        return scored * len(times) / sum(times) if times else 0.0

    return {
        "setup_s": statistics.median(setup),
        "train_s": mean(s.train),
        "evaluate_rows_per_s": rate(s.evaluate),
        "predict_rows_per_s": rate(s.predict),
        "peak_rss_mb": max(s.maxrss),
        "test_auc": median(s.auc),
        "test_recall": median(s.recall),
    }


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    threads = ", ".join(f"{k}={v}" for k, v in rounds.THREAD_ENV.items())
    return f"NumPy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, {threads}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(rounds.SRC, "ddosflow", "cli.py")):
        print(f"no ddosflow sources under {rounds.SRC}", file=sys.stderr)
        return 2
    print(environment(), file=sys.stderr)
    wl = workloads.WORKLOADS[args.workload]
    ledger = rounds.Ledger(known=rounds.KNOWN_FAULTS[wl.fault])
    if args.trace:
        import layers  # imports ddosflow itself, so only after the check above

        rounds.clear(wl)
        inputs, _ = rounds.write_inputs(wl, args.seed)
        metrics = layers.traced_run(wl, inputs, ledger)
        units = layers.UNITS
    else:
        metrics = end_to_end(wl, args.seed, args.seconds, ledger)
        units = UNITS
    for name, value in metrics.items():
        print(f"{name:<32s} {value:>14.6g} {units[name]}", file=sys.stderr)
    print(f"operations: {ledger.attempted} attempted, {ledger.failed} failed", file=sys.stderr)
    result = {
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded inputs, the CLI argument lists one
repetition runs, and the checks on the files those commands write.

Every workload is a closed loop with one caller: each CLI command starts
after the previous one has returned.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

ALPHA = 0.1
FEATURES = 4
TARGET = "y"
PIPELINE_ROWS = 20_000
NW_ROWS = 20_000
PIPELINE_EPOCHS = 5
COVERAGE = {  # release per-replication sizes of `demo coverage`
    "n_train": 1000, "n_cal": 500, "n_test": 1000, "epochs": 60,
    "dgp": "heteroscedastic", "alpha": ALPHA, "replications": 10,
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_rows(seed, stream, n):
    """n rows of 4 uniform features and a heteroscedastic target.

    Only x1..x3 carry signal; the noise scale grows with |x3|, so a fixed
    width interval over- and under-covers in different feature regions.
    """
    rng = np.random.default_rng([seed, stream])
    X = rng.uniform(-2.0, 2.0, size=(n, FEATURES))
    scale = 0.3 + 0.7 * np.abs(X[:, 2])
    y = X[:, 0] + 0.5 * X[:, 1] + scale * rng.standard_normal(n)
    return X, y


def write_csv(path, X, y):
    header = ",".join([f"x{j + 1}" for j in range(X.shape[1])] + [TARGET])
    np.savetxt(path, np.column_stack([X, y]), fmt="%.17g", delimiter=",",
               header=header, comments="")


def write_config(path, sections):
    with open(path, "w") as fh:
        for section, values in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the file passes
# ---------------------------------------------------------------------------

def _read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{os.path.basename(path)}: empty file")
    return rows[0], rows[1:]


def _coverage_band(alpha, n_cal):
    """Split-conformal marginal coverage lies in [1-a, 1-a+1/(n_cal+1)]."""
    return 1.0 - alpha, 1.0 - alpha + 1.0 / (n_cal + 1)


def check_predictions(path, n_rows):
    """One row per input row, quantile columns non-decreasing across levels,
    lower <= upper, every cell finite."""
    try:
        header, rows = _read_table(path)
        data = np.array(rows, dtype=float)
    except (OSError, ValueError) as exc:
        return [f"predictions.csv unreadable: {exc}"]
    if data.shape != (n_rows, len(header)):
        return [f"predictions.csv has shape {data.shape}, "
                f"expected ({n_rows}, {len(header)})"]
    problems = []
    if not np.all(np.isfinite(data)):
        problems.append("predictions.csv has non-finite cells")
    qcols = [j for j, h in enumerate(header) if h.startswith("q")]
    crossing = np.any(np.diff(data[:, qcols], axis=1) < 0, axis=1)
    if crossing.any():
        problems.append(f"{int(crossing.sum())} rows with decreasing quantiles, "
                        f"first at row {int(np.argmax(crossing))}")
    if "lower" in header and "upper" in header:
        inverted = data[:, header.index("lower")] > data[:, header.index("upper")]
        if inverted.any():
            problems.append(f"{int(inverted.sum())} rows with lower > upper")
    else:
        problems.append("predictions.csv lacks calibrated lower/upper columns")
    return problems


def _eval_row(path):
    header, rows = _read_table(path)
    if len(rows) != 1 or len(rows[0]) != len(header):
        raise ValueError("eval.csv must hold exactly one result row")
    return dict(zip(header, rows[0]))


def check_eval_coverage(path, alpha, n_cal, n_test, n_se=5.0):
    """Calibrated coverage within n_se binomial standard errors of the
    finite-sample conformal band."""
    try:
        row = _eval_row(path)
        coverage, width = float(row["coverage"]), float(row["mean_width"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"eval.csv unreadable: {exc}"]
    lo, hi = _coverage_band(alpha, n_cal)
    se = math.sqrt(alpha * (1.0 - alpha) / n_test)
    problems = []
    if not (lo - n_se * se <= coverage <= hi + n_se * se):
        problems.append(f"coverage {coverage} outside [{lo}, {hi}] "
                        f"+- {n_se} x se {se:.4g}")
    if not (math.isfinite(width) and width > 0):
        problems.append(f"mean width {width} is not finite and positive")
    return problems


def check_nw_eval(path):
    """Kernel baseline: coverage in [0.8, 1], width finite and positive."""
    try:
        row = _eval_row(path)
        coverage, width = float(row["coverage"]), float(row["mean_width"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"eval.csv unreadable: {exc}"]
    problems = []
    if not (0.8 <= coverage <= 1.0):
        problems.append(f"kernel coverage {coverage} outside [0.8, 1]")
    if not (math.isfinite(width) and width > 0):
        problems.append(f"kernel mean width {width} is not finite and positive")
    return problems


def check_coverage_bench(path, alpha, n_cal, n_se=4.0):
    """qnn, cqr and nw rows present; CQR mean coverage within n_se of its
    reported standard errors of the finite-sample band."""
    try:
        header, rows = _read_table(path)
        table = {r[0]: dict(zip(header, r)) for r in rows if r}
        missing = [m for m in ("qnn", "cqr", "nw") if m not in table]
        if missing:
            return [f"coverage_bench.csv lacks rows {missing}"]
        coverage = float(table["cqr"]["coverage"])
        se = float(table["cqr"]["coverage_se"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"coverage_bench.csv unreadable: {exc}"]
    lo, hi = _coverage_band(alpha, n_cal)
    if not (lo - n_se * se <= coverage <= hi + n_se * se):
        return [f"CQR coverage {coverage} outside [{lo}, {hi}] +- {n_se} x se {se}"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    """One CLI call: its argv, the files it writes (compared byte for byte
    across repetitions) and the check on them."""
    command: str
    argv: tuple
    outputs: tuple
    check: object = None  # callable(out_dir) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object      # callable(work_dir, seed) -> None, writes the inputs
    steps: object        # callable(work_dir, seed) -> list of Step
    units_per_rep: int   # rep_s is one repetition's command time over this


def _prepare_pipeline(work, seed):
    for stream, name in enumerate(("train", "cal", "test")):
        write_csv(os.path.join(work, f"{name}.csv"),
                  *make_rows(seed, stream, PIPELINE_ROWS))
    write_config(os.path.join(work, "bench.ini"),
                 {"train": {"epochs": PIPELINE_EPOCHS}})


def _pipeline_steps(work, seed):
    out = os.path.join(work, "out")
    model = os.path.join(out, "model.qnet")
    cal = os.path.join(out, "calibration.txt")
    test = os.path.join(work, "test.csv")
    common = ("--target", TARGET, "--out", out)
    return [
        Step("train", ("train", "--data", os.path.join(work, "train.csv"),
                       "--config", os.path.join(work, "bench.ini"), *common),
             ("model.qnet",)),
        Step("calibrate", ("calibrate", "--model", model,
                           "--data", os.path.join(work, "cal.csv"), *common),
             ("calibration.txt",)),
        Step("predict", ("predict", "--model", model, "--data", test,
                         "--calibration", cal, *common),
             ("predictions.csv",),
             lambda d: check_predictions(os.path.join(d, "predictions.csv"),
                                         PIPELINE_ROWS)),
        Step("eval", ("eval", "--method", "qnn", "--model", model, "--data", test,
                      "--calibration", cal, *common),
             ("eval.csv",),
             lambda d: check_eval_coverage(os.path.join(d, "eval.csv"), ALPHA,
                                           PIPELINE_ROWS, PIPELINE_ROWS)),
    ]


def _prepare_coverage(work, seed):
    write_config(os.path.join(work, "bench.ini"), {"demo": COVERAGE})


def _coverage_steps(work, seed):
    return [
        Step("demo", ("demo", "coverage", "--config", os.path.join(work, "bench.ini"),
                      "--seed", str(seed), "--out", os.path.join(work, "out")),
             ("coverage_bench.csv",),
             lambda d: check_coverage_bench(os.path.join(d, "coverage_bench.csv"),
                                            ALPHA, COVERAGE["n_cal"])),
    ]


def _prepare_nw(work, seed):
    for stream, name in enumerate(("train", "test")):
        write_csv(os.path.join(work, f"{name}.csv"), *make_rows(seed, stream, NW_ROWS))


def _nw_steps(work, seed):
    return [
        Step("eval", ("eval", "--method", "kernel",
                      "--train-data", os.path.join(work, "train.csv"),
                      "--data", os.path.join(work, "test.csv"),
                      "--target", TARGET, "--out", os.path.join(work, "out")),
             ("eval.csv",),
             lambda d: check_nw_eval(os.path.join(d, "eval.csv"))),
    ]


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("pipeline-20k", _prepare_pipeline, _pipeline_steps, 1),
    Workload("cqr-coverage", _prepare_coverage, _coverage_steps, COVERAGE["replications"]),
    Workload("nw-eval-20k", _prepare_nw, _nw_steps, 1),
)}

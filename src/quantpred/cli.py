"""Command-line surface: csv ingestion, the train/calibrate/predict/eval
pipeline, and the demo experiment runners. Results go to files under
--out; diagnostics go to stderr; exit status is nonzero exactly when a
structured error was emitted."""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import json
import math
import os
import sys

import numpy as np

from . import analytic, conformal, experiments, kernel, qnn
from .experiments import fmt, write_csv
from .numerics import DomainError


class CLIError(Exception):
    """A structured, user-facing error."""


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

# rows per bulk float conversion in ingest_features, and per block of
# predictions.csv rows converted to Python floats
_CHUNK_ROWS = 1024


def ingest_features(path) -> tuple:
    """Parse a headed numeric csv into (rows as an array, header names)."""
    if not os.path.exists(path):
        raise CLIError(f"file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CLIError(f"{path}: empty file")
            if not header or any(not h.strip() for h in header):
                raise CLIError(f"{path}: malformed header row")
            header = tuple(h.strip() for h in header)
            if dup := next((h for i, h in enumerate(header) if h in header[:i]), None):
                raise CLIError(f"{path}: duplicate column name {dup!r} in header")
            chunks, line = [], 2  # header is line 1
            while rows := list(itertools.islice(reader, _CHUNK_ROWS)):
                chunks.append(_parse_rows(path, header, rows, line))
                line += len(rows)
        except UnicodeDecodeError:
            raise CLIError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:
            raise CLIError(f"{path}:{reader.line_num}: {exc}") from None
    if not chunks:
        raise CLIError(f"{path}: no data rows")
    return np.concatenate(chunks), header


def _parse_rows(path, header, rows, line):
    """rows, the first on the given line, as one float array; a ragged row,
    a cell float() rejects and a non-finite value are errors naming the
    line and column. One bulk conversion serves rows without such a cell."""
    try:
        data = np.array(rows, dtype=float)
        if data.shape == (len(rows), len(header)) and np.isfinite(data).all():
            return data
    except ValueError:
        pass
    data = np.empty((len(rows), len(header)))
    for r, row in enumerate(rows, start=line):
        if len(row) != len(header):
            raise CLIError(f"{path}:{r}: expected {len(header)} cells, got {len(row)}")
        for c, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise CLIError(
                    f"{path}:{r}: column {header[c]!r}: non-numeric cell {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise CLIError(
                    f"{path}:{r}: column {header[c]!r}: non-finite value {cell!r}"
                )
            data[r - line, c] = v
    return data


def ingest_csv(path, target_column) -> qnn.Dataset:
    """ingest_features as a Dataset, with the target column taken out."""
    data, header = ingest_features(path)
    if target_column not in header:
        raise CLIError(f"{path}: no column named {target_column!r}; "
                       f"available: {list(header)}")
    keep = [i for i, h in enumerate(header) if h != target_column]
    return qnn.Dataset(data[:, keep], data[:, header.index(target_column)])


def _feature_names(path, target_column):
    """The header of the csv at path, in order, without the target column."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [h.strip() for h in next(csv.reader(fh)) if h.strip() != target_column]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_CONFIG_DEFAULTS = {
    "train": {
        "taus": "0.05,0.25,0.5,0.75,0.95",
        "hidden": "64,64",
        "activation": "relu",
        "monotone": "increments",
        "penalty_weight": "1.0",
        "epochs": "100",
        "learning_rate": "0.01",
        "batch_size": "64",
        "huber_kappa": "0.0",
        "seed": "0",
    },
    "calibrate": {"alpha": "0.1"},
    "predict": {"alpha": "0.1", "taus": ""},
    "eval": {"alpha": "0.1", "method": "qnn", "bandwidth": "0.3"},
    "demo": {
        "seed": "4",
        "n": "100",
        "replications": "200",
        "efron_n": "1001",
        "efron_replications": "10000",
        "sweep_replications": "20000",
        "oracle_replications": "50000",
        "n_train": "1000",
        "n_cal": "500",
        "n_test": "1000",
        "alpha": "0.1",
        "dgp": "heteroscedastic",
        "epochs": "60",
    },
}


def _parses(kind, text):
    try:
        return math.isfinite(kind(text))
    except ValueError:
        return False


def load_config(path=None):
    """Defaults merged with an INI-style config file; unknown keys, file
    syntax errors and anything but a finite number where the default is a
    number are rejected."""
    cfg = {section: dict(values) for section, values in _CONFIG_DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    if not os.path.exists(path):
        raise CLIError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        items = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())  # configparser spans lines
        raise CLIError(f"{path}: malformed config file: {detail}") from None
    for section, pairs in items.items():
        if section not in cfg:
            raise CLIError(f"{path}: unknown config section [{section}]")
        for key, value in pairs:
            if key not in cfg[section]:
                raise CLIError(f"{path}: unknown key {key!r} in [{section}]")
            for kind, noun in ((int, "an integer"), (float, "a finite number")):
                if _parses(kind, cfg[section][key]) and not _parses(kind, value):
                    raise CLIError(
                        f"{path}: [{section}] {key} = {value!r} is not {noun}")
            cfg[section][key] = value
    return cfg


def _settings(args):
    """The command's config section: the defaults, then --config, then each
    flag of the same name given with a non-empty value."""
    cfg = load_config(args.config)[args.command]
    for key in cfg:
        flag = getattr(args, key, None)
        if flag not in (None, ""):
            cfg[key] = str(flag)
    return cfg


def _parse_list(text, kind, noun):
    """The comma-separated numbers of the given kind in text."""
    try:
        return [kind(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise CLIError(f"malformed {noun} list {text!r}") from None


def _parse_taus(text):
    levels = _parse_list(text, float, "quantile")
    if not levels:
        raise CLIError("empty quantile list")
    return qnn.QuantileGrid(sorted(levels))


# ---------------------------------------------------------------------------
# Commands: each reads its resolved config section and writes its outputs
# ---------------------------------------------------------------------------

def _load_calibration(path, alpha):
    """The calibration record at path, which must be for this alpha."""
    cal = conformal.ConformalCalibration.load(path)
    if cal.alpha != alpha:
        raise CLIError(f"{path}: calibrated at alpha={cal.alpha!r}, "
                       f"but alpha={alpha!r} was requested")
    return cal


def cmd_train(args, cfg):
    data = ingest_csv(args.data, args.target)
    grid = _parse_taus(cfg["taus"])
    hidden = _parse_list(cfg["hidden"], int, "hidden-layer")
    net = qnn.QuantileNetwork(
        [data.d, *hidden, len(grid)], grid=grid,
        activation=cfg["activation"], monotone=cfg["monotone"],
        penalty_weight=float(cfg["penalty_weight"]), seed=int(cfg["seed"]),
    )
    tc = qnn.TrainingConfig(
        learning_rate=float(cfg["learning_rate"]),
        batch_size=int(cfg["batch_size"]),
        epochs=int(cfg["epochs"]),
        huber_kappa=float(cfg["huber_kappa"]),
        seed=int(cfg["seed"]),
    )
    net, trace = qnn.train(net, data, grid, tc)

    os.makedirs(args.out, exist_ok=True)
    qnn.save(net, os.path.join(args.out, "model.qnet"))
    preds = net.forward_batch(data.features)
    losses = [np.mean(qnn.pinball_loss(data.targets - preds[:, k], tau))
              for k, tau in enumerate(grid.levels)]
    write_csv(os.path.join(args.out, "train_report.csv"),
              ["tau", "final_pinball_loss"], zip(grid.levels, losses))
    write_csv(os.path.join(args.out, "loss_trace.csv"), ["epoch", "loss"],
              enumerate(trace))


def cmd_calibrate(args, cfg):
    alpha = float(cfg["alpha"])
    net = qnn.load(args.model)
    data = ingest_csv(args.data, args.target)
    lo, hi = qnn.predict_intervals(net, data.features, alpha)
    cal = conformal.calibrate(conformal.scores(data.targets, lo, hi), alpha)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "calibration.txt"), "w") as fh:
        fh.write(cal.to_record())


def cmd_predict(args, cfg):
    alpha = float(cfg["alpha"])
    net = qnn.load(args.model)
    cal = _load_calibration(args.calibration, alpha) if args.calibration else None
    X, header = ingest_features(args.data)
    if args.target and args.target in header:
        X = X[:, [i for i, h in enumerate(header) if h != args.target]]

    levels = (_parse_taus(cfg["taus"]).levels if cfg["taus"]
              else (net.grid.levels if net.grid is not None
                    else np.array([alpha / 2, 0.5, 1 - alpha / 2])))
    # one network pass gives the quantile columns and the interval's two
    q = net.quantiles_at(X, levels, None if cal is None else alpha)
    names = ["row"] + [f"q{fmt(t)}" for t in levels]
    if cal is not None:
        q[:, -2], q[:, -1] = conformal.conformalize(q[:, -2], q[:, -1], cal.qhat)
        names += ["lower", "upper"]

    os.makedirs(args.out, exist_ok=True)
    # Python floats for one block of rows at a time, not for the whole table
    rows = itertools.chain.from_iterable(
        q[start:start + _CHUNK_ROWS].tolist() for start in range(0, len(q), _CHUNK_ROWS))
    write_csv(os.path.join(args.out, "predictions.csv"), names,
              ([i, *row] for i, row in enumerate(rows)))


def cmd_eval(args, cfg):
    alpha = float(cfg["alpha"])
    data = ingest_csv(args.data, args.target)

    if cfg["method"] == "qnn":
        if not args.model:
            raise CLIError("eval with method qnn requires --model")
        net = qnn.load(args.model)
        cal = _load_calibration(args.calibration, alpha) if args.calibration else None
        lo, hi = qnn.predict_intervals(net, data.features, alpha)
        if cal is not None:
            lo, hi = conformal.conformalize(lo, hi, cal.qhat)
    elif cfg["method"] == "kernel":
        if not args.train_data:
            raise CLIError("eval with method kernel requires --train-data")
        train = ingest_csv(args.train_data, args.target)
        if train.n < 2:
            raise CLIError(f"{args.train_data}: eval with method kernel needs at "
                           "least 2 rows, to fit and to calibrate")
        fit, test = (_feature_names(p, args.target) for p in (args.train_data, args.data))
        if fit != test:  # NW pairs the columns by position
            raise CLIError(f"{args.data}: feature columns {test} differ from "
                           f"{args.train_data}'s {fit}")
        # even rows fit the estimator, odd rows calibrate its half-width
        X, y = train.features, train.targets
        lo, hi = kernel.nw_intervals(
            qnn.Dataset(X[0::2], y[0::2]), X[1::2], y[1::2], data.features,
            kernel.KernelConfig(float(cfg["bandwidth"])), alpha)
    else:
        raise CLIError(f"unknown method {cfg['method']!r}")

    coverage, mean_width = conformal.coverage(lo, hi, data.targets)
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "eval.csv"),
              ["method", "alpha", "coverage", "mean_width"],
              [(cfg["method"], alpha, coverage, mean_width)])


def _at_least(cfg, key, minimum):
    """The integer demo setting key, checked before any demo work starts."""
    value = int(cfg[key])
    if value < minimum:
        raise CLIError(f"[demo] {key} must be at least {minimum}, got {value}")
    return value


def cmd_demo(args, cfg):
    os.makedirs(args.out, exist_ok=True)
    if args.which == "normal-normal":
        experiments.run_normal_normal_demo(n=_at_least(cfg, "n", 1),
                                           seed=int(cfg["seed"]), out_dir=args.out)
    elif args.which == "efron":
        # the standard errors take sample variances, which need two replications
        experiments.write_efron_report(
            args.out,
            experiments.EfronConfig(n=_at_least(cfg, "efron_n", 2),
                                    m_replications=_at_least(cfg, "efron_replications", 2),
                                    seed=int(cfg["seed"])),
            m_replications=_at_least(cfg, "sweep_replications", 2),
            oracle_replications=_at_least(cfg, "oracle_replications", 2),
        )
    else:  # coverage; argparse admits no other demo
        experiments.write_coverage_report(
            args.out,
            experiments.CoverageBenchConfig(
                dgp=cfg["dgp"], n_train=int(cfg["n_train"]),
                n_cal=int(cfg["n_cal"]), n_test=int(cfg["n_test"]),
                alpha=float(cfg["alpha"]),
                replications=int(cfg["replications"]),
                seed=int(cfg["seed"]), epochs=int(cfg["epochs"]),
            ),
        )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="quantpred")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", required=True)

    sp = sub.add_parser("train", help="fit a quantile network")
    common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--taus", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--monotone", choices=["increments", "penalty"], default=None)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("calibrate", help="conformal calibration of a model")
    common(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--alpha", type=float, default=None)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("predict", help="quantile/interval predictions")
    common(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--target", default=None)
    sp.add_argument("--calibration", default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--taus", default=None)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("eval", help="coverage/width on labeled data")
    common(sp)
    sp.add_argument("--model", default=None)
    sp.add_argument("--train-data", default=None)
    sp.add_argument("--data", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--method", choices=["qnn", "kernel"], default=None)
    sp.add_argument("--calibration", default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("demo", help="run a bundled experiment")
    sp.add_argument("which", choices=["normal-normal", "efron", "coverage"])
    common(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_demo)

    return p


def _check_out(out):
    """Reject an --out that os.makedirs could not make a directory, with
    the text its error would have, before the command does any work."""
    top = out.rstrip(os.sep) or out
    path, below = top, None
    while path and not os.path.exists(path):
        path, below = os.path.dirname(path), path
    if path and not os.path.isdir(path):
        # os.makedirs names --out as given, a trailing separator included
        name = out if below in (None, top) else below
        raise CLIError(f"{name}: " + ("File exists" if below is None else "Not a directory"))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _settings(args)
        _check_out(args.out)
        # an overflow or invalid operation would put inf or NaN in the outputs
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            args.func(args, cfg)
        # the settings the run used, echoed once its outputs are written
        with open(os.path.join(args.out, f"{args.command}_meta.json"), "w") as fh:
            json.dump({args.command: cfg}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    except (FloatingPointError, OverflowError) as exc:
        message = (f"{exc.args[-1]}: input values or settings too large for "
                   "float arithmetic")
    except (CLIError, DomainError, qnn.TrainingError, analytic.NumericalError) as exc:
        message = exc
    except OSError as exc:  # say, a directory where a file should be, or the reverse
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

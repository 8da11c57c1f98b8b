"""Command-line surface: csv ingestion, the train/calibrate/predict/eval
pipeline, and the demo experiment runners. Results go to files under
--out; diagnostics go to stderr; exit status is nonzero exactly when a
structured error was emitted."""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys

import numpy as np

from . import analytic, conformal, experiments, kernel, qnn
from .numerics import DomainError


class CLIError(Exception):
    """A structured, user-facing error."""


def _fmt(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _read_csv(path):
    if not os.path.exists(path):
        raise CLIError(f"file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CLIError(f"{path}: empty file") from None
        rows = list(reader)
    if not header or any(not h.strip() for h in header):
        raise CLIError(f"{path}: malformed header row")
    return [h.strip() for h in header], rows


def _parse_rows(path, header, rows):
    data = np.empty((len(rows), len(header)))
    for r, row in enumerate(rows, start=2):  # header is line 1
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
            data[r - 2, c] = v
    return data


def ingest_csv(path, target_column) -> qnn.Dataset:
    """Parse a headed numeric csv into a Dataset, target column extracted."""
    header, rows = _read_csv(path)
    if target_column not in header:
        raise CLIError(f"{path}: no column named {target_column!r}; "
                       f"available: {header}")
    data = _parse_rows(path, header, rows)
    if data.shape[0] == 0:
        raise CLIError(f"{path}: no data rows")
    ti = header.index(target_column)
    mask = [i for i in range(len(header)) if i != ti]
    names = tuple(header[i] for i in mask)
    return qnn.Dataset(data[:, mask], data[:, ti], names)


def ingest_features(path) -> tuple:
    """Parse a headed numeric csv as feature rows only."""
    header, rows = _read_csv(path)
    data = _parse_rows(path, header, rows)
    if data.shape[0] == 0:
        raise CLIError(f"{path}: no data rows")
    return data, tuple(header)


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
    "calibrate": {"alpha": "0.1", "split": "0.5", "seed": "0"},
    "predict": {"alpha": "0.1", "taus": ""},
    "eval": {"alpha": "0.1", "method": "qnn", "bandwidth": "0.3", "seed": "0"},
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


def load_config(path=None):
    """Defaults merged with an INI-style config file; unknown keys rejected."""
    cfg = {section: dict(values) for section, values in _CONFIG_DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    if not os.path.exists(path):
        raise CLIError(f"config file not found: {path}")
    parser.read(path)
    for section in parser.sections():
        if section not in cfg:
            raise CLIError(f"{path}: unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in cfg[section]:
                raise CLIError(f"{path}: unknown key {key!r} in [{section}]")
            cfg[section][key] = value
    return cfg


def _parse_taus(text):
    try:
        levels = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise CLIError(f"malformed quantile list {text!r}") from None
    if not levels:
        raise CLIError("empty quantile list")
    return qnn.QuantileGrid(sorted(levels))


def _config_echo(section, values, out_dir, name):
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump({section: values}, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _load_calibration(path, alpha):
    """The calibration record at path, which must be for this alpha."""
    cal = conformal.ConformalCalibration.load(path)
    if cal.alpha != alpha:
        raise CLIError(f"{path}: calibrated at alpha={cal.alpha!r}, "
                       f"but alpha={alpha!r} was requested")
    return cal


def cmd_train(args):
    cfg = load_config(args.config)["train"]
    if args.taus:
        cfg["taus"] = args.taus
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    if args.monotone:
        cfg["monotone"] = args.monotone
    data = ingest_csv(args.data, args.target)
    grid = _parse_taus(cfg["taus"])
    hidden = [int(h) for h in cfg["hidden"].split(",") if h.strip()]
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
    model_path = os.path.join(args.out, "model.qnet")
    qnn.save(net, model_path)
    preds = net.forward_batch(data.features)
    with open(os.path.join(args.out, "train_report.csv"), "w") as fh:
        fh.write("tau,final_pinball_loss\n")
        for k, tau in enumerate(grid.levels):
            lk = float(np.mean(qnn.pinball_loss(data.targets - preds[:, k], tau)))
            fh.write(f"{_fmt(tau)},{_fmt(lk)}\n")
    _config_echo("train", cfg, args.out, "train_meta.json")
    with open(os.path.join(args.out, "loss_trace.csv"), "w") as fh:
        fh.write("epoch,loss\n")
        for e, loss in enumerate(trace):
            fh.write(f"{e},{_fmt(loss)}\n")
    return 0


def cmd_calibrate(args):
    cfg = load_config(args.config)["calibrate"]
    if args.alpha is not None:
        cfg["alpha"] = str(args.alpha)
    alpha = float(cfg["alpha"])
    net = qnn.load(args.model)
    data = ingest_csv(args.data, args.target)
    lo, hi = qnn.predict_intervals(net, data.features, alpha)
    cal = conformal.calibrate(conformal.scores(data.targets, lo, hi), alpha)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "calibration.txt"), "w") as fh:
        fh.write(cal.to_record())
    _config_echo("calibrate", cfg, args.out, "calibrate_meta.json")
    return 0


def cmd_predict(args):
    cfg = load_config(args.config)["predict"]
    if args.alpha is not None:
        cfg["alpha"] = str(args.alpha)
    if args.taus:
        cfg["taus"] = args.taus
    alpha = float(cfg["alpha"])
    net = qnn.load(args.model)
    cal = _load_calibration(args.calibration, alpha) if args.calibration else None
    X, header = ingest_features(args.data)
    if args.target and args.target in header:
        keep = [i for i, h in enumerate(header) if h != args.target]
        X = X[:, keep]
    if X.shape[1] != net.layer_dims[0]:
        raise CLIError(f"model expects {net.layer_dims[0]} features, got {X.shape[1]}")

    levels = (_parse_taus(cfg["taus"]).levels if cfg["taus"]
              else (net.grid.levels if net.grid is not None
                    else np.array([alpha / 2, 0.5, 1 - alpha / 2])))
    try:
        quants = net.quantiles_at(X, levels)
    except DomainError as exc:
        raise CLIError(str(exc)) from None

    cols = [quants]
    if cal is not None:
        lo, hi = qnn.predict_intervals(net, X, alpha)
        cols += conformal.conformalize(lo, hi, cal.qhat)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "predictions.csv"), "w") as fh:
        header = [f"q{_fmt(t)}" for t in levels]
        if cal is not None:
            header += ["lower", "upper"]
        fh.write(",".join(["row"] + header) + "\n")
        for i, row in enumerate(np.column_stack(cols).tolist()):
            fh.write(f"{i}," + ",".join(map(repr, row)) + "\n")
    _config_echo("predict", cfg, args.out, "predict_meta.json")
    return 0


def cmd_eval(args):
    cfg = load_config(args.config)["eval"]
    if args.alpha is not None:
        cfg["alpha"] = str(args.alpha)
    if args.method:
        cfg["method"] = args.method
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
        kc = kernel.KernelConfig(float(cfg["bandwidth"]))
        preds = np.array([kernel.nw_estimate(train, x, kc) for x in data.features])
        # fixed width from the alpha-quantile of absolute training residuals
        tr_pred = [kernel.nw_estimate(train, x, kc) for x in train.features]
        resid = np.abs(train.targets - np.asarray(tr_pred))
        half = conformal.conformal_quantile(resid, alpha, resid.size)
        lo, hi = preds - half, preds + half
    else:
        raise CLIError(f"unknown method {cfg['method']!r}")

    coverage, mean_width = conformal.coverage(lo, hi, data.targets)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "eval.csv"), "w") as fh:
        fh.write("method,alpha,coverage,mean_width\n")
        fh.write(f"{cfg['method']},{_fmt(alpha)},{_fmt(coverage)},{_fmt(mean_width)}\n")
    _config_echo("eval", cfg, args.out, "eval_meta.json")
    return 0


def cmd_demo(args):
    cfg = load_config(args.config)["demo"]
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    os.makedirs(args.out, exist_ok=True)
    if args.which == "normal-normal":
        experiments.run_normal_normal_demo(
            analytic.NormalNormalModel(0.0, 5.0, 10.0),
            true_theta=3.0, n=int(cfg["n"]), seed=int(cfg["seed"]),
            out_dir=args.out,
        )
    elif args.which == "efron":
        experiments.write_efron_report(
            args.out,
            experiments.EfronConfig(n=int(cfg["efron_n"]),
                                    m_replications=int(cfg["efron_replications"]),
                                    seed=int(cfg["seed"])),
            m_replications=int(cfg["sweep_replications"]),
            oracle_replications=int(cfg["oracle_replications"]),
        )
    elif args.which == "coverage":
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
    else:
        raise CLIError(f"unknown demo {args.which!r}")
    _config_echo("demo", cfg, args.out, "demo_meta.json")
    return 0


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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CLIError, DomainError, qnn.TrainingError, analytic.NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
import warnings

import numpy as np

from . import conformal, experiments, kernel, qnn
from .experiments import write_csv
from .numerics import DomainError, check_alpha

# rows per np.loadtxt call and per csv.reader block in ingest_features, and
# per block of predictions.csv rows converted to Python floats
_CHUNK_ROWS = 1024


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def ingest_features(path) -> tuple:
    """Parse a headed numeric csv into (rows as an array, header names) in one
    pass. numpy's C parser converts the rows in runs of _CHUNK_ROWS lines; from
    the first run numpy does not take whole, csv.reader reads the rest, so the
    values are float()'s and an error: line names the line and column."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader, before = csv.reader(fh), 0  # before: the lines read ahead of reader
        try:
            header = next(reader, None)
            if header is None:
                raise DomainError(f"{path}: empty file")
            if not header or any(not h.strip() for h in header):
                raise DomainError(f"{path}: malformed header row")
            header = tuple(h.strip() for h in header)
            if dup := next((h for i, h in enumerate(header) if h in header[:i]), None):
                raise DomainError(f"{path}: duplicate column name {dup!r} in header")
            chunks, before, rest = [], reader.line_num, fh  # rest: what follows lines
            while rest is fh:
                lines = []
                try:  # keep the lines read before a byte that is not UTF-8
                    for text in itertools.islice(fh, _CHUNK_ROWS):
                        lines.append(text)
                except UnicodeDecodeError as exc:  # csv.reader reads lines, then meets exc
                    rest = map((_ for _ in ()).throw, [exc])  # raises exc when asked for an item
                if not lines or rest is not fh or (data := _loadtxt(lines, len(header))) is None:
                    break
                chunks.append(data)
                before += len(lines)
            line = 2 + sum(map(len, chunks))  # the header is row 1, and a run's line a row
            reader = csv.reader(itertools.chain(lines, rest))
            while rows := list(itertools.islice(reader, _CHUNK_ROWS)):
                chunks.append(_parse_rows(path, header, rows, line))
                line += len(rows)
        except UnicodeDecodeError:
            raise DomainError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:
            raise DomainError(f"{path}:{before + reader.line_num}: {exc}") from None
    if not chunks:
        raise DomainError(f"{path}: no data rows")
    return np.concatenate(chunks), header


def _loadtxt(lines, width):
    """lines as an array by np.loadtxt, which parses a number with float()'s
    function; None unless each line is width finite numbers csv.reader and
    float() read the same."""
    # csv.reader rejects a cell past its limit, and float() the characters
    # \x1c-\x1f, which numpy strips as space
    text = "".join(lines)
    if max(map(len, lines)) > csv.field_size_limit() or any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns of a run of blank lines
            data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except Exception:  # anything loadtxt rejects
        return None
    return data if data.shape == (len(lines), width) and np.isfinite(data).all() else None


def _parse_rows(path, header, rows, line):
    """rows, the first on the given line, as a float array of float() of each cell; a ragged
    row, a cell float() rejects and a non-finite value are errors naming the line and column."""
    data = np.empty((len(rows), len(header)))
    for r, row in enumerate(rows, start=line):
        if len(row) != len(header):
            raise DomainError(f"{path}:{r}: expected {len(header)} cells, got {len(row)}")
        for c, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise DomainError(
                    f"{path}:{r}: column {header[c]!r}: non-numeric cell {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise DomainError(
                    f"{path}:{r}: column {header[c]!r}: non-finite value {cell!r}"
                )
            data[r - line, c] = v
    return data


def ingest_csv(path, target_column) -> qnn.Dataset:
    """ingest_features as a Dataset, with the target column taken out."""
    data, header = ingest_features(path)
    if target_column not in header:
        raise DomainError(f"{path}: no column named {target_column!r}; "
                       f"available: {list(header)}")
    X, names = _split(data, header, target_column)
    return qnn.Dataset(X, data[:, header.index(target_column)], names)


def _split(data, header, target_column):
    """The feature columns of data, every column but the target, and their names."""
    keep = [i for i, h in enumerate(header) if h != target_column]
    return data[:, keep], tuple(header[i] for i in keep)


def _check_features(path, names, source, expected):
    """Reject the data file at path unless its feature columns are source's, in order."""
    if names != expected:  # the network and NW pair the columns by position
        raise DomainError(f"{path}: feature columns {list(names)} differ from "
                       f"{source}'s {list(expected)}")


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
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
        items = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())  # configparser spans lines
        raise DomainError(f"{path}: malformed config file: {detail}") from None
    for section, pairs in items.items():
        if section not in cfg:
            raise DomainError(f"{path}: unknown config section [{section}]")
        for key, value in pairs:
            if key not in cfg[section]:
                raise DomainError(f"{path}: unknown key {key!r} in [{section}]")
            for kind, noun in ((int, "an integer"), (float, "a finite number")):
                if _parses(kind, cfg[section][key]) and not _parses(kind, value):
                    raise DomainError(
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
        raise DomainError(f"malformed {noun} list {text!r}") from None


def _parse_taus(text):
    return qnn.QuantileGrid(sorted(_parse_list(text, float, "quantile")))


# ---------------------------------------------------------------------------
# Commands: each reads its resolved config section and writes its outputs
# ---------------------------------------------------------------------------

def _load_model(path):
    """The model at path, which must name the feature columns it was trained on."""
    net = qnn.load(path)
    if not net.features:  # trained through the library on a Dataset without names
        raise DomainError(f"{path}: the model names no feature columns; train it with "
                          "the train command, or on a qnn.Dataset given names")
    return net


def _load_calibration(path, alpha):
    """The calibration record at path, which must be for this alpha."""
    cal = conformal.ConformalCalibration.load(path)
    if cal.alpha != alpha:
        raise DomainError(f"{path}: calibrated at alpha={cal.alpha!r}, "
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
    net = _load_model(args.model)
    data = ingest_csv(args.data, args.target)
    _check_features(args.data, data.names, args.model, net.features)
    lo, hi = net.forward_batch(data.features, [], alpha).T
    cal = conformal.calibrate(conformal.scores(data.targets, lo, hi), alpha)
    with open(os.path.join(args.out, "calibration.txt"), "w") as fh:
        fh.write(cal.to_record())


def cmd_predict(args, cfg):
    alpha = float(cfg["alpha"])
    net = _load_model(args.model)
    cal = _load_calibration(args.calibration, alpha) if args.calibration else None
    if cal is None:  # forward_batch checks it on the interval path
        check_alpha(alpha)
    X, names = _split(*ingest_features(args.data), args.target)
    _check_features(args.data, names, args.model, net.features)

    levels = (_parse_taus(cfg["taus"]).levels if cfg["taus"]
              else (net.grid.levels if net.grid is not None
                    else np.array([alpha / 2, 0.5, 1 - alpha / 2])))
    # one network pass gives the quantile columns and the interval's two
    q = net.forward_batch(X, levels, None if cal is None else alpha)
    names = ["row"] + [f"q{t}" for t in levels]
    if cal is not None:
        q[:, -2], q[:, -1] = conformal.conformalize(q[:, -2], q[:, -1], cal.qhat)
        names += ["lower", "upper"]

    # Python floats for one block of rows at a time, not for the whole table
    rows = itertools.chain.from_iterable(
        q[start:start + _CHUNK_ROWS].tolist() for start in range(0, len(q), _CHUNK_ROWS))
    write_csv(os.path.join(args.out, "predictions.csv"), names,
              ([i, *row] for i, row in enumerate(rows)))


def cmd_eval(args, cfg):
    alpha, method = float(cfg["alpha"]), cfg["method"]
    if method not in ("qnn", "kernel"):
        raise DomainError(f"unknown method {method!r}")
    # the method's own flag, and no other method's, before any file is read
    needs, takes_no = (("model", ["train_data"]) if method == "qnn"
                       else ("train_data", ["model", "calibration"]))
    if not getattr(args, needs):
        raise DomainError(f"eval with method {method} requires --{needs.replace('_', '-')}")
    for name in takes_no:
        if getattr(args, name):
            raise DomainError(f"eval with method {method} takes no --{name.replace('_', '-')}")
    data = ingest_csv(args.data, args.target)

    if method == "qnn":
        net = _load_model(args.model)
        cal = _load_calibration(args.calibration, alpha) if args.calibration else None
        _check_features(args.data, data.names, args.model, net.features)
        lo, hi = net.forward_batch(data.features, [], alpha).T
        if cal is not None:
            lo, hi = conformal.conformalize(lo, hi, cal.qhat)
    else:
        train = ingest_csv(args.train_data, args.target)
        if train.n < 2:
            raise DomainError(f"{args.train_data}: eval with method kernel needs at "
                           "least 2 rows, to fit and to calibrate")
        _check_features(args.data, data.names, args.train_data, train.names)
        # even rows fit the estimator, odd rows calibrate its half-width
        X, y = train.features, train.targets
        lo, hi = kernel.nw_intervals(
            qnn.Dataset(X[0::2], y[0::2]), X[1::2], y[1::2], data.features,
            kernel.KernelConfig(float(cfg["bandwidth"])), alpha)

    coverage, mean_width = conformal.coverage(lo, hi, data.targets)
    write_csv(os.path.join(args.out, "eval.csv"),
              ["method", "alpha", "coverage", "mean_width"],
              [(method, alpha, coverage, mean_width)])


def _at_least(cfg, key, minimum):
    """The integer demo setting key, checked before any demo work starts."""
    value = int(cfg[key])
    if value < minimum:
        raise DomainError(f"[demo] {key} must be at least {minimum}, got {value}")
    return value


def cmd_demo(args, cfg):
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


def _makedirs(path, made):
    """os.makedirs(path, exist_ok=True), noting in made each directory it creates."""
    head, tail = os.path.split(path)
    if not tail:
        head, tail = os.path.split(head)
    if head and tail and not os.path.exists(head):
        _makedirs(head, made)
        if tail == os.curdir:  # head/. exists once head does
            return
    try:
        os.mkdir(path)
    except OSError:
        if not os.path.isdir(path):  # one that exists, such as --out or new/..
            raise
    else:
        made.append(path)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    made = []  # the directories of --out this run makes
    try:
        cfg = _settings(args)
        _makedirs(args.out, made)  # before any work: its error comes first
        # an overflow or invalid operation would put inf or NaN in the outputs
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            args.func(args, cfg)
        # the settings the run used, echoed once its outputs are written
        with open(os.path.join(args.out, f"{args.command}_meta.json"), "w") as fh:
            json.dump({args.command: cfg}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        made.clear()  # a run that succeeds keeps them
        return 0
    except (FloatingPointError, OverflowError) as exc:
        message = (f"{exc.args[-1]}: input values or settings too large for "
                   "float arithmetic")
    except (DomainError, qnn.TrainingError) as exc:
        message = exc
    except MemoryError as exc:  # numpy's text names the size it could not allocate
        message = f"out of memory: {exc}"
    except OSError as exc:  # the one report of a path that cannot be opened
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
    finally:  # on any failure, KeyboardInterrupt too; a directory written to stays
        for path in reversed(made):
            try:
                os.rmdir(path)
            except OSError:
                break
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

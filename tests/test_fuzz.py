"""Fuzzed CSV cells, config values, demo settings and --alpha levels
through cli.main: a run ends with status 0, or with status 1 and a single
error: line on stderr, never with an exception."""

import contextlib
import csv
import io
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantpred.cli import main

FUZZ = settings(max_examples=40, deadline=None, derandomize=True)

# finite numbers, huge and subnormal ones included
NUMBERS = st.one_of(
    st.floats(-10, 10).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["1e308", "-1e308", "5e-324", "1e-400", " 2 "]),
)
# and text, blanks, nan/inf and overflowing exponents
CELLS = st.one_of(
    NUMBERS,
    st.sampled_from(["", " ", "abc", "nan", "-inf", "1e400", "0x10", "1_0",
                     "--1", "1,5"]),
)
# header x,y; a row of other than two cells is ragged
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
ROWS = st.one_of(st.lists(PAIRS, min_size=1, max_size=5), st.lists(
    st.one_of(PAIRS, st.lists(CELLS, min_size=1, max_size=3)), max_size=5))
# integers are kept small so that a fuzzed epoch or layer count stays fast
SMALL_INTS = st.one_of(st.integers(-1, 3).map(str), CELLS)
TRAIN_KEYS = st.fixed_dictionaries({}, optional={
    "epochs": SMALL_INTS, "hidden": SMALL_INTS, "batch_size": SMALL_INTS,
    "seed": st.one_of(st.integers(-1, 2 ** 64).map(str), CELLS),
    "learning_rate": CELLS, "huber_kappa": CELLS, "penalty_weight": CELLS,
    "taus": st.one_of(CELLS, st.lists(CELLS, max_size=3).map(",".join)),
    "activation": st.sampled_from(["relu", "tanh", "softmax", ""]),
    "monotone": st.sampled_from(["increments", "penalty", "none"]),
})
# the size and replication counts each demo reads, with their minimums;
# drawn small so that an efron run is fast
DEMO_MINIMUMS = {
    "normal-normal": {"n": 1},
    "efron": {"efron_n": 2, "efron_replications": 2, "sweep_replications": 2,
              "oracle_replications": 2},
}
DEMOS = st.one_of([
    st.tuples(st.just(which),
              st.fixed_dictionaries({key: st.integers(-1, 4) for key in minimums}))
    for which, minimums in DEMO_MINIMUMS.items()])
EFRON_AT_2 = dict.fromkeys(DEMO_MINIMUMS["efron"], 2)
# 0.1 and 0.5 put the interval levels on the grid of the model below
ALPHAS = st.one_of(st.floats(), st.sampled_from([0.1, 0.5]))


def csv_file(directory, name, rows):
    path = os.path.join(directory, name)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["x", "y"], *rows])
    return path


def config_file(directory, section, values):
    path = os.path.join(directory, "c.ini")
    with open(path, "w") as fh:
        fh.write(f"[{section}]\n")
        fh.writelines(f"{key} = {value}\n" for key, value in values.items())
    return path


def run(argv):
    """cli.main(argv) with the stderr and warnings of a command-line run;
    checks the exit contract and returns the status and the stderr lines."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        status = main(argv)
    lines = err.getvalue().splitlines()
    assert status in (0, 1)
    if status == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    # the one warning a run may give is the kernel's underflow notice
    assert all("kernel weights underflowed" in str(w.message) for w in caught)
    return status, lines


def check_eval_csv(out):
    with open(os.path.join(out, "eval.csv")) as fh:
        _, row = fh.read().splitlines()
    coverage, width = (float(v) for v in row.split(",")[2:])
    assert 0.0 <= coverage <= 1.0 and math.isfinite(width) and width >= 0.0


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("fuzz"))
    data = csv_file(root, "d.csv", [[i / 10, (i % 7) / 3] for i in range(40)])
    conf = config_file(root, "train", {"epochs": 2, "hidden": 3})
    assert main(["train", "--data", data, "--target", "y", "--config", conf,
                 "--out", root]) == 0
    return os.path.join(root, "model.qnet")


@FUZZ
@given(rows=ROWS, values=TRAIN_KEYS)
@example(rows=[["1e308", "1e308"], ["-1e308", "2"]], values={})
@example(rows=[["1", "2"]], values={"learning_rate": "1e308"})
def test_train(rows, values):
    values.setdefault("epochs", "2")
    values.setdefault("hidden", "2")
    with tempfile.TemporaryDirectory() as d:
        run(["train", "--data", csv_file(d, "d.csv", rows), "--target", "y",
             "--config", config_file(d, "train", values),
             "--out", os.path.join(d, "out")])


@FUZZ
@given(rows=ROWS, alpha=ALPHAS)
@example(rows=[["0.5", "1"]], alpha=float("nan"))
def test_calibrate(model, rows, alpha):
    with tempfile.TemporaryDirectory() as d:
        run(["calibrate", "--model", model, "--data", csv_file(d, "d.csv", rows),
             "--target", "y", f"--alpha={alpha!r}", "--out", d])


@FUZZ
@given(rows=ROWS, alpha=ALPHAS)
@example(rows=[["0.5", "1"]], alpha=float("inf"))
def test_eval_qnn(model, rows, alpha):
    with tempfile.TemporaryDirectory() as d:
        if run(["eval", "--method", "qnn", "--model", model,
                "--data", csv_file(d, "d.csv", rows), "--target", "y",
                f"--alpha={alpha!r}", "--out", d])[0] == 0:
            check_eval_csv(d)


@FUZZ
@given(train=ROWS, test=ROWS, alpha=ALPHAS,
       bandwidth=st.one_of(CELLS, st.floats(0.01, 10).map(repr)))
@example(train=[["0", "1"], ["1", "2"]], test=[["0.5", "1"]],
         alpha=float("nan"), bandwidth="0.3")
@example(train=[["1e308", "1"], ["-1e308", "2"]], test=[["0", "1"]],
         alpha=0.1, bandwidth="0.3")
def test_eval_kernel(train, test, alpha, bandwidth):
    with tempfile.TemporaryDirectory() as d:
        if run(["eval", "--method", "kernel",
                "--train-data", csv_file(d, "train.csv", train),
                "--data", csv_file(d, "test.csv", test), "--target", "y",
                "--config", config_file(d, "eval", {"bandwidth": bandwidth}),
                f"--alpha={alpha!r}", "--out", d])[0] == 0:
            check_eval_csv(d)


@FUZZ
@given(demo=DEMOS)
@example(demo=("normal-normal", {"n": -1}))
@example(demo=("efron", EFRON_AT_2 | {"oracle_replications": 1}))
@example(demo=("efron", EFRON_AT_2 | {"efron_replications": 1}))
@example(demo=("efron", EFRON_AT_2 | {"sweep_replications": 1}))
def test_demo(demo):
    which, values = demo
    too_small = [key for key, low in DEMO_MINIMUMS[which].items() if values[key] < low]
    with tempfile.TemporaryDirectory() as d:
        status, lines = run(["demo", which, "--config", config_file(d, "demo", values),
                             "--out", d])
    # a run fails exactly when a setting is below its minimum, and says which
    assert status == (1 if too_small else 0), lines
    if too_small:
        assert any(f"[demo] {key} " in lines[0] for key in too_small), lines

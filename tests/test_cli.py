"""Tests for the command-line surface: csv ingestion with structured
errors, config parsing, the train/calibrate/predict/eval pipeline, and
demo reproducibility."""

import concurrent.futures
import csv
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quantpred
from quantpred import cli, conformal, experiments, kernel, qnn
from quantpred.cli import (
    ingest_csv,
    ingest_features,
    load_config,
    main,
)
from quantpred.numerics import DomainError, RandomSource

SRC = os.path.dirname(os.path.dirname(quantpred.__file__))


def _failed_replication(config, rep):
    """experiments._replication's result when training fails."""
    return None


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def make_data_csv(path, n, seed=0):
    """Heteroscedastic regression data as a headed csv."""
    rng = RandomSource(seed).stream("cli-test-data")
    x = rng.uniform(-2.0, 2.0, n)
    y = x + np.abs(x) * rng.standard_normal(n)
    rows = ["x,y"] + [f"{repr(float(a))},{repr(float(b))}"
                      for a, b in zip(x, y)]
    return write(path, "\n".join(rows) + "\n")


class TestIngestCsv:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,y\n1,2,3\n4,5,6\n")
        ds = ingest_csv(p, "y")
        assert ds.features.tolist() == [[1.0, 2.0], [4.0, 5.0]]
        assert ds.targets.tolist() == [3.0, 6.0]

    def test_target_in_middle(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,y,b\n1,2,3\n")
        ds = ingest_csv(p, "y")
        assert ds.features.tolist() == [[1.0, 3.0]]
        assert ds.targets.tolist() == [2.0]
        assert ds.names == ("a", "b")

    def test_missing_file(self, tmp_path):
        # cli.main reports an OSError by its filename
        missing = str(tmp_path / "nope.csv")
        with pytest.raises(FileNotFoundError) as info:
            ingest_csv(missing, "y")
        assert info.value.filename == missing

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "d.csv", "")
        with pytest.raises(DomainError, match="empty file"):
            ingest_csv(p, "y")

    def test_header_only(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n")
        with pytest.raises(DomainError, match="no data rows"):
            ingest_csv(p, "y")

    def test_missing_target_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(DomainError, match="no column named 'y'"):
            ingest_csv(p, "y")

    def test_blank_cell_names_row_and_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,2\n,4\n")
        with pytest.raises(DomainError, match=r"d\.csv:3: column 'x'"):
            ingest_csv(p, "y")

    @pytest.mark.parametrize("text", ['"x\nz",y\n1,2\nfoo,3\n', 'x,y\n"1\n",2\nfoo,3\n'],
                             ids=["two-line-header", "two-line-cell"])
    def test_error_names_the_physical_line(self, tmp_path, text):
        # the reader counts the lines, so a multi-line header or cell shifts
        # every later row's line; foo is on line 4
        p = write(tmp_path / "d.csv", text)
        with pytest.raises(DomainError, match=r"d\.csv:4: column '.*': non-numeric cell 'foo'"):
            ingest_csv(p, "y")

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,hello\n")
        with pytest.raises(DomainError, match="column 'y': non-numeric cell 'hello'"):
            ingest_csv(p, "y")

    def test_non_finite_cell(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,inf\n")
        with pytest.raises(DomainError, match="non-finite"):
            ingest_csv(p, "y")

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,2,3\n")
        with pytest.raises(DomainError, match="expected 2 cells, got 3"):
            ingest_csv(p, "y")

    def test_malformed_header(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,,y\n1,2,3\n")
        with pytest.raises(DomainError, match="malformed header"):
            ingest_csv(p, "y")

    def test_large_round_trip_bitwise(self, tmp_path):
        rng = RandomSource(3).stream("round-trip")
        vals = rng.standard_normal((20_000, 2)) * 1e3
        p = tmp_path / "big.csv"
        with open(p, "w") as fh:
            fh.write("x,y\n")
            for a, b in vals:
                fh.write(f"{repr(float(a))},{repr(float(b))}\n")
        ds = ingest_csv(str(p), "y")
        assert np.array_equal(ds.features[:, 0], vals[:, 0])
        assert np.array_equal(ds.targets, vals[:, 1])


class TestIngestFeatures:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "f.csv", "a,b\n1,2\n3,4\n")
        X, header = ingest_features(p)
        assert header == ("a", "b")
        assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def per_cell_ingest(path):
    """ingest_features as one loop of float() over every cell, the way it
    was before the bulk conversion: (array, header), or DomainError. An
    error names the line its row ends on, by csv.reader's count."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty file") from None
        try:
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise DomainError(f"{path}:{reader.line_num}: {exc}") from None
    if not header or any(not h.strip() for h in header):
        raise DomainError(f"{path}: malformed header row")
    header = tuple(h.strip() for h in header)
    if not rows:
        raise DomainError(f"{path}: no data rows")
    data = np.empty((len(rows), len(header)))
    for i, (r, row) in enumerate(rows):
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
            data[i, c] = v
    return data, header


def ingested(ingest, path):
    """What ingest makes of path: the error text, or the array's shape,
    dtype, bytes and the header."""
    try:
        data, header = ingest(path)
    except DomainError as exc:
        return str(exc)
    return data.shape, data.dtype, data.tobytes(), header


NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# cells float() reads in unusual ways or rejects, and any short text but NUL
CELL = st.one_of(
    NUMBER,
    st.sampled_from(["", " 2 ", "1_0", "1__0", "0x10", "١٢", "١.٥", "\u20031",
                     "\t2\n", "-0", "5e-324", "1e-400", "1e400", "-inf", "nan",
                     "NaN(1)", "infinity", "+.5", "1e1_0", "abc", "1,5", "2\x1c",
                     "\x1f2", "1\x0c"]),
    st.text(st.characters(exclude_characters="\x00"), max_size=4),
)
# a few rows of x,y: pairs of numbers, blank rows, or 1 to 3 of any of those cells
EDGE_ROWS = st.lists(st.one_of(st.lists(NUMBER, min_size=2, max_size=2), st.just([]),
                               st.lists(CELL, min_size=1, max_size=3)),
                     min_size=1, max_size=6)


class TestBulkIngest:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=EDGE_ROWS, before=st.integers(0, 4))
    @example(rows=[["1", "2"], ["nan", "1"]], before=1)
    @example(rows=[["1_0", "2"], ["1", "2", "3"]], before=1)
    @example(rows=[["1", "2"], ["1", "x"]], before=0)  # error on line 1027
    def test_matches_per_cell_loop(self, rows, before):
        # valid rows, then `rows`, of which the first `before` end the first
        # chunk of the bulk conversion and the others start the next
        valid = [[repr(i / 7), str(-i)] for i in range(cli._CHUNK_ROWS - before)]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "d.csv")
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([["x", "y"], *valid, *rows])
            assert ingested(ingest_features, path) == ingested(per_cell_ingest, path)

    # files where numpy's loadtxt and csv.reader with float() part ways
    @pytest.mark.parametrize("text", [
        pytest.param("x,y\n1,2\n\n3,4\n", id="blank-line"),
        pytest.param("x,y\n1,2\n3,4\n\n", id="blank-last-line"),
        pytest.param("x\n1\n\n", id="blank-line-one-column"),
        pytest.param("x,y\n1,2\n \n3,4\n", id="space-line"),
        pytest.param("x\n1\n \t\n", id="space-line-one-column"),
        pytest.param("x,y\n1,2\n#x\n", id="hash-line"),
        pytest.param("x\n1\n#x\n", id="hash-line-one-column"),
        pytest.param("x,y\r\n1,2\r\n3,4\r\n", id="crlf"),
        pytest.param("x,y\r1,2\r3,4\r", id="bare-cr"),
        pytest.param("x,y\r\n1,2\r\n\r\n", id="crlf-blank-line"),
        pytest.param("x,y\n0." + "0" * 140_000 + "1,2\n", id="past-field-limit"),
        pytest.param("x,y\n0." + "0" * 130_000 + "1,2\n", id="within-field-limit"),
        pytest.param('x,y\n"1",2\n', id="quoted"),
        pytest.param('x,y\n"1\n",2\n', id="quoted-over-two-lines"),
        pytest.param('x,y\n1,"2\r\n3"\n', id="quoted-crlf"),
        pytest.param("x,y\n١٢,1\n", id="arabic-indic-digits"),
        pytest.param("x,y\n1,2\u2003\n", id="em-space"),
        *(pytest.param(f"x,y\n1,2{c}\n", id=f"space-to-numpy-only-{ord(c):x}")
          for c in "\x1c\x1d\x1e\x1f"),
        pytest.param("x,y\n1,2\x00\n", id="nul"),
        pytest.param("x,y\n1,2\n1,2,\n", id="trailing-comma"),
    ])
    def test_where_loadtxt_differs(self, tmp_path, text):
        path = str(tmp_path / "d.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        assert ingested(ingest_features, path) == ingested(per_cell_ingest, path)

    @pytest.mark.parametrize("bad", ["1,x", "1,2\x1c", "1,2,3", "1_0,2", ""])
    def test_clean_first_run_then_a_bad_row(self, tmp_path, bad):
        valid = "".join(f"{i / 7!r},{-i}\n" for i in range(cli._CHUNK_ROWS))
        path = write(tmp_path / "d.csv", f"x,y\n{valid}{bad}\n3,4\n")
        assert ingested(ingest_features, path) == ingested(per_cell_ingest, path)

    @pytest.mark.parametrize("header", ["x,y\n", '"x\n",y\n'], ids=["header", "two-line-header"])
    @pytest.mark.parametrize("quoted", ['"1",2\n', '"1\n",2\n'],
                             ids=["quoted", "quoted-over-two-lines"])
    @pytest.mark.parametrize("bad", ["1,x", "0." + "0" * 140_000 + "1,2", "1,2,3"],
                             ids=["non-numeric", "past-field-limit", "ragged"])
    def test_line_numbers_after_a_late_switch(self, tmp_path, header, quoted, bad):
        # a clean run, then a quoted cell that hands the rest to csv.reader, then
        # more than two of its chunks of rows before the bad row: every error
        # names the physical line, as the per-cell loop does
        valid = "".join(f"{i / 7!r},{-i}\n" for i in range(cli._CHUNK_ROWS))
        rest = "".join(f"{i},{i / 3!r}\n" for i in range(2100))
        path = write(tmp_path / "d.csv", f"{header}{valid}{quoted}{rest}{bad}\n3,4\n")
        got = ingested(ingest_features, path)
        assert isinstance(got, str) and got == ingested(per_cell_ingest, path)

    def test_blank_run_is_one_error_line(self, tmp_path, capsys):
        # a run of only blank lines, which np.loadtxt warns of, ends with
        # the one error: line and no warning
        valid = "".join(f"{i},{i}\n" for i in range(cli._CHUNK_ROWS))
        path = write(tmp_path / "d.csv", f"x,y\n{valid}\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--data", path, "--target", "y",
                         "--out", str(tmp_path / "o")]) == 1
        assert caught == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}:{cli._CHUNK_ROWS + 2}: expected 2 cells, got 0"]

    # the file is decoded in blocks of 8192 bytes, so a byte that is not UTF-8
    # is met with the lines of its block; the lines before them are read first
    @pytest.mark.parametrize("tail", [
        *(pytest.param(b"0." + b"0" * 139_997 + b"1,2\n" + b"1,2\n" * n + b"1,\xff\n",
                       id=f"past-field-limit-then-{n}-rows") for n in (0, 10, 300, 1000, 3000)),
        # a quoted cell still open where the block with the byte starts
        pytest.param(b"1.000000000000000,2\n" * 204 + b'"1\n' + b"\n" * 205 + b'\xff",2\n',
                     id="quoted-cell-open"),
    ])
    def test_undecodable_byte_after_a_clean_run(self, tmp_path, tail):
        path = tmp_path / "d.csv"
        path.write_bytes(b"x,y\n" + b"1,2\n" * cli._CHUNK_ROWS + tail)
        try:
            expected = ingested(per_cell_ingest, path)
        except UnicodeDecodeError:
            expected = f"{path}: not UTF-8 text"
        assert ingested(ingest_features, path) == expected


class TestByteOrderMark:
    """Files that start with the UTF-8 byte order mark, as Excel's "CSV
    UTF-8" writes them, read as the same files without it."""

    @staticmethod
    def _marked(path, text):
        with open(path, "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + text.encode())
        return str(path)

    @pytest.mark.parametrize("text", [
        pytest.param("x1,y\n1,2\n3,4\n", id="loadtxt"),
        pytest.param('x1,y\n"1",2\n3,4\n', id="csv-reader-fallback"),
    ])
    def test_ingest(self, tmp_path, text):
        marked = self._marked(tmp_path / "bom.csv", text)
        plain = write(tmp_path / "plain.csv", text)
        assert ingested(ingest_features, marked) == ingested(ingest_features, plain)
        assert ingest_features(marked)[1] == ("x1", "y")

    def test_train_on_the_first_column(self, tmp_path):
        make_data_csv(tmp_path / "d.csv", 40)
        text = (tmp_path / "d.csv").read_text().replace("x,y", "x1,y", 1)
        conf = write(tmp_path / "c.ini", "[train]\nepochs = 2\nhidden = 3\n")
        models = []
        for name, path in (("bom", self._marked(tmp_path / "bom.csv", text)),
                           ("plain", write(tmp_path / "plain.csv", text))):
            assert main(["train", "--data", path, "--target", "x1", "--config", conf,
                         "--out", str(tmp_path / name)]) == 0
            models.append((tmp_path / name / "model.qnet").read_bytes())
        assert models[0] == models[1]

    def test_calibrate_on_a_file_without_the_mark(self, tmp_path, capsys):
        make_data_csv(tmp_path / "plain.csv", 40)
        text = (tmp_path / "plain.csv").read_text()
        conf = write(tmp_path / "c.ini", "[train]\nepochs = 2\nhidden = 3\n")
        assert main(["train", "--data", self._marked(tmp_path / "bom.csv", text),
                     "--target", "y", "--config", conf, "--out", str(tmp_path / "m")]) == 0
        assert qnn.load(str(tmp_path / "m" / "model.qnet")).features == ("x",)
        assert main(["calibrate", "--model", str(tmp_path / "m" / "model.qnet"),
                     "--data", str(tmp_path / "plain.csv"), "--target", "y",
                     "--out", str(tmp_path / "c")]) == 0
        assert capsys.readouterr().err == ""

    def test_config_file(self, tmp_path):
        text = "[train]\nepochs = 7\n"
        marked = load_config(self._marked(tmp_path / "bom.ini", text))
        assert marked == load_config(write(tmp_path / "plain.ini", text))
        assert marked["train"]["epochs"] == "7"


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg["train"]["taus"] == "0.05,0.25,0.5,0.75,0.95"
        assert cfg["calibrate"]["alpha"] == "0.1"

    def test_file_overrides_defaults(self, tmp_path):
        p = write(tmp_path / "c.ini", "[train]\nepochs = 7\n")
        cfg = load_config(p)
        assert cfg["train"]["epochs"] == "7"
        assert cfg["train"]["learning_rate"] == "0.01"

    def test_unknown_section_rejected(self, tmp_path):
        p = write(tmp_path / "c.ini", "[serve]\nport = 80\n")
        with pytest.raises(DomainError, match=r"unknown config section \[serve\]"):
            load_config(p)

    @pytest.mark.parametrize("section, key", [
        ("train", "momentum"), ("calibrate", "split"), ("calibrate", "seed"),
        ("eval", "seed"),
    ])
    def test_unknown_key_rejected(self, tmp_path, section, key):
        p = write(tmp_path / "c.ini", f"[{section}]\n{key} = 0.9\n")
        with pytest.raises(DomainError, match=f"unknown key '{key}'"):
            load_config(p)

    @pytest.mark.parametrize("text", [
        b"epochs = 5\n",                          # no section header
        b"[train]\nepochs = 5\nepochs = 6\n",     # duplicate key
        b"[train]\nepochs = abc\n",               # not a number
        b"[train]\nepochs = \xff\n",              # not UTF-8
        b"[train]\nhuber_kappa = nan\n",          # not finite
    ], ids=["no-section", "duplicate-key", "non-numeric", "not-utf8", "nan"])
    def test_malformed_file_is_a_structured_error(self, tmp_path, text):
        data = make_data_csv(tmp_path / "d.csv", 20)
        conf = str(tmp_path / "c.ini")
        with open(conf, "wb") as fh:
            fh.write(text)
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-m", "quantpred.cli", "train", "--data", data,
             "--target", "y", "--config", conf, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert conf in lines[0]
        assert "Traceback" not in proc.stderr

    def test_missing_config_file(self, tmp_path):
        missing = str(tmp_path / "nope.ini")
        with pytest.raises(FileNotFoundError) as info:
            load_config(missing)
        assert info.value.filename == missing

    def test_config_echo_round_trips(self, tmp_path):
        # the echoed config re-parses to an equivalent run configuration
        data = make_data_csv(tmp_path / "d.csv", 50)
        conf = write(tmp_path / "c.ini", "[train]\nepochs = 3\nhidden = 4\n")
        out = tmp_path / "out"
        assert main(["train", "--data", data, "--target", "y",
                     "--config", conf, "--out", str(out)]) == 0
        with open(out / "train_meta.json") as fh:
            echoed = json.load(fh)
        assert echoed["train"] == load_config(conf)["train"]


    def test_flag_over_config_over_default(self, pipeline, tmp_path):
        conf = write(tmp_path / "c.ini", "[eval]\nalpha = 0.5\nbandwidth = 0.4\n")
        out = tmp_path / "e"
        assert main(["eval", "--method", "kernel",
                     "--train-data", pipeline["train_csv"],
                     "--data", pipeline["test_csv"], "--target", "y",
                     "--config", conf, "--alpha", "0.2", "--out", str(out)]) == 0
        with open(out / "eval_meta.json") as fh:
            assert json.load(fh) == {
                "eval": {"alpha": "0.2", "bandwidth": "0.4", "method": "kernel"}}

    def test_empty_flag_keeps_config_and_zero_flag_overrides(self, tmp_path):
        data = make_data_csv(tmp_path / "d.csv", 20)
        conf = write(tmp_path / "c.ini", "[train]\nepochs = 1\nhidden = 2\n"
                                         "taus = 0.1,0.9\nseed = 5\n")
        out = tmp_path / "out"
        assert main(["train", "--data", data, "--target", "y", "--config", conf,
                     "--taus", "", "--seed", "0", "--out", str(out)]) == 0
        with open(out / "train_meta.json") as fh:
            echoed = json.load(fh)["train"]
        assert (echoed["taus"], echoed["seed"]) == ("0.1,0.9", "0")

    def test_defaults_table(self):
        assert load_config() == {
            "train": {
                "taus": "0.05,0.25,0.5,0.75,0.95", "hidden": "64,64",
                "activation": "relu", "monotone": "increments",
                "penalty_weight": "1.0", "epochs": "100", "learning_rate": "0.01",
                "batch_size": "64", "huber_kappa": "0.0", "seed": "0",
            },
            "calibrate": {"alpha": "0.1"},
            "predict": {"alpha": "0.1", "taus": ""},
            "eval": {"alpha": "0.1", "method": "qnn", "bandwidth": "0.3"},
            "demo": {
                "seed": "4", "n": "100", "replications": "200", "efron_n": "1001",
                "efron_replications": "10000", "sweep_replications": "20000",
                "oracle_replications": "50000", "n_train": "1000", "n_cal": "500",
                "n_test": "1000", "alpha": "0.1", "dgp": "heteroscedastic",
                "epochs": "60",
            },
        }

    def test_shared_defaults_are_the_libraries(self):
        def default(owner, name):
            return str(inspect.signature(owner).parameters[name].default)

        cfg = load_config()
        assert cfg["train"]["seed"] == default(qnn.QuantileNetwork, "seed")
        assert cfg["train"]["seed"] == default(qnn.TrainingConfig, "seed")
        for key in ("seed", "n"):
            assert cfg["demo"][key] == default(experiments.run_normal_normal_demo, key)

    @pytest.mark.parametrize("section, key", [
        ("train", "head"), ("train", "embedding_dim"), ("train", "layer_dims"),
        ("train", "grid"), ("demo", "out_dir"),
    ])
    def test_unlisted_library_keyword_rejected(self, tmp_path, section, key):
        # a keyword default the cli does not list is no config key
        p = write(tmp_path / "c.ini", f"[{section}]\n{key} = 1\n")
        with pytest.raises(DomainError, match=rf"unknown key '{key}' in \[{section}\]"):
            load_config(p)

    def test_penalty_weight_reaches_the_model_as_a_float(self, tmp_path):
        data = make_data_csv(tmp_path / "d.csv", 20)
        conf = write(tmp_path / "c.ini", "[train]\nepochs = 1\nhidden = 2\n"
                                         "monotone = penalty\npenalty_weight = 2\n")
        out = tmp_path / "out"
        assert main(["train", "--data", data, "--target", "y", "--config", conf,
                     "--out", str(out)]) == 0
        weight = qnn.load(str(out / "model.qnet")).penalty_weight
        assert type(weight) is float and weight == 2.0

    def test_coverage_settings_reach_the_library_typed(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(experiments, "write_coverage_report",
                            lambda out_dir, config: seen.append(config))
        conf = write(tmp_path / "c.ini", "[demo]\nn_train = 150\nalpha = 0.2\n")
        assert main(["demo", "coverage", "--config", conf, "--seed", "9",
                     "--out", str(tmp_path / "o")]) == 0
        assert seen == [experiments.CoverageBenchConfig(
            dgp="heteroscedastic", n_train=150, n_cal=500, n_test=1000, alpha=0.2,
            replications=200, seed=9, epochs=60)]
        assert type(seen[0].n_train) is int and type(seen[0].alpha) is float


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A trained model plus calibration artifacts shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    train_csv = make_data_csv(root / "train.csv", 200, seed=1)
    cal_csv = make_data_csv(root / "cal.csv", 120, seed=2)
    test_csv = make_data_csv(root / "test.csv", 120, seed=3)
    conf = write(root / "c.ini",
                 "[train]\nepochs = 15\nhidden = 8\nlearning_rate = 0.05\n"
                 "taus = 0.05,0.5,0.95\n")
    train_out = root / "train_out"
    assert main(["train", "--data", train_csv, "--target", "y",
                 "--config", conf, "--out", str(train_out)]) == 0
    cal_out = root / "cal_out"
    assert main(["calibrate", "--model", str(train_out / "model.qnet"),
                 "--data", cal_csv, "--target", "y",
                 "--out", str(cal_out)]) == 0
    return {
        "root": root, "conf": conf,
        "train_csv": train_csv, "cal_csv": cal_csv, "test_csv": test_csv,
        "model": str(train_out / "model.qnet"),
        "train_out": train_out,
        "calibration": str(cal_out / "calibration.txt"),
    }


class TestPipeline:
    def test_train_outputs(self, pipeline):
        out = pipeline["train_out"]
        for name in ("model.qnet", "train_report.csv", "loss_trace.csv",
                     "train_meta.json"):
            assert (out / name).exists()
        trace = (out / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,loss"
        losses = [float(line.split(",")[1]) for line in trace[1:]]
        assert losses[-1] <= losses[0]  # never ends worse than it started

    def test_saved_model_loads(self, pipeline):
        net = qnn.load(pipeline["model"])
        assert net.layer_dims == [1, 8, 3]

    def test_calibration_record_parses(self, pipeline):
        with open(pipeline["calibration"]) as fh:
            cal = conformal.ConformalCalibration.from_record(fh.read())
        assert cal.alpha == 0.1 and cal.n == 120

    def test_predict_plain(self, pipeline, tmp_path):
        out = tmp_path / "pred"
        assert main(["predict", "--model", pipeline["model"],
                     "--data", pipeline["test_csv"], "--target", "y",
                     "--out", str(out)]) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "row,q0.05,q0.5,q0.95"
        assert len(lines) == 1 + 120
        q = [float(c) for c in lines[1].split(",")[1:]]
        assert q[0] <= q[1] <= q[2]  # non-crossing

    def test_predict_with_calibration(self, pipeline, tmp_path):
        out = tmp_path / "pred"
        assert main(["predict", "--model", pipeline["model"],
                     "--data", pipeline["test_csv"], "--target", "y",
                     "--calibration", pipeline["calibration"],
                     "--out", str(out)]) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0].endswith(",lower,upper")
        lo, hi = (float(c) for c in lines[1].split(",")[-2:])
        assert lo <= hi

    def test_predict_intervals_match_the_quantile_columns(self, pipeline, tmp_path):
        out = tmp_path / "pred"
        assert main(["predict", "--model", pipeline["model"],
                     "--data", pipeline["test_csv"], "--target", "y",
                     "--calibration", pipeline["calibration"],
                     "--out", str(out)]) == 0
        with open(pipeline["calibration"]) as fh:
            qhat = conformal.ConformalCalibration.from_record(fh.read()).qhat
        table = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=1)
        _, q05, _, q95, lower, upper = table.T
        assert np.all(q95 - q05 + 2 * qhat >= 0)  # no interval collapsed
        assert np.array_equal(lower, q05 - qhat)
        assert np.array_equal(upper, q95 + qhat)

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_predictions_cell_format(self, pipeline, tmp_path, monkeypatch, calibrated):
        # the bytes fmt below gives each cell, on values at the edges of repr's
        # forms, across blocks of 16 rows
        values = [-0.0, 0.0, 5e-324, 1e-300, 1e-05, 0.0001, 1.0, 1e16, 1e300]
        values += [-v for v in values[1:]]

        def forward_batch(net, X, taus=None, alpha=None):
            width = len(taus) + (alpha is not None) * 2
            return np.resize(values, (len(X), width))

        monkeypatch.setattr(qnn.QuantileNetwork, "forward_batch", forward_batch)
        monkeypatch.setattr(conformal, "conformalize", lambda lo, hi, qhat: (lo, hi))
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 16)
        out = tmp_path / "pred"
        argv = ["predict", "--model", pipeline["model"], "--data", pipeline["test_csv"],
                "--target", "y", "--out", str(out)]
        assert main(argv + (["--calibration", pipeline["calibration"]]
                            if calibrated else [])) == 0
        q = forward_batch(None, range(120), [0.05, 0.5, 0.95], 0.1 if calibrated else None)
        header = "row,q0.05,q0.5,q0.95" + (",lower,upper" if calibrated else "")

        def fmt(v):
            """ints and strings as they are, any other number as the shortest
            text that reads back as the same float"""
            return v if isinstance(v, str) else str(v) if isinstance(v, int) else repr(float(v))

        expected = "".join([header + "\n"] + [
            ",".join(map(fmt, [i, *row])) + "\n"
            for i, row in enumerate(q.tolist())])
        assert (out / "predictions.csv").read_bytes() == expected.encode()
        assert {cell for line in expected.splitlines()[1:]
                for cell in line.split(",")[1:]} == set(map(repr, values))

    def test_predict_runs_one_network_pass(self, pipeline, tmp_path, monkeypatch):
        # the quantile and interval columns come from one pass, in blocks of
        # 16 rows at the model's width of 8
        rows = []
        forward = qnn._forward

        def counting(net, X, levels):
            rows.append(X.shape[0])
            return forward(net, X, levels)

        monkeypatch.setattr(qnn, "_forward", counting)
        monkeypatch.setattr(qnn, "_BLOCK", 16 * 8)
        assert main(["predict", "--model", pipeline["model"],
                     "--data", pipeline["test_csv"], "--target", "y",
                     "--calibration", pipeline["calibration"],
                     "--out", str(tmp_path / "pred")]) == 0
        assert rows == [16] * 7 + [8]

    def test_eval_qnn_calibrated(self, pipeline, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--model", pipeline["model"],
                     "--data", pipeline["test_csv"], "--target", "y",
                     "--calibration", pipeline["calibration"],
                     "--out", str(out)]) == 0
        body = (out / "eval.csv").read_text().splitlines()
        assert body[0] == "method,alpha,coverage,mean_width"
        method, alpha, coverage, width = body[1].split(",")
        assert method == "qnn"
        assert 0.5 <= float(coverage) <= 1.0
        assert float(width) > 0

    def test_eval_kernel(self, pipeline, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--method", "kernel",
                     "--train-data", pipeline["train_csv"],
                     "--data", pipeline["test_csv"], "--target", "y",
                     "--out", str(out)]) == 0
        body = (out / "eval.csv").read_text().splitlines()
        assert body[1].startswith("kernel,")

    def test_eval_kernel_calibrates_on_held_out_rows(self, pipeline, tmp_path):
        # even training rows fit NW, odd rows calibrate its half-width
        out = tmp_path / "eval"
        assert main(["eval", "--method", "kernel",
                     "--train-data", pipeline["train_csv"],
                     "--data", pipeline["test_csv"], "--target", "y",
                     "--out", str(out)]) == 0
        train = ingest_csv(pipeline["train_csv"], "y")
        test = ingest_csv(pipeline["test_csv"], "y")
        kc = kernel.KernelConfig(0.3)
        fit = qnn.Dataset(train.features[0::2], train.targets[0::2])
        resid = np.abs(train.targets[1::2]
                       - kernel.nw_predict(fit, train.features[1::2], kc))
        half = np.sort(resid)[int(np.ceil(0.9 * (resid.size + 1))) - 1]
        pred = kernel.nw_predict(fit, test.features, kc)
        lo, hi = pred - half, pred + half
        coverage = np.mean((lo <= test.targets) & (test.targets <= hi))
        _, row = (out / "eval.csv").read_text().splitlines()
        method, alpha, got_coverage, width = row.split(",")
        assert (method, alpha) == ("kernel", "0.1")
        assert float(got_coverage) == coverage
        assert float(width) == pytest.approx(2 * half, rel=1e-12)

    def test_eval_kernel_needs_two_training_rows(self, pipeline, tmp_path, capsys):
        one = write(tmp_path / "one.csv", "x,y\n0.5,1.0\n")
        rc = main(["eval", "--method", "kernel", "--train-data", one,
                   "--data", pipeline["test_csv"], "--target", "y",
                   "--out", str(tmp_path / "e")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert one in lines[0] and "at least 2 rows" in lines[0]

    def test_eval_qnn_requires_model(self, pipeline, tmp_path, capsys):
        rc = main(["eval", "--data", pipeline["test_csv"], "--target", "y",
                   "--out", str(tmp_path / "e")])
        assert rc == 1
        assert "requires --model" in capsys.readouterr().err

    def test_eval_kernel_requires_train_data(self, pipeline, tmp_path, capsys):
        rc = main(["eval", "--method", "kernel",
                   "--data", pipeline["test_csv"], "--target", "y",
                   "--out", str(tmp_path / "e")])
        assert rc == 1
        assert "requires --train-data" in capsys.readouterr().err

    @pytest.mark.parametrize("method, flag, own", [
        ("kernel", "--model", "--train-data"),
        ("kernel", "--calibration", "--train-data"),
        ("qnn", "--train-data", "--model"),
    ])
    def test_eval_rejects_other_methods_flags(self, pipeline, tmp_path, capsys,
                                              method, flag, own):
        # missing files: the flag is rejected before any file is read
        missing = str(tmp_path / "nope")
        out = tmp_path / "e"
        rc = main(["eval", "--method", method, own, missing, flag, missing,
                   "--data", missing, "--target", "y", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: eval with method {method} takes no {flag}"]
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1.5", "nan", "0"])
    def test_predict_rejects_bad_alpha_without_calibration(self, pipeline, tmp_path,
                                                           capsys, alpha):
        out = tmp_path / "p"
        rc = main(["predict", "--model", pipeline["model"], "--data", pipeline["test_csv"],
                   "--target", "y", "--alpha", alpha, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: alpha must lie strictly inside (0, 1)"]
        assert not out.exists()

    @staticmethod
    def _two_feature_csv(path, names, seed):
        """Rows (x1, x2, y) with y = x1 + noise, in the column order of names;
        a column named z holds x2."""
        rng = RandomSource(seed).stream("cli-two-features")
        x = rng.uniform(-2.0, 2.0, (60, 2))
        cols = {"x1": x[:, 0], "x2": x[:, 1], "z": x[:, 1],
                "y": x[:, 0] + 0.1 * rng.standard_normal(60)}
        rows = [",".join(names)] + [",".join(repr(float(cols[c][i])) for c in names)
                                    for i in range(60)]
        return write(path, "\n".join(rows) + "\n")

    @pytest.mark.parametrize("command", ["eval-kernel", "calibrate", "predict", "eval-qnn"])
    @pytest.mark.parametrize("names, shown", [
        (("x2", "x1", "y"), "['x2', 'x1']"),  # the same columns, swapped
        (("x1", "z", "y"), "['x1', 'z']"),  # a renamed column
    ])
    def test_rejects_other_feature_columns(self, tmp_path, capsys, monkeypatch,
                                           command, names, shown):
        # NW and the network pair the columns by position, so every command
        # checks their names against the training file's before any work
        train = self._two_feature_csv(tmp_path / "train.csv", ("x1", "x2", "y"), 1)
        test = self._two_feature_csv(tmp_path / "test.csv", names, 2)
        source = model = str(tmp_path / "m" / "model.qnet")
        if command == "eval-kernel":
            source = train
        else:
            conf = write(tmp_path / "c.ini", "[train]\nepochs = 1\nhidden = 2\n")
            assert main(["train", "--data", train, "--target", "y", "--config", conf,
                         "--out", str(tmp_path / "m")]) == 0
        argv = {"eval-kernel": ["eval", "--method", "kernel", "--train-data", train],
                "calibrate": ["calibrate", "--model", model],
                "predict": ["predict", "--model", model],
                "eval-qnn": ["eval", "--method", "qnn", "--model", model]}[command]
        calls = []
        monkeypatch.setattr(kernel, "nw_predict", lambda *a: calls.append(a))
        monkeypatch.setattr(qnn, "_predict", lambda *a: calls.append(a))
        out = tmp_path / "e"
        rc = main(argv + ["--data", test, "--target", "y", "--out", str(out)])
        assert rc == 1 and calls == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: {test}: feature columns {shown} differ from "
            f"{source}'s ['x1', 'x2']"]
        assert not out.exists()

    def test_eval_kernel_finds_the_target_anywhere(self, tmp_path):
        # only the features' order must agree; the target may sit elsewhere
        train = self._two_feature_csv(tmp_path / "train.csv", ("x1", "x2", "y"), 1)
        out = {}
        for where, names in (("last", ("x1", "x2", "y")), ("first", ("y", "x1", "x2"))):
            test = self._two_feature_csv(tmp_path / f"{where}.csv", names, 2)
            assert main(["eval", "--method", "kernel", "--train-data", train,
                         "--data", test, "--target", "y",
                         "--out", str(tmp_path / where)]) == 0
            out[where] = (tmp_path / where / "eval.csv").read_bytes()
        assert out["first"] == out["last"]

    @pytest.mark.parametrize("bandwidth", ["1e-9", "1e-12"])
    @pytest.mark.filterwarnings("ignore:all kernel weights underflowed")
    def test_eval_kernel_of_a_file_on_itself(self, tmp_path, capsys, bandwidth):
        # the expanded square's rounding can lift a fitting row's log-weight on
        # itself past exp's overflow, and such a row is redone shifted; the odd
        # rows it calibrates on are far enough for all their weights to underflow
        data = self._two_feature_csv(tmp_path / "data.csv", ("x1", "x2", "y"), 1)
        conf = write(tmp_path / "bw.ini", f"[eval]\nbandwidth = {bandwidth}\n")
        rc = main(["eval", "--method", "kernel", "--train-data", data, "--data", data,
                   "--target", "y", "--config", conf, "--out", str(tmp_path / "e")])
        assert "error:" not in capsys.readouterr().err
        assert rc == 0

    @pytest.mark.parametrize("command", ["calibrate", "eval", "predict"])
    def test_predict_feature_mismatch(self, pipeline, tmp_path, capsys, command):
        # the column check comes before the network's width check, so every
        # command names both files
        bad = write(tmp_path / "bad.csv", "a,b,y\n1,2,3\n")
        rc = main([command, "--model", pipeline["model"], "--data", bad,
                   "--target", "y", "--out", str(tmp_path / "p")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {bad}: feature columns ['a', 'b'] differ from "
                         f"{pipeline['model']}'s ['x']"]

    def test_train_deterministic(self, pipeline, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--data", pipeline["train_csv"],
                         "--target", "y", "--config", pipeline["conf"],
                         "--out", str(out)]) == 0
        for name in ("model.qnet", "train_report.csv", "loss_trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.fixture(scope="module")
def implicit_model(pipeline, tmp_path_factory):
    """A model with the implicit head, which the train command does not
    write: trained through the library on a Dataset with names, saved, and
    calibrated by the calibrate command."""
    root = tmp_path_factory.mktemp("implicit")
    net = qnn.QuantileNetwork([1, 8, 1], head="implicit", embedding_dim=4,
                              monotone="penalty", seed=3)
    qnn.train(net, ingest_csv(pipeline["train_csv"], "y"), [0.05, 0.5, 0.95],
              qnn.TrainingConfig(learning_rate=0.05, epochs=5, seed=3))
    model = str(root / "model.qnet")
    qnn.save(net, model)
    assert main(["calibrate", "--model", model, "--data", pipeline["cal_csv"],
                 "--target", "y", "--out", str(root / "cal")]) == 0
    return net, model, str(root / "cal" / "calibration.txt")


def read_table(path):
    """A csv the commands write: its header, and its rows as float() of each cell."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array([[float(c) for c in row] for row in rows])


class TestImplicitHeadModel:
    def test_calibrate(self, pipeline, implicit_model):
        net, _, calibration = implicit_model
        data = ingest_csv(pipeline["cal_csv"], "y")
        lo, hi = net.forward_batch(data.features, [], 0.1).T
        want = conformal.calibrate(conformal.scores(data.targets, lo, hi), 0.1)
        with open(calibration) as fh:
            assert fh.read() == want.to_record()

    @pytest.mark.parametrize("taus, calibrated, levels", [
        ("", False, [0.1 / 2, 0.5, 1 - 0.1 / 2]),  # the default: alpha/2, 0.5, 1 - alpha/2
        ("", True, [0.1 / 2, 0.5, 1 - 0.1 / 2]),
        ("0.3,0.7", False, [0.3, 0.7]),
    ], ids=["default-levels", "calibrated", "taus"])
    def test_predict(self, pipeline, implicit_model, tmp_path, taus, calibrated, levels):
        net, model, calibration = implicit_model
        out = tmp_path / "pred"
        assert main(["predict", "--model", model, "--data", pipeline["test_csv"],
                     "--target", "y", "--out", str(out)]
                    + (["--taus", taus] if taus else [])
                    + (["--calibration", calibration] if calibrated else [])) == 0
        header, table = read_table(out / "predictions.csv")
        assert header == (["row"] + [f"q{t}" for t in levels]
                          + (["lower", "upper"] if calibrated else []))
        X = ingest_csv(pipeline["test_csv"], "y").features
        q = net.forward_batch(X, levels)
        assert table[:, 1:1 + len(levels)].tobytes() == q.tobytes()
        if calibrated:
            qhat = conformal.ConformalCalibration.load(calibration).qhat
            lo, hi = conformal.conformalize(*net.forward_batch(X, [], 0.1).T, qhat)
            assert table[:, -2:].tobytes() == np.column_stack([lo, hi]).tobytes()

    def test_eval(self, pipeline, implicit_model, tmp_path):
        net, model, calibration = implicit_model
        out = tmp_path / "eval"
        assert main(["eval", "--model", model, "--data", pipeline["test_csv"],
                     "--target", "y", "--calibration", calibration,
                     "--out", str(out)]) == 0
        data = ingest_csv(pipeline["test_csv"], "y")
        qhat = conformal.ConformalCalibration.load(calibration).qhat
        lo, hi = conformal.conformalize(*net.forward_batch(data.features, [], 0.1).T, qhat)
        coverage, width = conformal.coverage(lo, hi, data.targets)
        assert (out / "eval.csv").read_text() == (
            f"method,alpha,coverage,mean_width\nqnn,0.1,{coverage},{width}\n")


class TestErrorSurface:
    def test_missing_data_file_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        rc = main(["train", "--data", missing,
                   "--target", "y", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("flag", ["--data", "--config", "--model", "--calibration",
                                      "--train-data"])
    def test_unopenable_path(self, pipeline, tmp_path, capsys, flag):
        # every path flag, given a missing file or a directory, ends with the
        # one form cli.main gives an OSError, before --out is made
        for path, reason in ((str(tmp_path / "nope"), "No such file or directory"),
                             (str(tmp_path), "Is a directory")):
            out = tmp_path / "o"
            argv = {
                "--data": ["train", "--data", path, "--target", "y"],
                "--config": ["train", "--data", pipeline["train_csv"], "--target", "y",
                             "--config", path],
                "--model": ["predict", "--model", path, "--data", pipeline["test_csv"]],
                "--calibration": ["predict", "--model", pipeline["model"],
                                  "--calibration", path, "--data", pipeline["test_csv"]],
                "--train-data": ["eval", "--method", "kernel", "--train-data", path,
                                 "--data", pipeline["test_csv"], "--target", "y"],
            }[flag]
            assert main(argv + ["--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {path}: {reason}\n"
            assert not out.exists()

    @pytest.mark.parametrize("argv, text", [
        (["demo", "normal-normal"], "[demo]\nn = 1000000000000000\n"),
        (["demo", "coverage"], "[demo]\nn_train = 1000000000000000\nreplications = 2\n"),
        (["train", "--data", "d.csv", "--target", "y"],
         "[train]\nhidden = 100000000,100000000\n"),
    ], ids=["demo-n", "coverage-worker-n-train", "train-hidden"])
    def test_out_of_memory(self, tmp_path, capsys, monkeypatch, argv, text):
        # sizes past the address space, so numpy allocates nothing
        monkeypatch.chdir(tmp_path)
        make_data_csv(tmp_path / "d.csv", 30)
        conf = write(tmp_path / "c.ini", text)
        assert main(argv + ["--config", conf, "--out", "o"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory: Unable to allocate")
        assert not (tmp_path / "o").exists()

    def test_malformed_taus(self, tmp_path, capsys):
        data = make_data_csv(tmp_path / "d.csv", 30)
        rc = main(["train", "--data", data, "--target", "y",
                   "--taus", "0.1,frog", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "malformed quantile list" in capsys.readouterr().err

    def test_out_of_range_tau(self, tmp_path, capsys):
        data = make_data_csv(tmp_path / "d.csv", 30)
        rc = main(["train", "--data", data, "--target", "y",
                   "--taus", "0.1,1.5", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        data = make_data_csv(tmp_path / "d.csv", 30)
        conf = write(tmp_path / "c.ini", "[train]\nwidth = 3\n")
        rc = main(["train", "--data", data, "--target", "y",
                   "--config", conf, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "unknown key 'width'" in capsys.readouterr().err


    @pytest.mark.parametrize("text, match", [
        ("[train]\nhidden = 4,abc\n", "malformed hidden-layer list"),
        ("[train]\nhidden = -1\n", "layer sizes must be positive"),
        ("[train]\nlearning_rate = 1e308\n", "too large for float arithmetic"),
    ], ids=["hidden-text", "hidden-negative", "learning-rate-overflow"])
    def test_bad_train_setting(self, tmp_path, capsys, text, match):
        data = make_data_csv(tmp_path / "d.csv", 30)
        conf = write(tmp_path / "c.ini", text + "epochs = 2\n")
        rc = main(["train", "--data", data, "--target", "y",
                   "--config", conf, "--out", str(tmp_path / "o")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and match in lines[0]

    @pytest.mark.parametrize("command", ["train", "eval-kernel"])
    def test_overflowing_values(self, tmp_path, capsys, command):
        # finite cells whose squares overflow
        data = write(tmp_path / "d.csv", "x,y\n1e308,1e308\n-1e308,2\n")
        argv = (["train", "--data", data] if command == "train" else
                ["eval", "--method", "kernel", "--train-data", data, "--data", data])
        assert main(argv + ["--target", "y", "--out", str(tmp_path / "o")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: overflow")

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["calibrate", "eval-qnn", "eval-kernel"])
    def test_non_finite_alpha(self, pipeline, tmp_path, capsys, command, alpha):
        argv = {
            "calibrate": ["calibrate", "--model", pipeline["model"],
                          "--data", pipeline["cal_csv"]],
            "eval-qnn": ["eval", "--method", "qnn", "--model", pipeline["model"],
                         "--data", pipeline["test_csv"]],
            "eval-kernel": ["eval", "--method", "kernel",
                            "--train-data", pipeline["train_csv"],
                            "--data", pipeline["test_csv"]],
        }[command]
        rc = main(argv + ["--target", "y", "--alpha", alpha,
                          "--out", str(tmp_path / "o")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "alpha" in lines[0]

    @pytest.mark.parametrize("case", ["not-utf8", "directory", "long-cell"])
    def test_unreadable_data_file(self, tmp_path, capsys, case):
        path = tmp_path / "d.csv"
        if case == "not-utf8":
            path.write_bytes(b"x,y\n1,2\n\xff,3\n")
            expected = f"error: {path}: not UTF-8 text"
        elif case == "directory":
            path.mkdir()
            expected = f"error: {path}: Is a directory"
        else:  # longer than csv's field size limit
            write(path, "x,y\n1,2\n3," + "4" * 131073 + "\n")
            expected = f"error: {path}:3: field larger than field limit (131072)"
        rc = main(["train", "--data", str(path), "--target", "y",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [expected]

    @pytest.mark.parametrize("command", ["train", "predict", "eval-kernel"])
    def test_duplicate_column_name(self, pipeline, tmp_path, capsys, command):
        # the first 'y' would be the target and both would leave the features
        dup = write(tmp_path / "dup.csv", "x1,y,y\n1,2,3\n4,5,6\n7,8,9\n")
        argv = {
            "train": ["train", "--data", dup],
            "predict": ["predict", "--model", pipeline["model"], "--data", dup],
            "eval-kernel": ["eval", "--method", "kernel", "--train-data", dup, "--data", dup],
        }[command]
        out = tmp_path / "o"
        assert main(argv + ["--target", "y", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {dup}: duplicate column name 'y' in header"]
        assert not out.exists()

    def _never_started(self, monkeypatch):
        """Make training and NW fail the test if a command starts them."""
        def never(*args):
            raise AssertionError("the command started its work")
        monkeypatch.setattr(qnn, "train", never)
        monkeypatch.setattr(kernel, "nw_predict", never)

    def _argv(self, tmp_path, command):
        data = make_data_csv(tmp_path / "d.csv", 30)
        return {
            "demo": ["demo", "normal-normal"],
            "train": ["train", "--data", data, "--target", "y", "--config",
                      write(tmp_path / "c.ini", "[train]\nepochs = 1\nhidden = 2\n")],
            "eval-kernel": ["eval", "--method", "kernel", "--train-data", data,
                            "--data", data, "--target", "y"],
        }[command]

    @pytest.mark.parametrize("command", ["train", "eval-kernel", "demo"])
    def test_out_names_a_file(self, tmp_path, capsys, monkeypatch, command):
        # reported before any training or NW work
        self._never_started(monkeypatch)
        out = write(tmp_path / "o", "")
        assert main(self._argv(tmp_path, command) + ["--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {out}: File exists"]

    @pytest.mark.parametrize("below", ["/", "/o", "/o/", "/sub/o"])
    @pytest.mark.parametrize("command", ["train", "eval-kernel"])
    def test_out_through_a_file(self, tmp_path, capsys, monkeypatch, command, below):
        # the text os.makedirs gives, before any work, and nothing is created
        self._never_started(monkeypatch)
        out = write(tmp_path / "f", "") + below
        with pytest.raises(OSError) as made:
            os.makedirs(out, exist_ok=True)
        argv = self._argv(tmp_path, command) + ["--out", out]
        before = sorted(os.listdir(tmp_path))
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {made.value.filename}: {made.value.strerror}"]
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command", ["train", "eval-kernel"])
    def test_out_the_system_rejects(self, tmp_path, capsys, monkeypatch, command):
        # main makes --out before any work, so the operating system's own
        # error ends the run, and nothing is created
        self._never_started(monkeypatch)
        argv = self._argv(tmp_path, command)
        before = sorted(os.listdir(tmp_path))
        out = str(tmp_path / ("x" * 300) / "run")
        assert main(argv + ["--out", out]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert lines[0].endswith(": File name too long")
        assert sorted(os.listdir(tmp_path)) == before

    def test_failed_run_removes_the_directories_it_made(self, tmp_path, capsys):
        argv = ["train", "--data", str(tmp_path / "nope.csv"), "--target", "y",
                "--out", str(tmp_path / "new" / "deeper")]
        assert main(argv) == 1
        assert os.listdir(tmp_path) == []
        (tmp_path / "new").mkdir()  # one the run did not make stays
        assert main(argv) == 1
        assert os.listdir(tmp_path) == ["new"] and os.listdir(tmp_path / "new") == []
        assert capsys.readouterr().err.count("error: ") == 2

    def test_failed_run_removes_a_dotted_out(self, tmp_path, capsys, monkeypatch):
        # new/../o makes new, then o beside it; both go
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--data", "nope.csv", "--target", "y",
                     "--out", "new/../o"]) == 1
        assert os.listdir(tmp_path) == []
        assert capsys.readouterr().err.splitlines() == [
            "error: nope.csv: No such file or directory"]

    def test_interrupted_run_removes_the_out_it_made(self, tmp_path, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(qnn, "train", interrupted)
        out = tmp_path / "o"
        with pytest.raises(KeyboardInterrupt):
            main(self._argv(tmp_path, "train") + ["--out", str(out)])
        assert not out.exists()

    def test_failed_run_keeps_an_existing_out(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        write(out / "keep.txt", "kept\n")
        assert main(["train", "--data", str(tmp_path / "nope.csv"), "--target", "y",
                     "--out", str(out)]) == 1
        assert os.listdir(out) == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "kept\n"
        capsys.readouterr()

    def test_failed_run_keeps_the_files_it_wrote(self, tmp_path, capsys, monkeypatch):
        # the model is saved before the reports, whose write fails here
        def full(path, *args):
            raise OSError(28, "No space left on device", path)

        monkeypatch.setattr(cli, "write_csv", full)
        out = tmp_path / "new" / "o"
        assert main(self._argv(tmp_path, "train") + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out / 'train_report.csv'}: No space left on device"]
        assert os.listdir(out) == ["model.qnet"]

    def test_config_names_a_directory(self, tmp_path, capsys):
        data = make_data_csv(tmp_path / "d.csv", 30)
        rc = main(["train", "--data", data, "--target", "y",
                   "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path}: Is a directory"]

    def test_kernel_errstate_on_threads(self, tmp_path, capsys, monkeypatch):
        # a bandwidth whose square underflows to 0, with NW on two threads
        pools = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(kernel, "_BLOCK", 64)
        monkeypatch.setattr(kernel, "_GROUP", 1)
        monkeypatch.setattr(kernel, "_THREADED", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        train = make_data_csv(tmp_path / "train.csv", 40)
        conf = write(tmp_path / "c.ini", "[eval]\nbandwidth = 1e-200\n")
        rc = main(["eval", "--method", "kernel", "--train-data", train,
                   "--data", make_data_csv(tmp_path / "test.csv", 200, seed=1),
                   "--target", "y", "--config", conf, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: divide by zero encountered in divide: input values or "
            "settings too large for float arithmetic"]
        assert pools == [2]

    @pytest.mark.parametrize("threaded", [False, True])
    @pytest.mark.parametrize("bandwidth, what", [
        ("1e-200", "divide by zero"),  # 2 bandwidth^2 underflows to 0
        ("1e-155", "overflow"),  # 2 bandwidth^2 is subnormal, so 1 / it overflows
    ])
    def test_kernel_bandwidth_breaks_its_square(self, tmp_path, capsys, monkeypatch,
                                                bandwidth, what, threaded):
        pools = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        if threaded:
            monkeypatch.setattr(kernel, "_BLOCK", 64)
            monkeypatch.setattr(kernel, "_GROUP", 1)
            monkeypatch.setattr(kernel, "_THREADED", 1)
        conf = write(tmp_path / "c.ini", f"[eval]\nbandwidth = {bandwidth}\n")
        out = tmp_path / "o"
        rc = main(["eval", "--method", "kernel",
                   "--train-data", make_data_csv(tmp_path / "train.csv", 40),
                   "--data", make_data_csv(tmp_path / "test.csv", 200, seed=1),
                   "--target", "y", "--config", conf, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {what} encountered in divide: input values or settings too "
            "large for float arithmetic"]
        assert not out.exists()
        assert pools == ([2] if threaded else [])

    @pytest.mark.parametrize("alpha", ["0", "1", "nan"])
    def test_kernel_alpha_checked_before_nw(self, pipeline, tmp_path, capsys,
                                            monkeypatch, alpha):
        calls = []
        monkeypatch.setattr(kernel, "nw_predict", lambda *a: calls.append(a))
        rc = main(["eval", "--method", "kernel", "--train-data", pipeline["train_csv"],
                   "--data", pipeline["test_csv"], "--target", "y",
                   "--alpha", alpha, "--out", str(tmp_path / "o")])
        assert rc == 1 and calls == []
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: alpha must lie strictly inside (0, 1)"]


class TestArtifactErrors:
    """A bad model or calibration record ends with an error: line and exit 1."""

    def _run(self, pipeline, tmp_path, command, model=None, calibration=None,
             alpha=None):
        argv = [command, "--model", model or pipeline["model"],
                "--data", pipeline["test_csv"], "--target", "y",
                "--calibration", calibration or pipeline["calibration"],
                "--out", str(tmp_path / "o")]
        if alpha is not None:
            argv += ["--alpha", str(alpha)]
        return main(argv)

    def _edited(self, src, dst, edit):
        with open(src) as fh:
            return write(dst, edit(fh.read()))

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_missing_model_file(self, pipeline, tmp_path, capsys, command):
        missing = str(tmp_path / "nope.qnet")
        assert self._run(pipeline, tmp_path, command, model=missing) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_missing_calibration_file(self, pipeline, tmp_path, capsys, command):
        missing = str(tmp_path / "nope.txt")
        assert self._run(pipeline, tmp_path, command, calibration=missing) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_calibration_without_qhat(self, pipeline, tmp_path, capsys, command):
        bad = self._edited(
            pipeline["calibration"], tmp_path / "cal.txt",
            lambda t: "".join(line for line in t.splitlines(True)
                              if not line.startswith("qhat=")))
        assert self._run(pipeline, tmp_path, command, calibration=bad) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and bad in err and "'qhat'" in err

    def test_model_without_grid(self, pipeline, tmp_path, capsys):
        def drop_grid(text):
            doc = json.loads(text)
            del doc["grid"]
            return json.dumps(doc)

        bad = self._edited(pipeline["model"], tmp_path / "m.qnet", drop_grid)
        assert self._run(pipeline, tmp_path, "predict", model=bad) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and bad in err and "'grid'" in err

    @pytest.mark.parametrize("field, shape, expected", [
        # layer_dims [1, 8, 3] give 43 parameters; 40 lack the output biases
        ("theta", [40], [43]),
        ("standardization.mean", [], [1]),  # would broadcast over the features
    ], ids=["output-bias", "feature-mean"])
    def test_model_array_shape_mismatch(self, pipeline, tmp_path, capsys,
                                        field, shape, expected):
        def reshape(text):
            doc = json.loads(text)
            {"theta": doc["theta"],
             "standardization.mean": doc["standardization"]["mean"],
             }[field].update(qnn._encode(np.ones(shape)))
            return json.dumps(doc)

        bad = self._edited(pipeline["model"], tmp_path / "m.qnet", reshape)
        assert self._run(pipeline, tmp_path, "eval", model=bad) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert bad in lines[0] and field in lines[0]
        assert f"{shape}" in lines[0] and f"{expected}" in lines[0]

    @pytest.mark.parametrize("field, value, complaint", [
        ("standardization.std", 0.0, "has a value <= 0"),  # divides by zero
        ("standardization.std", np.nan, "has a non-finite value"),
        ("theta", np.inf, "has a non-finite value"),  # theta[0] is the first weight
    ], ids=["std-zero", "std-nan", "weight-inf"])
    def test_model_array_values(self, pipeline, tmp_path, capsys, field, value,
                                complaint):
        def poison(text):
            doc = json.loads(text)
            encoded = {"theta": doc["theta"],
                       "standardization.std": doc["standardization"]["std"]}[field]
            a = qnn._decode(encoded, field, encoded["shape"])
            a.flat[0] = value  # the model has one feature: std is all `value`
            encoded.update(qnn._encode(a))
            return json.dumps(doc)

        bad = self._edited(pipeline["model"], tmp_path / "m.qnet", poison)
        assert self._run(pipeline, tmp_path, "eval", model=bad) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {bad}: malformed model: field {field} {complaint}"]

    @pytest.mark.parametrize("features", ["x", [1], None, ["x", None]],
                             ids=["bare-string", "number", "null", "null-name"])
    def test_model_features_not_strings(self, pipeline, tmp_path, capsys, features):
        def rename(text):
            doc = json.loads(text)
            doc["features"] = features
            return json.dumps(doc)

        bad = self._edited(pipeline["model"], tmp_path / "m.qnet", rename)
        assert self._run(pipeline, tmp_path, "eval", model=bad) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: malformed model: field features is not a list of strings"]

    def test_model_nan_penalty_weight(self, pipeline, tmp_path, capsys):
        def poison(text):
            doc = json.loads(text)
            doc["penalty_weight"] = math.nan  # json writes NaN, and reads it back
            return json.dumps(doc)

        bad = self._edited(pipeline["model"], tmp_path / "m.qnet", poison)
        assert self._run(pipeline, tmp_path, "eval", model=bad) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: malformed model: penalty_weight must be non-negative"]

    @pytest.mark.parametrize("command", ["calibrate", "predict", "eval"])
    def test_model_without_feature_names(self, pipeline, tmp_path, capsys, command):
        # trained through the library on a Dataset built without names
        grid = qnn.QuantileGrid([0.05, 0.5, 0.95])
        net = qnn.QuantileNetwork([1, 4, 3], grid=grid, seed=0)
        data = ingest_csv(pipeline["train_csv"], "y")
        qnn.train(net, qnn.Dataset(data.features, data.targets), grid,
                  qnn.TrainingConfig(epochs=1))
        model = str(tmp_path / "lib.qnet")
        qnn.save(net, model)
        argv = [command, "--model", model, "--data", pipeline["cal_csv"], "--target", "y",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {model}: the model names no feature columns; train it with "
            "the train command, or on a qnn.Dataset given names"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_model_v1_rejected(self, pipeline, tmp_path, capsys, command):
        # the previous layout: one array per weight and bias, and no names
        def downgrade(text):
            doc = json.loads(text)
            net = qnn.load(pipeline["model"])
            del doc["theta"], doc["features"]
            doc.update(format="qnet-v1", weights=[qnn._encode(W) for W in net.weights],
                       biases=[qnn._encode(b) for b in net.biases], embed=None)
            return json.dumps(doc)

        bad = self._edited(pipeline["model"], tmp_path / "m.qnet", downgrade)
        assert self._run(pipeline, tmp_path, command, model=bad) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: model format 'qnet-v1', not 'qnet-v2': retrain the model"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("record_alpha", ["0.1", "0.5"])
    def test_calibration_alpha_mismatch(self, pipeline, tmp_path, capsys, command,
                                        record_alpha):
        # a record at 0.1 used at alpha 0.5, and one at 0.5 used at alpha 0.1,
        # whose interval levels are on the model's grid
        cal = self._edited(pipeline["calibration"], tmp_path / "cal.txt",
                           lambda t: t.replace("alpha=0.1", f"alpha={record_alpha}"))
        alpha = 0.5 if record_alpha == "0.1" else 0.1
        assert self._run(pipeline, tmp_path, command, calibration=cal,
                         alpha=alpha) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "0.1" in err and "0.5" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("taus, alpha, message", [
        ("0.3", "0.1", "level 0.3 not on the grid"),
        # an off-grid level is reported before a bad alpha, and a bad alpha
        # before its off-grid interval levels
        ("0.3", "1.5", "level 0.3 not on the grid"),
        ("0.5", "1.5", "alpha must lie strictly inside (0, 1)"),
        ("0.5", "3.0", "alpha must lie strictly inside (0, 1)"),
        ("0.5", "0.3", "level 0.15 not on the grid"),
    ])
    def test_predict_level_errors(self, pipeline, tmp_path, capsys, taus, alpha,
                                  message):
        cal = self._edited(pipeline["calibration"], tmp_path / "cal.txt",
                           lambda t: t.replace("alpha=0.1", f"alpha={alpha}"))
        rc = main(["predict", "--model", pipeline["model"], "--data", pipeline["test_csv"],
                   "--target", "y", "--calibration", cal, "--alpha", alpha,
                   "--taus", taus, "--out", str(tmp_path / "o")])
        assert rc == 1
        suffix = "; available: [0.05, 0.5, 0.95]" if message.startswith("level") else ""
        assert capsys.readouterr().err.splitlines() == [f"error: {message}{suffix}"]
        assert not (tmp_path / "o").exists()


class TestDemoCommand:
    def test_normal_normal_demo(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "normal-normal", "--out", str(out)]) == 0
        assert (out / "report.txt").exists()
        assert (out / "demo_meta.json").exists()

    def test_demo_deterministic(self, tmp_path):
        conf = write(tmp_path / "c.ini",
                     "[demo]\nefron_n = 51\nefron_replications = 500\n"
                     "sweep_replications = 500\noracle_replications = 2000\n")
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["demo", "efron", "--config", conf,
                         "--out", str(out)]) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_demo_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["demo", "normal-normal", "--out", str(a)]) == 0
        assert main(["demo", "normal-normal", "--seed", "5",
                     "--out", str(b)]) == 0
        assert ((a / "report.txt").read_text()
                != (b / "report.txt").read_text())


    @pytest.mark.parametrize("which, text", [
        ("normal-normal", "n = 0"),
        ("efron", "efron_n = 1"),
        ("coverage", "dgp = nope"),
    ])
    def test_rejected_setting_creates_nothing(self, tmp_path, capsys, which, text):
        conf = write(tmp_path / "c.ini", f"[demo]\n{text}\n")
        assert main(["demo", which, "--config", conf, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()


    def test_coverage_epochs_checked_before_any_worker(self, tmp_path, capsys,
                                                       monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a replication started")

        monkeypatch.setattr(experiments, "parallel_map", never)
        conf = write(tmp_path / "c.ini", "[demo]\nepochs = 0\n")
        assert main(["demo", "coverage", "--config", conf, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: epochs must be at least 1"]
        assert not (tmp_path / "o").exists()

    def test_coverage_fails_when_every_replication_fails(self, tmp_path, capsys,
                                                         monkeypatch):
        # module level, so the forked workers can unpickle it by name
        monkeypatch.setattr(experiments, "_replication", _failed_replication)
        conf = write(tmp_path / "c.ini", "[demo]\nreplications = 2\n")
        assert main(["demo", "coverage", "--config", conf, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: all 2 replications failed to train"]
        assert not (tmp_path / "o").exists()


class TestColdStart:
    def test_pipeline_commands_never_import_scipy(self, tmp_path):
        # a fresh process, since this one may already hold scipy
        for name, seed in (("train", 1), ("cal", 2), ("test", 3)):
            make_data_csv(tmp_path / f"{name}.csv", 300, seed=seed)
        write(tmp_path / "c.ini", "[train]\nepochs = 2\nhidden = 4\n")
        script = """
import sys
from quantpred import cli
steps = [
    ["train", "--data", "train.csv", "--config", "c.ini"],
    ["calibrate", "--model", "o/model.qnet", "--data", "cal.csv"],
    ["predict", "--model", "o/model.qnet", "--data", "test.csv",
     "--calibration", "o/calibration.txt"],
    ["eval", "--model", "o/model.qnet", "--data", "test.csv",
     "--calibration", "o/calibration.txt"],
    ["eval", "--method", "kernel", "--train-data", "train.csv", "--data", "test.csv"],
]
for argv in steps:
    assert cli.main(argv + ["--target", "y", "--out", "o"]) == 0, argv
    assert "scipy" not in sys.modules, argv
assert cli.main(["demo", "normal-normal", "--out", "nn"]) == 0
assert "scipy.special" in sys.modules
"""
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

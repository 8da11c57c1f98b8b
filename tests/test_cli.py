"""Tests for the command-line surface: csv ingestion with structured
errors, config parsing, the train/calibrate/predict/eval pipeline, and
demo reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import quantpred
from quantpred import cli, conformal, qnn
from quantpred.cli import (
    CLIError,
    ingest_csv,
    ingest_features,
    load_config,
    main,
)
from quantpred.numerics import RandomSource

SRC = os.path.dirname(os.path.dirname(quantpred.__file__))


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
        assert ds.feature_names == ("a", "b")
        assert ds.features.tolist() == [[1.0, 2.0], [4.0, 5.0]]
        assert ds.targets.tolist() == [3.0, 6.0]

    def test_target_in_middle(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,y,b\n1,2,3\n")
        ds = ingest_csv(p, "y")
        assert ds.feature_names == ("a", "b")
        assert ds.targets.tolist() == [2.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CLIError, match="file not found"):
            ingest_csv(str(tmp_path / "nope.csv"), "y")

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "d.csv", "")
        with pytest.raises(CLIError, match="empty file"):
            ingest_csv(p, "y")

    def test_header_only(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n")
        with pytest.raises(CLIError, match="no data rows"):
            ingest_csv(p, "y")

    def test_missing_target_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(CLIError, match="no column named 'y'"):
            ingest_csv(p, "y")

    def test_blank_cell_names_row_and_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,2\n,4\n")
        with pytest.raises(CLIError, match=r"d\.csv:3: column 'x'"):
            ingest_csv(p, "y")

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,hello\n")
        with pytest.raises(CLIError, match="column 'y': non-numeric cell 'hello'"):
            ingest_csv(p, "y")

    def test_non_finite_cell(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,inf\n")
        with pytest.raises(CLIError, match="non-finite"):
            ingest_csv(p, "y")

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,2,3\n")
        with pytest.raises(CLIError, match="expected 2 cells, got 3"):
            ingest_csv(p, "y")

    def test_malformed_header(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,,y\n1,2,3\n")
        with pytest.raises(CLIError, match="malformed header"):
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
        with pytest.raises(CLIError, match=r"unknown config section \[serve\]"):
            load_config(p)

    @pytest.mark.parametrize("section, key", [
        ("train", "momentum"), ("calibrate", "split"), ("calibrate", "seed"),
        ("eval", "seed"),
    ])
    def test_unknown_key_rejected(self, tmp_path, section, key):
        p = write(tmp_path / "c.ini", f"[{section}]\n{key} = 0.9\n")
        with pytest.raises(CLIError, match=f"unknown key '{key}'"):
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
        with pytest.raises(CLIError, match="config file not found"):
            load_config(str(tmp_path / "nope.ini"))

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

    def test_predict_feature_mismatch(self, pipeline, tmp_path, capsys):
        bad = write(tmp_path / "bad.csv", "a,b,c\n1,2,3\n")
        rc = main(["predict", "--model", pipeline["model"], "--data", bad,
                   "--out", str(tmp_path / "p")])
        assert rc == 1
        assert "expects 1 features" in capsys.readouterr().err

    def test_train_deterministic(self, pipeline, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--data", pipeline["train_csv"],
                         "--target", "y", "--config", pipeline["conf"],
                         "--out", str(out)]) == 0
        for name in ("model.qnet", "train_report.csv", "loss_trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestErrorSurface:
    def test_missing_data_file_exit_code(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"),
                   "--target", "y", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "file not found" in err

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

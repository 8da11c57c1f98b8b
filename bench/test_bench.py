"""Self-tests for the benchmark's own code.

    python3 -m pytest bench -q
"""

import itertools
import json
import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def test_self_times_on_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    own = self_times(parent, end - start)
    np.testing.assert_allclose(own, [10 - 3 - 4, 3 - 1, 1, 4])


def _ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_wrappers_record_nested_spans_rows_and_percentile_threshold():
    tracer = Tracer(clock=_ticking_clock())
    inner = tracer.wrap(lambda x: x, "m.inner", rows=lambda a, r: len(a[0]))
    outer = tracer.wrap(lambda: [inner([1, 2]), inner([3])], "m.outer")
    for _ in range(2):  # two repetitions
        outer()
    m, not_reported = layer_metrics(tracer, reps=2)
    assert m["m.inner.calls"] == 2 and m["m.outer.calls"] == 1
    assert m["m.inner.rows"] == 3
    # each clock read is one tick: inner spans last 1, outer lasts 5
    assert m["m.inner.s"] == 2 and m["m.outer.s"] == 5
    assert m["m.outer.self_s"] == 3
    assert set(not_reported) == {f"m.{f}.p{q}_us" for f in ("inner", "outer")
                                 for q in (50, 99)}


def test_missing_names_are_absent_and_restore_unwraps():
    from quantpred import cli, conformal, kernel, qnn

    modules = {"cli": cli, "qnn": qnn, "kernel": kernel, "conformal": conformal}
    original = qnn.predict_interval
    tracer = Tracer()
    tracer.install({**modules, "kernel": types.SimpleNamespace()})
    try:
        assert qnn.predict_interval is not original
        assert qnn.predict_interval.__wrapped__ is original
    finally:
        tracer.restore()
    assert qnn.predict_interval is original
    metrics, _ = layer_metrics(tracer, reps=1)
    assert "qnn.predict_interval.calls" in metrics
    assert not any(k.startswith("kernel.nw_estimate") for k in metrics)


def test_every_per_layer_metric_of_the_spec_is_computed():
    tracer = Tracer(clock=_ticking_clock())
    for span, _, _, rows in tracing.SPANS:
        tracer.wrap(lambda *a: None, span)()
    tracer.counted.update(c for c, _, _ in tracing.CONSTRUCTIONS)
    metrics, _ = layer_metrics(tracer, reps=1)
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_deterministic_per_seed(tmp_path, name):
    prepare = workloads.WORKLOADS[name].prepare
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        prepare(str(d), seed)

    def contents(d):
        return {f: (d / f).read_bytes() for f in sorted(os.listdir(d))}
    assert contents(dirs[0]) == contents(dirs[1])
    if any(f.endswith(".csv") for f in os.listdir(dirs[0])):
        assert contents(dirs[0]) != contents(dirs[2])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

PRED_HEADER = "row,q0.05,q0.5,q0.95,lower,upper\n"
PRED_ROWS = ["0,-1.0,0.0,1.0,-1.5,1.5\n", "1,-2.0,0.0,2.0,-2.5,2.5\n",
             "2,0.5,1.0,1.5,0.0,2.0\n"]


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_predictions_check_accepts_valid_and_rejects_corruptions(tmp_path):
    ok = _write(tmp_path / "ok.csv", PRED_HEADER + "".join(PRED_ROWS))
    assert workloads.check_predictions(ok, 3) == []
    truncated = _write(tmp_path / "t.csv", PRED_HEADER + "".join(PRED_ROWS[:2]))
    assert workloads.check_predictions(truncated, 3)
    cut_mid_row = _write(tmp_path / "m.csv", PRED_HEADER + "".join(PRED_ROWS)[:-9])
    assert workloads.check_predictions(cut_mid_row, 3)
    crossing = _write(tmp_path / "c.csv",
                      PRED_HEADER + "0,1.0,0.0,2.0,-1.5,2.5\n" + "".join(PRED_ROWS[1:]))
    assert workloads.check_predictions(crossing, 3)
    inverted = _write(tmp_path / "i.csv",
                      PRED_HEADER + "0,-1.0,0.0,1.0,1.5,-1.5\n" + "".join(PRED_ROWS[1:]))
    assert workloads.check_predictions(inverted, 3)
    uncalibrated = _write(tmp_path / "u.csv", "row,q0.05,q0.5\n0,1.0,2.0\n")
    assert workloads.check_predictions(uncalibrated, 1)
    assert workloads.check_predictions(str(tmp_path / "missing.csv"), 3)


def _eval(tmp_path, coverage, width=1.0):
    return _write(tmp_path / "eval.csv",
                  f"method,alpha,coverage,mean_width\nqnn,0.1,{coverage},{width}\n")


def test_eval_coverage_check_uses_the_finite_sample_band(tmp_path):
    # n_test 10000: se = 0.003, so 5 se below the band is 0.885
    check = workloads.check_eval_coverage
    assert check(_eval(tmp_path, 0.9005), 0.1, 10_000, 10_000) == []
    assert check(_eval(tmp_path, 0.886), 0.1, 10_000, 10_000) == []
    assert check(_eval(tmp_path, 0.884), 0.1, 10_000, 10_000)
    assert check(_eval(tmp_path, 0.917), 0.1, 10_000, 10_000)
    assert check(_eval(tmp_path, 0.9, width=0.0), 0.1, 10_000, 10_000)
    assert check(_write(tmp_path / "e.csv", "method,alpha\n"), 0.1, 10_000, 10_000)


def test_nw_eval_check(tmp_path):
    assert workloads.check_nw_eval(_eval(tmp_path, 0.88)) == []
    assert workloads.check_nw_eval(_eval(tmp_path, 0.79))
    assert workloads.check_nw_eval(_eval(tmp_path, 0.9, width="nan"))
    assert workloads.check_nw_eval(_eval(tmp_path, 0.9, width=-1.0))


def _bench(tmp_path, cqr_coverage, se=0.004, methods=("qnn", "cqr", "nw")):
    rows = "".join(f"{m},{cqr_coverage if m == 'cqr' else 0.85},{se},1.0,0.01\n"
                   for m in methods)
    return _write(tmp_path / "coverage_bench.csv",
                  "method,coverage,coverage_se,mean_width,width_se\n" + rows)


def test_coverage_bench_check(tmp_path):
    check = workloads.check_coverage_bench
    assert check(_bench(tmp_path, 0.905), 0.1, 500) == []
    assert check(_bench(tmp_path, 0.885), 0.1, 500) == []   # 3.75 se below
    assert check(_bench(tmp_path, 0.88), 0.1, 500)          # 5 se below
    assert check(_bench(tmp_path, 0.93), 0.1, 500)
    assert check(_bench(tmp_path, 0.9, methods=("qnn", "cqr")), 0.1, 500)


# ---------------------------------------------------------------------------
# The measured loop
# ---------------------------------------------------------------------------

def test_loop_counts_failed_exits_and_nondeterministic_outputs(tmp_path, monkeypatch):
    import worker

    calls = itertools.count()

    def fake_cli(argv):
        n = next(calls)
        out = tmp_path / "out"
        (out / "a.txt").write_text("same")
        (out / "b.txt").write_text("first" if n == 1 else "later")
        return (1, "exit status 1") if n == 4 else (0, None)
    monkeypatch.setattr(worker, "_call_cli", fake_cli)
    wl = workloads.Workload(
        "fake", None,
        lambda work, seed: [workloads.Step("a", (), ("a.txt",)),
                            workloads.Step("b", (), ("b.txt",),
                                           lambda d: [] if os.listdir(d) else ["x"])],
        units_per_rep=2)
    res = worker.run_loop(wl, str(tmp_path), seed=0, seconds=0.05)
    reps = len(res["rep_s"])
    assert reps >= 3 and res["attempted"] == 2 * reps
    # call 4 (rep 2, step a) exits 1; step b differs from rep 0 from rep 1 on
    assert res["failed"] == 1 + (reps - 1)
    assert res["problems"][0].startswith("rep 1 b: b.txt differs")

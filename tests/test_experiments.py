"""Tests for the experiment harnesses: efficiency ratios, the conjugate
demo with its plot-data files, and the coverage benchmark."""

import concurrent.futures
import os
import warnings

import numpy as np
import pytest

from quantpred import analytic, experiments, qnn
from quantpred.experiments import (
    BenchRow,
    CoverageBenchConfig,
    EfronConfig,
    efron_estimation_ratio,
    efron_prediction_ratio,
    efron_prediction_sweep,
    median_variance_factor,
    run_coverage_bench,
    run_normal_normal_demo,
    write_coverage_report,
    write_efron_report,
)
from quantpred.numerics import DomainError, RandomSource


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestEfronConfig:
    def test_rejects_tiny_n(self):
        with pytest.raises(DomainError):
            EfronConfig(n=1)

    def test_rejects_zero_replications(self):
        with pytest.raises(DomainError):
            EfronConfig(m_replications=0)


class TestEstimationRatio:
    def test_ratio_near_asymptote(self):
        res = efron_estimation_ratio(EfronConfig(n=101, m_replications=4000))
        assert res.se > 0
        # the large-n limit is pi/2; n=101 sits close to it
        assert abs(res.ratio - np.pi / 2) < 6 * res.se + 0.02

    def test_deterministic(self):
        cfg = EfronConfig(n=51, m_replications=1000, seed=7)
        assert efron_estimation_ratio(cfg) == efron_estimation_ratio(cfg)

    def test_se_shrinks_with_replications(self):
        small = efron_estimation_ratio(EfronConfig(n=51, m_replications=500))
        large = efron_estimation_ratio(EfronConfig(n=51, m_replications=8000))
        assert large.se < small.se


def whole_matrix_stats(stream, config):
    """The per-replication medians and means, and the next draw of m
    normals, with the m x n matrix drawn at once."""
    rng = RandomSource(config.seed).stream(stream)
    draws = rng.standard_normal((config.m_replications, config.n))
    x_new = rng.standard_normal(config.m_replications)
    return np.median(draws, axis=1), draws.mean(axis=1), x_new


class TestChunkedDraws:
    CONFIG = EfronConfig(n=11, m_replications=50, seed=3)

    def test_chunks_hold_whole_rows_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(experiments, "_DRAW_CHUNK", 7 * 11 + 3)
        rng = RandomSource(0).stream("chunks")
        shapes = [d.shape for d in experiments._normal_rows(rng, 50, 11)]
        assert shapes == [(7, 11)] * 7 + [(1, 11)]
        # a row longer than the cap is one chunk
        monkeypatch.setattr(experiments, "_DRAW_CHUNK", 5)
        assert [d.shape for d in experiments._normal_rows(rng, 2, 11)] == [(1, 11)] * 2

    @pytest.mark.parametrize("cap", [7 * 11, 11, 10_000_000])
    def test_ratios_match_whole_matrix(self, monkeypatch, cap):
        monkeypatch.setattr(experiments, "_DRAW_CHUNK", cap)
        med, mean, _ = whole_matrix_stats("efron-estimation", self.CONFIG)
        assert efron_estimation_ratio(self.CONFIG) == experiments._ratio_with_se(
            med ** 2, mean ** 2)
        med, mean, x_new = whole_matrix_stats("efron-prediction", self.CONFIG)
        mc = experiments._ratio_with_se((med - x_new) ** 2, (mean - x_new) ** 2)
        res = efron_prediction_ratio(self.CONFIG, oracle_replications=40)
        assert (res.ratio, res.se) == (mc.ratio, mc.se)


class TestMedianVarianceOracle:
    def test_n_one_is_unit_variance(self):
        v, se = median_variance_factor(1, replications=40_000)
        assert abs(v - 1.0) < 4 * se

    def test_odd_n_matches_large_sample_scaling(self):
        # Var(median) ~ (pi/2)/n for large odd n
        n = 201
        v, se = median_variance_factor(n, replications=40_000)
        assert abs(v - (np.pi / 2) / n) < 4 * se + 5e-4


class TestPredictionRatio:
    def test_mc_agrees_with_closed_form(self):
        res = efron_prediction_ratio(
            EfronConfig(n=11, m_replications=20_000),
            oracle_replications=50_000)
        combined = np.hypot(res.se, res.closed_form_se)
        assert abs(res.ratio - res.closed_form) < 3 * combined

    def test_ratio_approaches_one_for_large_n(self):
        res = efron_prediction_ratio(
            EfronConfig(n=1001, m_replications=5000),
            oracle_replications=20_000)
        assert abs(res.ratio - 1.0) < 0.02

    def test_sweep_shape_and_determinism(self):
        grid = (5, 11)
        a = efron_prediction_sweep(grid, m_replications=2000,
                                   oracle_replications=5000)
        b = efron_prediction_sweep(grid, m_replications=2000,
                                   oracle_replications=5000)
        assert [n for n, _ in a] == list(grid)
        assert a == b


class TestNormalNormalDemo:
    def test_default_seed_report(self):
        rep = run_normal_normal_demo()
        assert 3.2 <= rep["y_bar"] <= 3.5
        assert 3.14 <= rep["mu_star"] <= 3.43
        assert rep["sigma2_star"] == 50.0 / 510.0
        assert rep["sigma2_star_discrepancy_flag"] is True
        assert rep["distortion_identity_max_error"] <= 1e-10

    def test_report_files_written(self, tmp_path):
        out = tmp_path / "demo"
        run_normal_normal_demo(out_dir=str(out))
        for name in ("figure1_model.csv", "figure1_distortion.csv",
                     "figure1_survival.csv", "report.txt"):
            assert (out / name).exists()
        text = (out / "report.txt").read_text()
        assert "sigma2_star_discrepancy_flag=True" in text
        assert "NOT reproduced" in text

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_normal_normal_demo(out_dir=str(a))
        run_normal_normal_demo(out_dir=str(b))
        for name in sorted(os.listdir(a)):
            assert read_bytes(a / name) == read_bytes(b / name)

    def test_csv_floats_round_trip(self, tmp_path):
        out = tmp_path / "demo"
        run_normal_normal_demo(out_dir=str(out))
        lines = (out / "figure1_model.csv").read_text().splitlines()
        cells = lines[1].split(",")
        assert all(repr(float(c)) == c for c in cells)


class TestWriteCsv:
    def test_cell_formats(self, tmp_path):
        path = tmp_path / "t.csv"
        experiments.write_csv(path, ["s", "i", "f"],
                              [("a", 3, np.float64(0.1)), ("b", -1, 1e300 / 3)])
        assert path.read_text() == f"s,i,f\na,3,0.1\nb,-1,{1e300 / 3!r}\n"
        # numpy's floats and Python's alike, at the edges of repr's forms
        values = [-0.0, 0.0, 5e-324, 1e-300, 1e-05, 0.0001, 1.0, 1e16, 1e300]
        values += [-v for v in values[1:]]
        experiments.write_csv(path, ["numpy", "python"], [(np.float64(v), v) for v in values])
        assert path.read_text() == "numpy,python\n" + "".join(
            f"{repr(float(v))},{repr(float(v))}\n" for v in values)


class TestCoverageBenchConfig:
    def test_unknown_dgp_rejected(self):
        with pytest.raises(DomainError):
            CoverageBenchConfig(dgp="cauchy")

    def test_bad_alpha_rejected(self):
        with pytest.raises(DomainError):
            CoverageBenchConfig(alpha=1.0)

    def test_bad_sizes_rejected(self):
        with pytest.raises(DomainError):
            CoverageBenchConfig(n_cal=0)


SMALL_BENCH = CoverageBenchConfig(
    n_train=120, n_cal=80, n_test=80, replications=2, epochs=8,
)


class TestCoverageBench:
    def test_small_run_structure(self):
        res = run_coverage_bench(SMALL_BENCH)
        methods = {row.method for row in res.rows}
        assert methods == {"qnn", "cqr", "nw"}
        for row in res.rows:
            assert 0.0 <= row.coverage <= 1.0
            assert row.mean_width > 0
        assert set(res.probe_widths) == set(experiments.PROBE_POINTS)
        assert res.failures == 0

    def test_deterministic(self):
        a = run_coverage_bench(SMALL_BENCH)
        b = run_coverage_bench(SMALL_BENCH)
        assert a.rows == b.rows and a.probe_widths == b.probe_widths

    def test_homoscedastic_dgp_runs(self):
        cfg = CoverageBenchConfig(
            dgp="homoscedastic", n_train=100, n_cal=60, n_test=60,
            replications=1, epochs=5)
        res = run_coverage_bench(cfg)
        assert {row.method for row in res.rows} == {"qnn", "cqr", "nw"}


POOL_BENCH = CoverageBenchConfig(
    n_train=120, n_cal=80, n_test=80, replications=5, epochs=8,
)


def serial_reference(config):
    """The coverage bench as one serial loop over _replication, each
    statistic reduced from its own list: (rows, probe widths, failures)."""
    results = [experiments._replication(config, rep)
               for rep in range(config.replications)]
    done = [r for r in results if r is not None]
    rows = []
    for k, method in enumerate(("qnn", "cqr", "nw")):
        cc = np.asarray([r[2 * k] for r in done])
        ww = np.asarray([r[2 * k + 1] for r in done])
        rows.append(BenchRow(method, float(cc.mean()),
                             float(cc.std(ddof=1) / np.sqrt(cc.size)),
                             float(ww.mean()),
                             float(ww.std(ddof=1) / np.sqrt(ww.size))))
    probes = {x: float(np.mean([r[6 + j] for r in done]))
              for j, x in enumerate(experiments.PROBE_POINTS)}
    return rows, probes, len(results) - len(done)


def bench_tuple(config):
    res = run_coverage_bench(config)
    return res.rows, res.probe_widths, res.failures


@pytest.fixture
def two_cpus(monkeypatch):
    """Two available CPUs, and the sizes of the process pools made. Their
    workers start with every floating-point error ignored, as if the fork
    had not carried the caller's errstate."""
    pools = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            pools.append(workers)
            super().__init__(workers, initializer=np.seterr, initargs=("ignore",),
                             **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return pools


def sub_seed(config, rep):
    """The training seed replication rep draws first from its stream."""
    return int(RandomSource(config.seed).stream(f"coverage-rep-{rep}")
               .integers(0, 2 ** 63))


class TestCoverageBenchPool:
    def test_pool_equals_serial_loop(self, two_cpus):
        assert bench_tuple(POOL_BENCH) == serial_reference(POOL_BENCH)
        assert two_cpus == [2]

    def test_failed_replication_counted(self, two_cpus, monkeypatch):
        # forked workers inherit the patched train
        failing, real_train = sub_seed(POOL_BENCH, 2), qnn.train

        def train(net, data, grid, config):
            if config.seed == failing:
                raise qnn.TrainingError(1, 0, "injected")
            return real_train(net, data, grid, config)

        monkeypatch.setattr(qnn, "train", train)
        got = bench_tuple(POOL_BENCH)
        assert got[2] == 1
        assert got == serial_reference(POOL_BENCH)
        assert two_cpus == [2]

    def test_overflow_follows_callers_errstate(self, two_cpus, monkeypatch):
        real_train = qnn.train

        def train(net, data, grid, config):
            np.array([1e308]) * 10.0
            return real_train(net, data, grid, config)

        monkeypatch.setattr(qnn, "train", train)
        cfg = CoverageBenchConfig(n_train=120, n_cal=80, n_test=80,
                                  replications=2, epochs=8)
        with np.errstate(over="raise"):
            res = run_coverage_bench(cfg)
        assert (res.rows, res.failures) == ([], 2)
        with warnings.catch_warnings():  # the default errstate warns
            warnings.simplefilter("ignore", RuntimeWarning)
            res = run_coverage_bench(cfg)
        assert res.failures == 0 and len(res.rows) == 3
        assert two_cpus == [2, 2]

    def test_one_replication_runs_without_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was made for one replication")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = CoverageBenchConfig(n_train=100, n_cal=60, n_test=60,
                                  replications=1, epochs=5)
        res = run_coverage_bench(cfg)
        assert res.failures == 0 and len(res.rows) == 3


class TestReportWriters:
    def test_efron_report_files(self, tmp_path):
        out = tmp_path / "efron"
        est, sweep = write_efron_report(
            str(out), EfronConfig(n=51, m_replications=500),
            m_replications=500, oracle_replications=2000)
        body = (out / "efron_estimation.csv").read_text().splitlines()
        assert body[0] == "n,m_replications,ratio,se,asymptotic"
        assert float(body[1].split(",")[2]) == est.ratio
        rows = (out / "efron_prediction_sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + len(sweep)

    def test_coverage_report_files(self, tmp_path):
        out = tmp_path / "cov"
        res = write_coverage_report(str(out), SMALL_BENCH)
        body = (out / "coverage_bench.csv").read_text().splitlines()
        assert body[0] == "method,coverage,coverage_se,mean_width,width_se"
        assert len(body) == 1 + len(res.rows)
        probes = (out / "coverage_probe_widths.csv").read_text().splitlines()
        assert len(probes) == 1 + len(res.probe_widths)


class TestDemoAgainstClosedForm:
    def test_posterior_matches_direct_computation(self):
        rep = run_normal_normal_demo(seed=11)
        prior = analytic.NormalNormalModel(0.0, 5.0, 10.0)
        # reconstruct the posterior from the reported sufficient statistic
        t = prior.likelihood_variance + rep["n"] * prior.prior_variance
        mu_star = (prior.likelihood_variance * prior.prior_mean
                   + prior.prior_variance * rep["n"] * rep["y_bar"]) / t
        assert rep["mu_star"] == pytest.approx(mu_star, rel=1e-12)

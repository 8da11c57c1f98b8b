import concurrent.futures
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from quantpred import analytic, qnn
from quantpred.conformal import calibrate
from quantpred.numerics import (
    DomainError,
    EmpiricalDistribution,
    RandomSource,
    empirical_quantile,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    parallel_map,
)

# high-precision reference values (mpmath, 30 digits), frozen before the build
PHI_ORACLE = {
    -1.2: 0.11506967022170826802,
    0.3: 0.61791142218895263731,
    1.0: 0.84134474606854294859,
    1.959964: 0.9750000009035575957,
    2.5: 0.99379033467422386483,
}
Z_975 = 1.9599639845400542355


class TestNormalCdf:
    def test_standard_median(self):
        assert normal_cdf(0.0, 0.0, 1.0) == 0.5

    def test_location_scale_symmetry(self):
        for mu, sigma in [(-3.0, 0.5), (10.0, 7.0), (0.0, 1e-3)]:
            assert normal_cdf(mu, mu, sigma) == 0.5

    def test_against_frozen_oracle(self):
        for x, expected in PHI_ORACLE.items():
            assert abs(normal_cdf(x) - expected) < 1e-12

    def test_monotone(self):
        xs = np.linspace(-8, 8, 400)
        assert np.all(np.diff(normal_cdf(xs)) >= 0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            normal_cdf(0.0, 0.0, 0.0)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_derived_975(self):
        assert abs(normal_quantile(0.975) - Z_975) < 1e-10

    def test_round_trip(self):
        for x in range(-3, 4):
            assert abs(normal_quantile(normal_cdf(float(x))) - x) < 1e-8

    def test_round_trip_wide(self):
        xs = np.linspace(-6, 6, 101)
        back = normal_quantile(normal_cdf(xs))
        assert np.max(np.abs(back - xs)) < 1e-8

    def test_inverse_identity(self):
        ps = np.linspace(0.001, 0.999, 200)
        assert np.max(np.abs(normal_cdf(normal_quantile(ps)) - ps)) < 1e-10

    def test_lower_tail_relative_round_trip(self):
        ps = np.logspace(-300, -1)
        assert np.max(np.abs(normal_cdf(normal_quantile(ps)) / ps - 1.0)) < 1e-12

    def test_strictly_increasing(self):
        ps = np.linspace(1e-6, 1 - 1e-6, 500)
        assert np.all(np.diff(normal_quantile(ps)) > 0)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_rejects_boundary(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)


class TestScipyIdentity:
    """normal_cdf and normal_quantile import scipy on first use; the values
    are still scipy's own, bit for bit."""

    XS = np.concatenate([np.linspace(-40.0, 40.0, 801), [-1e300, -5e-324, 0.0, 5e-324, 1e300]])
    PS = np.concatenate([np.logspace(-300, -1, 300), np.linspace(0.001, 0.999, 999),
                         1.0 - np.logspace(-16, -1, 100)])

    def test_cdf_is_erfc(self):
        from scipy.special import erfc

        expected = 0.5 * erfc(-self.XS / np.sqrt(2.0))
        assert np.array_equal(normal_cdf(self.XS), expected)
        assert all(normal_cdf(float(x)) == e for x, e in zip(self.XS, expected))

    def test_quantile_is_ndtri(self):
        from scipy.special import ndtri

        expected = ndtri(self.PS)
        assert np.array_equal(normal_quantile(self.PS), expected)
        assert all(normal_quantile(float(p)) == e for p, e in zip(self.PS, expected))


NAN = float("nan")


# each check is written so that NaN fails it, as the messages say of it
@pytest.mark.parametrize("make, message", [
    (lambda: normal_quantile(NAN), "p must lie strictly inside (0, 1)"),
    (lambda: normal_quantile(0.5, sigma=NAN), "sigma must be positive, got nan"),
    (lambda: normal_cdf(0.0, sigma=NAN), "sigma must be positive, got nan"),
    (lambda: normal_pdf(0.0, sigma=NAN), "sigma must be positive, got nan"),
    (lambda: analytic.NormalNormalModel(0.0, NAN, 1.0), "prior_variance must be positive"),
    (lambda: analytic.NormalNormalModel(0.0, 1.0, NAN),
     "likelihood_variance must be positive"),
    (lambda: analytic.WangDistortion(NAN, 0.0), "lambda1 must be positive"),
    (lambda: qnn.TrainingConfig(learning_rate=NAN), "learning_rate must be positive"),
    (lambda: qnn.TrainingConfig(huber_kappa=NAN), "huber_kappa must be non-negative"),
    (lambda: qnn.QuantileNetwork([1, 4, 1], grid=qnn.QuantileGrid([0.5]),
                                 penalty_weight=NAN), "penalty_weight must be non-negative"),
], ids=["quantile-p", "quantile-sigma", "cdf-sigma", "pdf-sigma", "prior-variance",
        "likelihood-variance", "lambda1", "learning-rate", "huber-kappa", "penalty-weight"])
def test_range_checks_reject_nan(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


class TestEmpiricalQuantile:
    def test_middle_order_statistic(self):
        d = EmpiricalDistribution.from_samples([1, 2, 3])
        assert empirical_quantile(d, 0.5) == 2

    def test_maximum(self):
        d = EmpiricalDistribution.from_samples([1, 2, 3, 4])
        assert empirical_quantile(d, 1.0) == 4

    def test_single_atom(self):
        d = EmpiricalDistribution.from_samples([5.0])
        for tau in (0.01, 0.5, 1.0):
            assert empirical_quantile(d, tau) == 5.0

    def test_monotone_in_tau_values_in_sample(self):
        rng = RandomSource(7).stream("test")
        samples = rng.standard_normal(40)
        d = EmpiricalDistribution.from_samples(samples)
        taus = np.linspace(0.01, 1.0, 97)
        q = [empirical_quantile(d, t) for t in taus]
        assert np.all(np.diff(q) >= 0)
        assert all(v in samples for v in q)

    def test_quantile_of_cdf_recovers_sample(self):
        # Y = Q_Y(F_Y(Y)) exactly, ties included
        rng = RandomSource(13).stream("test")
        samples = np.round(rng.standard_normal(60), 1)  # force ties
        d = EmpiricalDistribution.from_samples(samples)
        for y in samples:
            assert empirical_quantile(d, d.cdf(y)) == y

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            EmpiricalDistribution.from_samples([])


class TestConformalQuantile:
    def test_hundred_scores(self):
        assert calibrate(np.arange(1, 101), 0.1).qhat == 91

    def test_single_score(self):
        assert calibrate([7.0], 0.5).qhat == 7.0

    def test_full_coverage_clamps_to_max(self):
        assert calibrate([1, 2, 3], 0.0).qhat == 3

    def test_small_alpha_clamps(self):
        # (1-alpha)(1+1/n) > 1 -> max score
        assert calibrate([5, 1, 9], 0.01).qhat == 9

    def test_order_statistic(self):
        scores = [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        # ceil(0.8 * 10) = 8 -> 8th smallest
        assert calibrate(scores, 0.2).qhat == sorted(scores)[7]

    def test_ties_kept(self):
        assert calibrate([1.0, 1.0, 1.0, 2.0], 0.5).qhat == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            calibrate([], 0.1)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan"), float("inf")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(DomainError, match="alpha"):
            calibrate([1.0, 2.0], alpha)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(99).stream("x").standard_normal(10)
        b = RandomSource(99).stream("x").standard_normal(10)
        assert np.array_equal(a, b)

    def test_named_streams_independent(self):
        a = RandomSource(99).stream("train").standard_normal(10)
        b = RandomSource(99).stream("calibration").standard_normal(10)
        assert not np.array_equal(a, b)

    def test_rejects_bad_seed(self):
        with pytest.raises(DomainError):
            RandomSource(-1)


def square_and_pid(x):
    """x squared and the process that squared it, after a wait that is
    longer for earlier items, so later ones tend to finish first."""
    time.sleep(0.002 * (10 - x % 10))
    return x * x, os.getpid()


def no_pool(*args, **kwargs):
    raise AssertionError("a pool was made")


class TestParallelMap:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def test_order_with_more_items_than_cpus_on_threads(self):
        threads = set()

        def job(x):
            threads.add(threading.get_ident())
            return square_and_pid(x)[0]

        assert parallel_map(job, range(25)) == [x * x for x in range(25)]
        assert threading.get_ident() not in threads and len(threads) <= 2

    def test_order_with_more_items_than_cpus_in_processes(self):
        got = parallel_map(square_and_pid, range(25), processes=True)
        assert [q for q, _ in got] == [x * x for x in range(25)]
        pids = {pid for _, pid in got}
        assert os.getpid() not in pids and len(pids) <= 2

    def test_serial_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        for processes in (False, True):
            assert parallel_map(lambda x: (x, threading.get_ident()), [3, 1, 2],
                                processes) == [(x, threading.get_ident()) for x in (3, 1, 2)]

    def test_processes_serial_without_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        # a lambda would not pickle, so a pool would fail even unpatched
        got = parallel_map(lambda x: (x, os.getpid()), range(5), processes=True)
        assert got == [(x, os.getpid()) for x in range(5)]

    @pytest.mark.parametrize("processes", [False, True])
    def test_no_items(self, monkeypatch, processes):
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert parallel_map(no_pool, [], processes) == []

    def test_threads_run_under_callers_errstate(self):
        def job(x):
            return np.float64(1.0) / np.float64(x)

        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError, match="divide by zero"):
                parallel_map(job, [1.0, 0.0])
        with np.errstate(divide="ignore"):
            assert parallel_map(job, [2.0, 0.0]) == [0.5, np.inf]

import concurrent.futures
import itertools
import os
import sys
import warnings

import numpy as np
import pytest

from quantpred import kernel
from quantpred.kernel import KernelConfig, nw_estimate, nw_predict
from quantpred.numerics import DomainError, RandomSource
from quantpred.qnn import Dataset


def make_train(seed=0, n=30, d=2):
    rng = RandomSource(seed).stream("kern")
    return Dataset(rng.standard_normal((n, d)), rng.standard_normal(n))


class TestGaussianKernel:
    def test_bad_bandwidth(self):
        for bandwidth in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                KernelConfig(bandwidth)


class TestNWEstimate:
    def test_single_training_point(self):
        train = Dataset([[0.5, 0.5]], [4.2])
        cfg = KernelConfig(1.0)
        assert nw_estimate(train, [0.5, 0.5], cfg) == 4.2
        with pytest.warns(RuntimeWarning, match="all kernel weights underflowed"):
            assert nw_estimate(train, [100.0, -7.0], cfg) == 4.2

    def test_flat_limit_is_mean(self):
        train = make_train(3)
        got = nw_estimate(train, [0.1, -0.2], KernelConfig(1e6))
        assert abs(got - train.targets.mean()) < 1e-6

    def test_sharp_limit_is_nearest_neighbor(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([10.0, 20.0, 30.0])
        train = Dataset(X, y)
        with pytest.warns(RuntimeWarning):
            assert nw_estimate(train, [0.9], KernelConfig(1e-3)) == 20.0

    def test_convex_combination(self):
        train = make_train(4)
        cfg = KernelConfig(0.8)
        rng = RandomSource(5).stream("query")
        for _ in range(20):
            v = nw_estimate(train, rng.standard_normal(2), cfg)
            assert train.targets.min() <= v <= train.targets.max()

    def test_permutation_invariance(self):
        train = make_train(7, n=15)
        cfg = KernelConfig(0.9)
        perm = RandomSource(8).stream("perm").permutation(15)
        shuffled = Dataset(train.features[perm], train.targets[perm])
        q = [0.2, -0.4]
        assert nw_estimate(train, q, cfg) == pytest.approx(
            nw_estimate(shuffled, q, cfg), rel=1e-12)

    def test_duplicate_pulls_estimate_toward_target(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 10.0])
        cfg = KernelConfig(1.0)
        base = nw_estimate(Dataset(X, y), [0.5], cfg)
        dup = nw_estimate(Dataset(np.vstack([X, [[1.0]]]),
                                  np.append(y, 10.0)), [0.5], cfg)
        assert dup > base

    def test_empty_training_rejected(self):
        train = Dataset(np.empty((0, 1)), np.empty(0))
        with pytest.raises(DomainError):
            nw_estimate(train, [0.0], KernelConfig(1.0))


def reference_nw(train, x, config):
    """One query at a time, unshifted weights: sum(y K) / sum(K), in long
    double where the platform has it."""
    diff = train.features.astype(np.longdouble) - np.asarray(x, dtype=np.longdouble)
    k = np.exp(-np.einsum("ij,ij->i", diff, diff) / (2 * np.longdouble(config.bandwidth) ** 2))
    return float(np.dot(k, train.targets.astype(np.longdouble)) / k.sum())


class TestNWPredict:
    @pytest.mark.parametrize("n, m", [(30, 5000), (kernel._BLOCK + 7, 3)])
    def test_matches_per_query_reference(self, n, m):
        # (30, 5000): queries span several blocks; (BLOCK + 7, 3): the
        # training set outgrows one block, so each block holds one query.
        # Targets in (1, 2) keep estimates away from 0, where a relative
        # error means nothing.
        rng = RandomSource(11).stream("nw-reference")
        train = Dataset(rng.uniform(-2, 2, (n, 2)), rng.uniform(1, 2, n))
        Xq = rng.uniform(-2, 2, (m, 2))
        cfg = KernelConfig(0.5)
        ref = np.array([reference_nw(train, x, cfg) for x in Xq])
        got = nw_predict(train, Xq, cfg)
        assert got.shape == (m,)
        assert np.max(np.abs(got - ref) / ref) < 1e-12

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    @pytest.mark.parametrize("bandwidth", [0.15, 0.3, 2.0])
    def test_expanded_square_matches_reference(self, offset, bandwidth):
        # the benchmark's 4 columns, at its bandwidth (0.3) and on both sides
        # of it; squared distances expanded as ||q||^2 - 2 q.x + ||x||^2 lose
        # eps (||x|| / sigma)^2 unless the features are centered, which the
        # 1e4 offset would show. No query's reference weights all underflow.
        rng = RandomSource(13).stream("nw-expanded")
        train = Dataset(rng.uniform(-2, 2, (2000, 4)) + offset, rng.uniform(1, 2, 2000))
        Xq = rng.uniform(-2, 2, (500, 4)) + offset
        cfg = KernelConfig(bandwidth)
        ref = np.array([reference_nw(train, x, cfg) for x in Xq])
        assert np.max(np.abs(nw_predict(train, Xq, cfg) - ref) / ref) < 1e-12

    def test_sharp_limit_in_four_columns(self):
        # grid points 1 apart and queries within 0.3 of one in each column:
        # the nearest point wins by a squared distance of at least 0.4, far
        # beyond the matmul's rounding, and every other weight is exactly 0
        grid = np.array(list(itertools.product(range(-2, 3), repeat=4)), dtype=float)
        rng = RandomSource(14).stream("nw-sharp")
        train = Dataset(grid, rng.standard_normal(len(grid)))
        nearest = rng.integers(0, len(grid), 300)
        Xq = grid[nearest] + rng.uniform(-0.3, 0.3, (300, 4))
        with pytest.warns(RuntimeWarning, match="all kernel weights underflowed"):
            got = nw_predict(train, Xq, KernelConfig(1e-3))
        assert got.tolist() == train.targets[nearest].tolist()

    def test_isolated_nearest_point_gives_its_target(self):
        # 50 points in a 100 x 100 square and queries within 0.5 of one, at
        # bandwidth 0.05: where the next point is farther by more than 746 in
        # d^2 / s2, its weight and every other is exactly 0, so the estimate is
        # the nearest target itself. An unshifted nearest weight w < 1 would
        # give y w / w, an ulp off for about one w in ten. 160 queries on 8
        # copies of (100, 100), whose weights sum to 8, keep each call on the
        # unshifted pass, from which the isolated queries are redone.
        rng = RandomSource(15).stream("nw-isolated")
        s2 = 2 * 0.05 ** 2
        isolated = 0
        for _ in range(300):
            X = np.vstack([np.full((8, 2), 100.0), rng.uniform(-50, 50, (50, 2))])
            train = Dataset(X, np.r_[np.zeros(8), rng.standard_normal(50)])
            nearest = rng.integers(8, 58, 50)
            Xq = X[nearest] + rng.uniform(-0.35, 0.35, (50, 2))
            d2 = np.sort(np.square(Xq[:, None] - X).sum(axis=2), axis=1)
            keep = d2[:, 1] - d2[:, 0] > 746 * s2
            got = nw_predict(train, np.vstack([np.full((160, 2), 100.0), Xq[keep]]),
                             KernelConfig(0.05))
            assert got.tolist() == [0.0] * 160 + train.targets[nearest[keep]].tolist()
            isolated += keep.sum()
        assert isolated > 10000

    def test_weight_past_overflow_is_shifted(self):
        # at bandwidth 1e-10 the gemm's rounding moves a log-weight by thousands,
        # so on a training point away from the mean it can pass 709, where exp
        # overflows; such a query is shifted and gives its own target, with no
        # error under the caller's errstate. Queries on the 10 copies of the mean
        # weigh them 1 and keep the unshifted pass.
        rng = RandomSource(17).stream("nw-overflow")
        away = rng.uniform(-1, 1, (8, 2))
        train = Dataset(np.vstack([np.zeros((10, 2)), away, -away]),
                        np.r_[np.full(10, 5.0), rng.standard_normal(16)])
        Xq = np.vstack([np.zeros((64, 2)), away, -away])
        want = np.r_[np.full(64, 5.0), train.targets[10:]]
        with np.errstate(over="raise", invalid="raise", divide="raise"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nw_predict(train, Xq, KernelConfig(1e-10)).tolist() == want.tolist()
        with np.errstate(over="ignore"), warnings.catch_warnings():
            # rounding also puts some nearest log-weights far below 0: underflow
            warnings.simplefilter("ignore", RuntimeWarning)
            got = nw_predict(train, Xq, KernelConfig(1e-10))
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n, shifted", [(30, True), (200, False), (1000, False)])
    def test_first_query_picks_the_path(self, monkeypatch, n, shifted):
        # the first query's weights sum to 0.66 on 30 rows, so every query is
        # shifted; 1.9 on 200 rows and 11.7 on 1000, so only those below 1 are
        picked = []
        nw_blocks = kernel._nw_blocks

        def recording(A, Y, Q, c, s2, rows, out, a, b, shift=False):
            picked.append(shift)
            return nw_blocks(A, Y, Q, c, s2, rows, out, a, b, shift)

        monkeypatch.setattr(kernel, "_nw_blocks", recording)
        rng = RandomSource(12).stream("nw-threads")
        train = Dataset(rng.uniform(-2, 2, (n, 3)), rng.standard_normal(n))
        nw_predict(train, rng.uniform(-2, 2, (3000, 3)), KernelConfig(0.4))
        assert picked[0] is False and picked[1:] == [shifted] * (len(picked) - 1)

    def test_warns_only_for_underflowing_queries(self):
        train = Dataset([[0.5, 0.5]], [4.2])
        cfg = KernelConfig(1.0)
        with pytest.warns(RuntimeWarning, match="for 1 of 2 queries"):
            got = nw_predict(train, [[0.5, 0.6], [100.0, -7.0]], cfg)
        assert got.tolist() == [4.2, 4.2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nw_predict(train, [[0.5, 0.6]], cfg)

    def test_query_width_must_match(self):
        with pytest.raises(DomainError):
            nw_predict(make_train(1), [[0.0, 0.0, 0.0]], KernelConfig(1.0))


def set_cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


@pytest.fixture
def pools(monkeypatch):
    """nw_predict on threads from 2 kernel values on, in groups of one block;
    the sizes of the thread pools it makes."""
    made = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers, **kwargs):
            made.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(kernel, "_THREADED", 2)
    monkeypatch.setattr(kernel, "_GROUP", 1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return made


class TestNWPredictThreads:
    @pytest.mark.parametrize("n, m, far", [
        (30, 5000, []),  # 2 blocks of 4369 queries, the last one short
        (1000, 1000, []),  # 8 blocks of 131 queries, the last one short
        (kernel._BLOCK + 7, 5, []),  # one query per block
        # 5 blocks of 655 queries, the last one short, far queries in 3 of them
        (200, 3000, [3, 654, 655, 2999]),
    ], ids=["30-5000", "1000-1000", f"{kernel._BLOCK + 7}-5", "200-3000-far"])
    def test_same_bits_on_any_cpu_count(self, pools, monkeypatch, n, m, far):
        # at 30 rows the first query's weights sum below 1, so every query is
        # shifted; at 200 they do not, and in each block some queries' weights
        # sum below 1 and are shifted, and the far ones underflow
        rng = RandomSource(12).stream("nw-threads")
        train = Dataset(rng.uniform(-2, 2, (n, 3)), rng.standard_normal(n))
        Xq = rng.uniform(-2, 2, (m, 3))
        Xq[far] += 100.0
        cfg = KernelConfig(0.4)
        if far:
            sums = np.exp(-np.square(Xq[:, None] - train.features).sum(axis=2) / 0.32).sum(axis=1)
            rows = kernel._BLOCK // n
            assert sums[0] > 1.1
            for s in range(0, m, rows):
                assert (sums[s:s + rows] < 0.9).any() and (sums[s:s + rows] > 1.1).any()
            assert np.flatnonzero(sums == 0).tolist() == far
        warned = [f"all kernel weights underflowed for {len(far)} of {m} queries"] * bool(far)
        got = []
        # 8 threads, likely more than there are cores, switching often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in (1, 2, 3, 8):
                set_cpus(monkeypatch, k)
                with warnings.catch_warnings(record=True) as seen:
                    warnings.simplefilter("always")
                    got.append(nw_predict(train, Xq, cfg).tobytes())
                assert [str(w.message) for w in seen] == warned
        finally:
            sys.setswitchinterval(interval)
        assert got == got[:1] * 4
        blocks = -(-m // max(1, kernel._BLOCK // n))
        assert pools == [min(k, blocks) for k in (2, 3, 8)]

    @pytest.mark.parametrize("threaded", [0, 1])
    def test_no_queries_on_the_threaded_path(self, pools, monkeypatch, threaded):
        # no queries make one empty block, so a run is never 0 rows long
        monkeypatch.setattr(kernel, "_THREADED", threaded)
        set_cpus(monkeypatch, 2)
        got = nw_predict(make_train(3), np.empty((0, 2)), KernelConfig(1.0))
        assert got.shape == (0,) and pools == []

    def test_below_threshold_stays_serial(self, pools, monkeypatch):
        monkeypatch.setattr(kernel, "_THREADED", 30 * 5000 + 1)
        set_cpus(monkeypatch, 2)
        nw_predict(make_train(2, n=30), np.zeros((5000, 2)), KernelConfig(1.0))
        assert pools == []

    def test_callers_errstate_holds_on_threads(self, pools, monkeypatch):
        train = Dataset([[0.0], [1.0]], [1.0, 2.0])
        Xq = np.linspace(0.1, 0.9, 2 * kernel._BLOCK)[:, None]
        set_cpus(monkeypatch, 2)
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError, match="divide by zero"):
                nw_predict(train, Xq, KernelConfig(1e-200))
        assert pools == [2]

    def test_one_warning_counts_every_chunk(self, pools, monkeypatch):
        # blocks of 2 queries, chunks of 4; the far queries fall in both chunks
        n = kernel._BLOCK // 2
        train = Dataset(np.full((n, 2), 0.5), np.full(n, 4.0))
        Xq = np.array([[100.0, 0.0], [0.5, 0.6], [0.4, 0.5], [0.0, -90.0], [200.0, 1.0]])
        set_cpus(monkeypatch, 2)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            got = nw_predict(train, Xq, KernelConfig(1.0))
        assert [str(w.message) for w in seen] == [
            "all kernel weights underflowed for 3 of 5 queries"]
        assert seen[0].category is RuntimeWarning and seen[0].filename == __file__
        assert got.tolist() == [4.0] * 5 and pools == [2]

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
    """One query at a time, unshifted weights: sum(y K) / sum(K)."""
    diff = train.features - np.asarray(x, dtype=float)[None, :]
    k = np.exp(-np.einsum("ij,ij->i", diff, diff) / (2.0 * config.bandwidth ** 2))
    return float(np.dot(k, train.targets) / k.sum())


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

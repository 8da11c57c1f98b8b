import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantpred import qnn
from quantpred.numerics import DomainError, RandomSource, normal_quantile
from quantpred.qnn import (
    Dataset,
    QuantileGrid,
    QuantileNetwork,
    TrainingConfig,
    TrainingError,
    loss_and_gradient,
    pinball_loss,
    predict_interval,
    predict_intervals,
    quantile_huber_loss,
    train,
)


def softplus_inv(y):
    return float(np.log(np.expm1(y)))


def make_dataset(seed, n=8, d=3):
    rng = RandomSource(seed).stream("data")
    return Dataset(rng.standard_normal((n, d)), rng.standard_normal(n))


class TestPinball:
    def test_median_is_half_absolute_error(self):
        for u in (-2.0, 3.0):
            assert pinball_loss(u, 0.5) == 0.5 * abs(u)

    def test_piecewise_values(self):
        assert pinball_loss(1.0, 0.9) == pytest.approx(0.9)
        assert pinball_loss(-1.0, 0.9) == pytest.approx(0.1)

    def test_zero_residual(self):
        for tau in (0.01, 0.3, 0.97):
            assert pinball_loss(0.0, tau) == 0.0

    @given(st.floats(-1e6, 1e6), st.floats(0.0, 1.0))
    def test_two_formulas_agree_exactly(self, u, tau):
        indicator = u * (tau - (1.0 if u < 0 else 0.0))
        max_form = max(tau * u, (tau - 1.0) * u)
        assert pinball_loss(u, tau) == indicator == max_form

    def test_nonnegative_convex(self):
        us = np.linspace(-5, 5, 101)
        vals = pinball_loss(us, 0.3)
        assert np.all(vals >= 0)
        # convexity: midpoint below chord
        assert np.all(vals[1:-1] <= 0.5 * (vals[:-2] + vals[2:]) + 1e-12)


class TestQuantileHuber:
    def test_zero(self):
        assert quantile_huber_loss(0.0, 0.3, 1.0) == 0.0

    def test_hand_value(self):
        # |tau - 0| * kappa * (|u| - kappa/2) / kappa at u=2, tau=0.5, kappa=1
        assert quantile_huber_loss(2.0, 0.5, 1.0) == pytest.approx(0.75)

    def test_pinball_limit(self):
        assert quantile_huber_loss(1.0, 0.9, 1e-6) == pytest.approx(0.9, abs=1e-5)

    def test_limit_uniform_on_bounded_set(self):
        us = np.linspace(-3, 3, 301)
        for tau in (0.1, 0.5, 0.9):
            gap = np.abs(quantile_huber_loss(us, tau, 1e-6) - pinball_loss(us, tau))
            assert np.max(gap) < 1e-5

    def test_rejects_bad_kappa(self):
        with pytest.raises(DomainError):
            quantile_huber_loss(1.0, 0.5, 0.0)


class TestForward:
    def test_zero_network_outputs_zero(self):
        grid = QuantileGrid([0.1, 0.5, 0.9])
        net = QuantileNetwork([2, 4, 3], grid=grid, monotone="penalty", seed=0)
        for W in net.weights:
            W[...] = 0.0
        assert np.array_equal(net.forward_batch([1.0, -2.0]), np.zeros((1, 3)))

    def test_increments_cumulative_sum(self):
        grid = QuantileGrid([0.1, 0.5, 0.9])
        net = QuantileNetwork([1, 3], grid=grid, seed=0)  # single linear layer
        net.weights[0][...] = 0.0
        net.biases[0][...] = [1.0, softplus_inv(0.5), softplus_inv(0.25)]
        out = net.forward_batch([0.0])[0]
        assert out == pytest.approx([1.0, 1.5, 1.75])

    def test_dimension_mismatch(self):
        grid = QuantileGrid([0.5])
        net = QuantileNetwork([2, 4, 1], grid=grid, seed=0)
        with pytest.raises(DomainError):
            net.forward_batch([1.0, 2.0, 3.0])

    def test_implicit_matches_straight_line_oracle(self):
        # independent re-implementation of the implicit-head arithmetic
        net = QuantileNetwork([2, 5, 1], head="implicit", embedding_dim=4,
                              monotone="penalty", activation="relu", seed=3)
        x = np.array([0.7, -1.3])
        for tau in (0.0, 0.25, 0.8):
            got = net.forward_batch(x[None, :], [tau])[0, 0]
            a = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
            cos_feat = np.cos(np.pi * np.arange(4) * tau)
            phi = np.maximum(cos_feat @ net.embed_w + net.embed_b, 0.0)
            expected = (a * phi) @ net.weights[1][:, 0] + net.biases[1][0]
            assert got == pytest.approx(expected, rel=1e-12)

    def test_implicit_tau_zero_cosines_are_one(self):
        net = QuantileNetwork([1, 4, 1], head="implicit", embedding_dim=6,
                              monotone="penalty", seed=1)
        assert np.array_equal(net._cosine_features([0.0]), np.ones((1, 6)))

    def test_implicit_increments_rejected(self):
        with pytest.raises(DomainError):
            QuantileNetwork([1, 4, 1], head="implicit", monotone="increments")


class TestLossAndGradient:
    def test_perfect_fit_zero_loss(self):
        grid = QuantileGrid([0.5])
        net = QuantileNetwork([1, 1], grid=grid, monotone="penalty", seed=0)
        net.weights[0][...] = 0.0
        net.biases[0][...] = 2.0
        ds = Dataset([[0.0], [1.0]], [2.0, 2.0])
        loss, _ = loss_and_gradient(net, ds, grid, TrainingConfig())
        assert loss == 0.0

    def test_single_sample_reduces_to_pinball(self):
        grid = QuantileGrid([0.9])
        net = QuantileNetwork([1, 1], grid=grid, monotone="penalty", seed=0)
        net.weights[0][...] = 0.0
        net.biases[0][...] = 0.0
        ds = Dataset([[0.0]], [1.0])
        loss, _ = loss_and_gradient(net, ds, grid, TrainingConfig())
        assert loss == pytest.approx(0.9)

    @pytest.mark.parametrize("head,mono,kappa", [
        ("multi", "increments", 0.0),
        ("multi", "penalty", 0.0),
        ("multi", "increments", 1.0),
        ("implicit", "penalty", 0.0),
    ])
    def test_gradient_matches_central_differences(self, head, mono, kappa):
        grid = QuantileGrid([0.1, 0.5, 0.9])
        dims = [3, 10, 3] if head == "multi" else [3, 10, 1]
        net = QuantileNetwork(dims, grid=grid if head == "multi" else None,
                              activation="tanh", head=head, embedding_dim=6,
                              monotone=mono, seed=11)
        ds = make_dataset(21)
        cfg = TrainingConfig(huber_kappa=kappa)
        # skip datasets with residuals at the pinball kink
        q = net.forward_batch(ds.features, grid.levels)
        assert np.min(np.abs(ds.targets[:, None] - q)) > 1e-3

        loss, grads = loss_and_gradient(net, ds, grid, cfg)
        h = 1e-5
        for p, g in zip(net.parameters(), grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                old = p[ix]
                p[ix] = old + h
                lp, _ = loss_and_gradient(net, ds, grid, cfg)
                p[ix] = old - h
                lm, _ = loss_and_gradient(net, ds, grid, cfg)
                p[ix] = old
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(g[ix]), 1e-8)
                assert abs(fd - g[ix]) / denom < 1e-4

    def test_empty_batch_rejected(self):
        grid = QuantileGrid([0.5])
        net = QuantileNetwork([1, 1], grid=grid, monotone="penalty", seed=0)
        empty = Dataset(np.empty((0, 1)), np.empty(0))
        with pytest.raises(DomainError):
            loss_and_gradient(net, empty, grid, TrainingConfig())

    def test_penalty_zero_iff_sorted(self):
        grid = QuantileGrid([0.2, 0.8])
        ds = Dataset([[0.0]], [0.0])
        cfg = TrainingConfig()

        def loss_with_weight(biases, weight):
            net = QuantileNetwork([1, 2], grid=grid, monotone="penalty",
                                  penalty_weight=weight, seed=0)
            net.weights[0][...] = 0.0
            net.biases[0][...] = biases
            loss, _ = loss_and_gradient(net, ds, grid, cfg)
            return loss

        # sorted outputs: penalty contributes nothing at any weight
        assert loss_with_weight([0.0, 1.0], 10.0) == loss_with_weight([0.0, 1.0], 0.0)
        # crossing by 1: penalty adds exactly weight * 1^2
        gap = loss_with_weight([1.0, 0.0], 10.0) - loss_with_weight([1.0, 0.0], 0.0)
        assert gap == pytest.approx(10.0)


class TestTrain:
    def test_constant_target_learns_median(self):
        rng = RandomSource(1).stream("x")
        X = rng.standard_normal((200, 2))
        ds = Dataset(X, np.full(200, 3.7))
        grid = QuantileGrid([0.5])
        net = QuantileNetwork([2, 8, 1], grid=grid, seed=2)
        cfg = TrainingConfig(learning_rate=0.05, epochs=60, batch_size=50, seed=2)
        net, trace = train(net, ds, grid, cfg)
        # pinball gradients do not shrink near the optimum, so finish with a
        # fine-tuning phase at a smaller step size
        fine = TrainingConfig(learning_rate=0.002, epochs=40, batch_size=50, seed=3)
        net, _ = train(net, ds, grid, fine)
        preds = net.forward_batch(X)
        assert np.max(np.abs(preds - 3.7)) < 1e-2
        assert trace[-1] <= trace[0]

    def test_linear_median_regression(self):
        rng = RandomSource(8).stream("x")
        x = rng.uniform(-1, 1, 2000)
        y = 2 * x + 0.1 * rng.standard_normal(2000)
        grid = QuantileGrid([0.5])
        net = QuantileNetwork([1, 32, 1], grid=grid, seed=8)
        cfg = TrainingConfig(learning_rate=0.02, epochs=60, batch_size=128, seed=8)
        net, _ = train(net, Dataset(x[:, None], y), grid, cfg)
        xt = np.linspace(-1, 1, 21)[:, None]
        assert np.max(np.abs(net.forward_batch(xt)[:, 0] - 2 * xt[:, 0])) < 0.1

    def test_heteroscedastic_upper_quantile(self):
        rng = RandomSource(12).stream("x")
        x = rng.uniform(-2, 2, 3000)
        y = x * 0.0 + x * rng.standard_normal(3000)  # y = x * eps
        grid = QuantileGrid([0.1, 0.9])
        net = QuantileNetwork([1, 32, 2], grid=grid, seed=12)
        cfg = TrainingConfig(learning_rate=0.02, epochs=80, batch_size=128, seed=12)
        net, _ = train(net, Dataset(x[:, None], y), grid, cfg)
        q90 = net.quantiles_at(np.array([[1.0]]), [0.9])[0, 0]
        assert abs(q90 - normal_quantile(0.9)) < 0.15

    def test_deterministic_given_seed(self):
        ds = make_dataset(5, n=64, d=2)
        grid = QuantileGrid([0.25, 0.75])

        def run():
            net = QuantileNetwork([2, 8, 2], grid=grid, seed=7)
            cfg = TrainingConfig(epochs=5, batch_size=16, seed=7)
            net, trace = train(net, ds, grid, cfg)
            return net, trace

        n1, t1 = run()
        n2, t2 = run()
        assert t1 == t2
        for a, b in zip(n1.parameters(), n2.parameters()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("head,mono,kappa", [
        ("multi", "increments", 0.0), ("multi", "penalty", 0.0),
        ("multi", "increments", 0.5), ("implicit", "penalty", 0.0),
    ])
    def test_epoch_loss_is_loss_and_gradient_loss(self, head, mono, kappa):
        # the forward-only epoch loss must be the training loss, bit for bit
        grid = QuantileGrid([0.1, 0.5, 0.9])
        ds = make_dataset(21, n=40, d=2)
        cfg = TrainingConfig(epochs=2, batch_size=16, huber_kappa=kappa, seed=3)

        def fresh():
            return QuantileNetwork([2, 6, 3 if head == "multi" else 1], grid=grid,
                                   activation="tanh", head=head, embedding_dim=8,
                                   monotone=mono, penalty_weight=0.7, seed=4)

        net, trace = train(fresh(), ds, grid, cfg)
        assert trace[-1] == loss_and_gradient(net, ds, grid, cfg)[0]
        start = fresh()
        start.set_standardization(net.x_mean, net.x_std)
        assert trace[0] == loss_and_gradient(start, ds, grid, cfg)[0]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_raises_training_error(self):
        ds = make_dataset(6, n=32, d=2)
        grid = QuantileGrid([0.5])
        net = QuantileNetwork([2, 8, 1], grid=grid, seed=6)
        cfg = TrainingConfig(learning_rate=1e300, epochs=3, batch_size=16, seed=6)
        with pytest.raises(TrainingError):
            train(net, ds, grid, cfg)


class TestMonotonicity:
    def test_increments_never_cross(self):
        grid = QuantileGrid(np.linspace(0.05, 0.95, 8))
        rng = RandomSource(31).stream("mono")
        for trial in range(50):
            net = QuantileNetwork([2, 6, 8], grid=grid,
                                  seed=int(rng.integers(0, 2**63)))
            X = rng.standard_normal((100, 2)) * 5
            q = net.forward_batch(X)
            assert np.all(np.diff(q, axis=1) >= 0)


class TestPredictInterval:
    def test_ordered_bounds(self):
        grid = QuantileGrid([0.05, 0.5, 0.95])
        net = QuantileNetwork([1, 6, 3], grid=grid, seed=9)
        lo, hi = predict_intervals(net, [[0.3]], 0.1)
        assert lo.shape == hi.shape == (1,)
        assert np.all(lo <= hi)

    def test_crossed_penalty_pairs_are_ordered(self):
        grid = QuantileGrid([0.05, 0.95])
        net = QuantileNetwork([1, 2], grid=grid, monotone="penalty", seed=9)
        net.weights[0][...] = [[1.0, -1.0]]
        X = np.array([[-1.0], [0.0], [2.0]])
        q = net.quantiles_at(X, [0.05, 0.95])
        assert np.any(q[:, 0] > q[:, 1])  # the raw pairs do cross
        lo, hi = predict_intervals(net, X, 0.1)
        assert np.array_equal(lo, q.min(axis=1))
        assert np.array_equal(hi, q.max(axis=1))

    def test_near_degenerate_alpha(self):
        # a fitted model with coinciding levels collapses to the median
        grid = QuantileGrid([0.4995, 0.5005])
        net = QuantileNetwork([1, 2], grid=grid, seed=9)
        net.weights[0][...] = 0.0
        net.biases[0][...] = [1.25, softplus_inv(1e-6)]
        lo, hi = predict_intervals(net, [[0.3]], 0.999)
        assert lo[0] == pytest.approx(1.25)
        assert hi[0] - lo[0] == pytest.approx(1e-6)

    def test_missing_level_rejected(self):
        grid = QuantileGrid([0.25, 0.75])
        net = QuantileNetwork([1, 4, 2], grid=grid, seed=0)
        with pytest.raises(DomainError):
            predict_intervals(net, [[0.0]], 0.1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        grid = QuantileGrid([0.25, 0.5, 0.75])
        net = QuantileNetwork([1, 4, 3], grid=grid, seed=0)
        with pytest.raises(DomainError, match="alpha"):
            predict_intervals(net, [[0.0]], alpha)

    def test_implicit_evaluates_any_level(self):
        net = QuantileNetwork([1, 6, 1], head="implicit", embedding_dim=4,
                              monotone="penalty", seed=2)
        lo, hi = predict_intervals(net, [[0.5]], 0.37)
        assert np.all(lo <= hi)

    def test_single_row_form(self):
        grid = QuantileGrid([0.05, 0.5, 0.95])
        net = QuantileNetwork([2, 6, 3], grid=grid, seed=9)
        lo, hi = predict_intervals(net, [[0.3, -1.0]], 0.1)
        assert predict_interval(net, [0.3, -1.0], 0.1) == (lo[0], hi[0])

    @pytest.mark.parametrize("head", ["multi", "implicit"])
    def test_matches_one_row_at_a_time(self, head):
        alpha = 0.1
        if head == "multi":
            net = QuantileNetwork([3, 16, 16, 3],
                                  grid=QuantileGrid([0.05, 0.5, 0.95]), seed=5)
        else:
            net = QuantileNetwork([3, 16, 1], head="implicit", embedding_dim=8,
                                  monotone="penalty", seed=5)
        net.set_standardization([0.1, -0.2, 0.3], [1.5, 0.5, 2.0])
        X = RandomSource(6).stream("rows").standard_normal((200, 3)) * 3.0
        lo, hi = predict_intervals(net, X, alpha)
        ref = np.array([np.sort(net.quantiles_at(x[None, :],
                                                 [alpha / 2, 1 - alpha / 2])[0])
                        for x in X])
        for got, want in ((lo, ref[:, 0]), (hi, ref[:, 1])):
            assert np.all(np.abs(got - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))


class TestSerialization:
    @pytest.mark.parametrize("head", ["multi", "implicit"])
    def test_round_trip_bitwise(self, tmp_path, head):
        grid = QuantileGrid([0.1, 0.9])
        if head == "multi":
            net = QuantileNetwork([2, 8, 2], grid=grid, seed=4)
        else:
            net = QuantileNetwork([2, 8, 1], head="implicit", embedding_dim=5,
                                  monotone="penalty", seed=4)
        net.set_standardization([0.5, -1.0], [2.0, 3.0])
        path = os.path.join(tmp_path, "model.qnet")
        qnn.save(net, path)
        other = qnn.load(path)
        for a, b in zip(net.parameters(), other.parameters()):
            assert np.array_equal(a, b)
        assert np.array_equal(net.x_mean, other.x_mean)
        assert other.layer_dims == net.layer_dims
        assert other.monotone == net.monotone
        # write-then-read-then-write reproduces the file bytes
        path2 = os.path.join(tmp_path, "model2.qnet")
        qnn.save(other, path2)
        assert open(path, "rb").read() == open(path2, "rb").read()

    def test_bad_format_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "junk.qnet")
        with open(path, "w") as fh:
            fh.write('{"format": "other"}')
        with pytest.raises(DomainError):
            qnn.load(path)


class TestValidation:
    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            QuantileGrid([0.5, 0.5])
        with pytest.raises(DomainError):
            QuantileGrid([0.0, 0.5])

    def test_dataset_checks(self):
        with pytest.raises(DomainError):
            Dataset([[1.0], [2.0]], [1.0])
        with pytest.raises(DomainError):
            Dataset([[np.inf]], [1.0])

    def test_config_checks(self):
        with pytest.raises(DomainError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(DomainError):
            TrainingConfig(epochs=0)

    def test_multi_head_needs_matching_output(self):
        with pytest.raises(DomainError):
            QuantileNetwork([1, 4, 2], grid=QuantileGrid([0.5]))

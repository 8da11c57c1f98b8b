import json
import os
import pickle
import tracemalloc

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
    train,
)


def softplus_inv(y):
    return float(np.log(np.expm1(y)))


def make_dataset(seed, n=8, d=3):
    rng = RandomSource(seed).stream("data")
    return Dataset(rng.standard_normal((n, d)), rng.standard_normal(n))


def per_array_adam_train(net, data, taus, config):
    """qnn.train as it was with one Adam moment and one best-parameter
    snapshot per parameter array, and no flush of subnormal moments: the
    reference for the whole-vector code. Returns (net, trace, m, v), the
    moments as one array per parameter array."""
    mean = data.features.mean(axis=0)
    std = data.features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    net.x_mean, net.x_std = mean, std

    params = net.parameters()
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    levels = qnn._levels(taus)
    rng = RandomSource(config.seed).stream("train")
    trace = [qnn._full_loss(net, data, levels, config.huber_kappa)]
    best_loss = trace[0]
    best_params = [p.copy() for p in params]

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(data.n)
        for start in range(0, data.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = Dataset(data.features[idx], data.targets[idx])
            _, grads = loss_and_gradient(net, batch, levels, config)
            step += 1
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= beta1
                mi += (1 - beta1) * g
                vi *= beta2
                vi += (1 - beta2) * g * g
                mhat = mi / (1 - beta1 ** step)
                vhat = vi / (1 - beta2 ** step)
                p -= config.learning_rate * mhat / (np.sqrt(vhat) + eps)
        epoch_loss = qnn._full_loss(net, data, levels, config.huber_kappa)
        trace.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_params = [p.copy() for p in params]

    if trace[-1] > trace[0]:
        for p, bp in zip(params, best_params):
            p[...] = bp
        trace.append(best_loss)
    return net, trace, m, v


def einsum_implicit_loss_and_gradient(net, batch, levels, config):
    """loss_and_gradient for the implicit head as it was with its own head
    forward and backward: an n x K x H product h of the trunk output and
    the level embedding, with einsum gradients. The reference for the
    level-generated output layer."""
    activations = net._trunk_forward((batch.features - net.x_mean) / net.x_std)
    psi = activations[-1]
    cos_feat = net._cosine_features(levels)
    ze = cos_feat @ net.embed_w + net.embed_b
    phi = np.maximum(ze, 0.0)
    h = psi[:, None, :] * phi[None, :, :]
    q = h @ net.weights[-1][:, 0] + net.biases[-1][0]

    kappa = config.huber_kappa
    loss, u, slope, viol = qnn._loss(net, q, batch.targets, levels, kappa)
    dldu = np.abs(slope) * np.clip(u, -kappa, kappa) / kappa if kappa > 0 else slope
    dq = -dldu * (1.0 / u.size)
    dq_pen = np.zeros_like(q)
    g = 2.0 * net.penalty_weight * viol / q.shape[0]
    dq_pen[:, :-1] += g
    dq_pen[:, 1:] -= g
    dq = dq + dq_pen

    w_out = net.weights[-1][:, 0]
    gw_out = np.einsum("nkh,nk->h", h, dq)[:, None]
    gb_out = np.array([dq.sum()])
    dh = dq[:, :, None] * w_out[None, None, :]
    dpsi = np.einsum("nkh,kh->nh", dh, phi)
    dphi = np.einsum("nkh,nh->kh", dh, psi)
    dze = dphi * (ze > 0)
    grads = qnn._trunk_backward(net, dpsi, activations)
    return loss, grads + [gw_out, gb_out, cos_feat.T @ dze, dze.sum(axis=0)]


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
    """The training loss with huber_kappa > 0, on a one-row, one-level net
    whose output is 0, so that the residual u is the target."""

    @staticmethod
    def huber(u, tau, kappa):
        grid = QuantileGrid([tau])
        net = QuantileNetwork([1, 1], grid=grid, seed=0)
        net.theta[...] = 0.0
        loss, _ = loss_and_gradient(net, Dataset([[0.0]], [u]), grid,
                                    TrainingConfig(huber_kappa=kappa))
        return loss

    def test_zero(self):
        assert self.huber(0.0, 0.3, 1.0) == 0.0

    def test_hand_value(self):
        # |tau - 0| * kappa * (|u| - kappa/2) / kappa at u=2, tau=0.5, kappa=1
        assert self.huber(2.0, 0.5, 1.0) == pytest.approx(0.75)

    def test_pinball_limit(self):
        assert self.huber(1.0, 0.9, 1e-6) == pytest.approx(0.9, abs=1e-5)

    def test_limit_uniform_on_bounded_set(self):
        for tau in (0.1, 0.5, 0.9):
            for u in np.linspace(-3, 3, 301):
                assert abs(self.huber(u, tau, 1e-6) - pinball_loss(u, tau)) < 1e-5

    def test_rejects_negative_kappa(self):
        with pytest.raises(DomainError, match="huber_kappa"):
            TrainingConfig(huber_kappa=-1)


class TestParameterVector:
    @pytest.mark.parametrize("head", ["multi", "implicit"])
    def test_parameters_are_views_of_theta(self, head):
        if head == "multi":
            net = QuantileNetwork([3, 5, 4, 2], grid=QuantileGrid([0.1, 0.9]), seed=2)
        else:
            net = QuantileNetwork([3, 5, 1], head="implicit", embedding_dim=6,
                                  monotone="penalty", seed=2)
        params = net.parameters()
        assert sum(p.size for p in params) == net.theta.size
        assert np.array_equal(np.concatenate(params, axis=None), net.theta)
        for p in params:
            assert np.shares_memory(p, net.theta)
        net.theta[...] = 1.5
        assert all(np.all(p == 1.5) for p in net.parameters())


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


def out_of_place_forward(net, X, levels):
    """qnn._forward with a new array at every step: act(a @ W + b) with
    matmul in every layer, a copy of the base column. The reference for the
    in-place pass and for np.dot on a one-column input."""
    act = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}[net.activation]
    activations = [(X - net.x_mean) / net.x_std]
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        activations.append(act(activations[-1] @ W + b))
    W, cos_feat, phi = net.weights[-1], None, None
    if net.head == "implicit":
        cos_feat = net._cosine_features(levels)
        phi = np.maximum(cos_feat @ net.embed_w + net.embed_b, 0.0)
        W = W * phi.T
    raw = activations[-1] @ W + net.biases[-1]
    q = raw
    if net.monotone == "increments":
        q = np.empty_like(raw)
        q[:, 0] = raw[:, 0]
        q[:, 1:] = raw[:, [0]] + np.cumsum(qnn._softplus(raw[:, 1:]), axis=1)
    return q, (activations, raw, W, cos_feat, phi)


def mean_loss(net, q, y, levels, kappa):
    """qnn._loss with the mean taken by .mean()."""
    u = y[:, None] - q
    slope = levels - (u < 0)
    loss = qnn._huber_loss(u, slope, kappa) if kappa > 0 else u * slope
    loss, viol = float(loss.mean()), None
    if net.monotone == "penalty":
        viol = np.maximum(q[:, :-1] - q[:, 1:], 0.0)
        loss += net.penalty_weight * float(np.sum(viol ** 2)) / q.shape[0]
    return loss, u, slope, viol


def whole_array_full_loss(net, data, levels, kappa):
    """qnn._full_loss as one _forward call over every row: the reference
    for the blocked pass."""
    q, _ = qnn._forward(net, data.features, levels)
    return qnn._loss(net, q, data.targets, levels, kappa)[0]


def close_to(got, ref):
    """Equal within 1e-12 * max(1, |ref|): a block's matrix products may
    round differently in the last bits from the whole array's."""
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and bool(
        np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))))


class TestBlockedPass:
    ROWS = qnn._BLOCK // 64  # the block of a net whose widest layer is 64

    def _net(self, head, monotone, activation, d=4):
        if head == "multi":
            net = QuantileNetwork([d, 64, 48, 5],
                                  grid=QuantileGrid([0.05, 0.25, 0.5, 0.75, 0.95]),
                                  activation=activation, monotone=monotone, seed=11)
        else:
            net = QuantileNetwork([d, 64, 1], head="implicit", embedding_dim=8,
                                  activation=activation, monotone=monotone, seed=11)
        net.x_mean = np.array([0.1, -0.2, 0.3, 0.0])[:d]
        net.x_std = np.array([1.5, 0.5, 2.0, 1.0])[:d]
        return net

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("head, monotone", [
        ("multi", "increments"), ("multi", "penalty"), ("implicit", "penalty")])
    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 17])
    def test_matches_the_whole_array_forward(self, head, monotone, activation, n):
        net = self._net(head, monotone, activation)
        X = RandomSource(n).stream("rows").uniform(-2.0, 2.0, (n, 4))
        levels = np.array([0.1, 0.5, 0.9])
        got = qnn._predict(net, X, levels)
        ref = qnn._forward(net, X, levels)[0]
        if n <= self.ROWS:  # one block is one _forward call
            assert np.array_equal(got, ref)
        assert close_to(got, ref)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("head, monotone", [
        ("multi", "increments"), ("multi", "penalty"), ("implicit", "penalty")])
    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    @pytest.mark.parametrize("n", [16, 3 * ROWS + 17])
    @pytest.mark.parametrize("d", [1, 4])  # one input column takes np.dot
    def test_in_place_pass_matches_the_out_of_place_reference(
            self, monkeypatch, head, monotone, activation, kappa, n, d):
        net = self._net(head, monotone, activation, d)
        rng = RandomSource(n).stream("rows")
        X = rng.uniform(-2.0, 2.0, (n, d))
        X[::7] = net.x_mean  # inputs that standardize to exact zeros
        batch = Dataset(X, rng.standard_normal(n))
        levels = net.grid.levels if head == "multi" else np.array([0.1, 0.5, 0.9])
        cfg = TrainingConfig(huber_kappa=kappa)
        q, cache = qnn._forward(net, batch.features, levels)
        out = qnn._predict(net, batch.features, levels)
        loss, grads = loss_and_gradient(net, batch, levels, cfg)
        monkeypatch.setattr(qnn, "_forward", out_of_place_forward)
        monkeypatch.setattr(qnn, "_loss", mean_loss)
        ref_q, ref_cache = out_of_place_forward(net, batch.features, levels)
        assert np.array_equal(q, ref_q)
        for a, ref in zip([*cache[0], *cache[1:]], [*ref_cache[0], *ref_cache[1:]]):
            assert (a is None and ref is None) or np.array_equal(a, ref)
        assert np.array_equal(out, qnn._predict(net, batch.features, levels))
        ref_loss, ref_grads = loss_and_gradient(net, batch, levels, cfg)
        assert loss == ref_loss
        assert all(np.array_equal(g, ref) for g, ref in zip(grads, ref_grads, strict=True))

    def test_full_data_passes_hold_one_block(self):
        # the whole-array pass peaked at 42.6 MB (forward_batch) and 43.6 MB
        # (_full_loss) here: four 20000 x 64 arrays and a matmul temporary
        grid = QuantileGrid([0.05, 0.25, 0.5, 0.75, 0.95])
        net = QuantileNetwork([4, 64, 64, 5], grid=grid, seed=0)
        rng = RandomSource(2).stream("rows")
        data = Dataset(rng.uniform(-2.0, 2.0, (20000, 4)), rng.standard_normal(20000))
        for run in (lambda: net.forward_batch(data.features),
                    lambda: qnn._full_loss(net, data, grid.levels, 0.0)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_train_trace_matches_the_whole_array_loss(self, monkeypatch, kappa):
        grid = QuantileGrid([0.1, 0.5, 0.9])
        data = make_dataset(4, n=2 * self.ROWS + 300, d=4)
        config = TrainingConfig(epochs=2, batch_size=256, huber_kappa=kappa, seed=1)
        net, trace = train(QuantileNetwork([4, 64, 32, 3], grid=grid, seed=3),
                           data, grid, config)
        monkeypatch.setattr(qnn, "_full_loss", whole_array_full_loss)
        ref_net, ref = train(QuantileNetwork([4, 64, 32, 3], grid=grid, seed=3),
                             data, grid, config)
        assert close_to(trace, ref)
        assert np.array_equal(net.theta, ref_net.theta)


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

    @pytest.mark.parametrize("activation,kappa,dims,levels", [
        ("relu", 0.0, [3, 10, 1], [0.1, 0.5, 0.9]),
        ("tanh", 0.5, [3, 10, 1], [0.1, 0.5, 0.9]),
        ("relu", 0.5, [3, 16, 12, 1], np.linspace(0.02, 0.98, 9)),
        ("tanh", 0.0, [3, 1], [0.3]),
    ])
    def test_implicit_matches_einsum_reference(self, activation, kappa, dims, levels):
        net = QuantileNetwork(dims, activation=activation, head="implicit",
                              embedding_dim=7, monotone="penalty",
                              penalty_weight=0.7, seed=13)
        net.x_mean, net.x_std = np.array([0.1, -0.2, 0.3]), np.array([1.5, 0.5, 2.0])
        ds = make_dataset(22, n=50)
        levels = np.asarray(levels)
        cfg = TrainingConfig(huber_kappa=kappa)
        loss, grads = loss_and_gradient(net, ds, levels, cfg)
        ref_loss, ref_grads = einsum_implicit_loss_and_gradient(net, ds, levels, cfg)
        # the two sum the same products in a different order
        assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
        assert len(grads) == len(ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape
            assert np.all(np.abs(g - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_empty_batch_rejected(self):
        grid = QuantileGrid([0.5])
        net = QuantileNetwork([1, 1], grid=grid, monotone="penalty", seed=0)
        with pytest.raises(DomainError, match="at least one row"):
            empty = Dataset(np.empty((0, 1)), np.empty(0))
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
        q90 = net.forward_batch(np.array([[1.0]]), [0.9])[0, 0]
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
        start.x_mean, start.x_std = net.x_mean, net.x_std
        assert trace[0] == loss_and_gradient(start, ds, grid, cfg)[0]

    @pytest.mark.parametrize("head,mono,kappa", [
        ("multi", "increments", 0.0), ("multi", "penalty", 0.0),
        ("multi", "increments", 0.5), ("implicit", "penalty", 0.0),
    ])
    @pytest.mark.parametrize("learning_rate,restored", [(0.05, False), (3.0, True)])
    def test_whole_vector_adam_matches_per_array_reference(
            self, head, mono, kappa, learning_rate, restored):
        grid = QuantileGrid([0.1, 0.5, 0.9])
        ds = make_dataset(21, n=40, d=2)
        cfg = TrainingConfig(learning_rate=learning_rate, epochs=3, batch_size=16,
                             huber_kappa=kappa, seed=3)

        def fresh():
            return QuantileNetwork([2, 6, 3 if head == "multi" else 1], grid=grid,
                                   activation="tanh", head=head, embedding_dim=8,
                                   monotone=mono, penalty_weight=0.7, seed=4)

        net, trace = train(fresh(), ds, grid, cfg)
        ref, ref_trace, _, _ = per_array_adam_train(fresh(), ds, grid, cfg)
        # a restore appends the best loss after the epochs + 1 entries
        assert len(trace) == cfg.epochs + 1 + restored
        assert trace == ref_trace
        for a, b in zip(net.parameters(), ref.parameters()):
            assert np.array_equal(a, b)

    def test_flushed_subnormal_moments_change_no_bits(self):
        # at learning rate 0.1 some relu units die after carrying gradient;
        # m *= 0.9 walks their moments into the subnormals within the 7200
        # steps, and train flushes them at each epoch's end
        grid = QuantileGrid([0.5])
        ds = make_dataset(7, n=16, d=2)
        cfg = TrainingConfig(learning_rate=0.1, epochs=900, batch_size=2, seed=1)
        net, trace = train(QuantileNetwork([2, 8, 1], grid=grid, seed=2), ds, grid, cfg)
        ref, ref_trace, m, _ = per_array_adam_train(
            QuantileNetwork([2, 8, 1], grid=grid, seed=2), ds, grid, cfg)
        m = np.concatenate(m, axis=None)
        assert np.count_nonzero((m != 0) & (np.abs(m) < np.finfo(float).tiny)) > 0
        assert trace == ref_trace
        assert net.theta.tobytes() == ref.theta.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_raises_training_error(self):
        ds = make_dataset(6, n=32, d=2)
        grid = QuantileGrid([0.5])
        net = QuantileNetwork([2, 8, 1], grid=grid, seed=6)
        cfg = TrainingConfig(learning_rate=1e300, epochs=3, batch_size=16, seed=6)
        with pytest.raises(TrainingError):
            train(net, ds, grid, cfg)

    @pytest.mark.parametrize("entry", [train, loss_and_gradient],
                             ids=["train", "loss_and_gradient"])
    @pytest.mark.parametrize("head, levels, message", [
        # one level would broadcast over the three outputs
        ("multi", [0.5], r"training levels \[0.5\] are not the grid \[0.05, 0.5, 0.95\]"),
        # the saved grid would mislabel every column
        ("multi", [0.2, 0.5, 0.8], r"level 0.2 not on the grid"),
        ("multi", [0.05, 0.5], r"training levels \[0.05, 0.5\] are not the grid"),
        ("multi", [0.2, 0.5], r"level 0.2 not on the grid"),
        ("implicit", [], r"quantile grid needs at least one level"),
        ("implicit", [0.5, 1.0], r"strictly inside \(0, 1\), got \[0.5, 1.0\]"),
        ("implicit", [np.nan], r"strictly inside \(0, 1\), got \[nan\]"),
        # penalty mode would train toward crossing quantiles
        ("implicit", [0.9, 0.5, 0.1], r"levels must be strictly increasing, got \[0.9, 0.5, 0.1\]"),
        ("implicit", [0.5, 0.5], r"levels must be strictly increasing"),
    ])
    def test_levels_checked_before_the_first_pass(self, monkeypatch, entry, head, levels,
                                                  message):
        def never(*args):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(qnn, "_forward", never)  # every pass runs it
        if head == "multi":
            net = QuantileNetwork([1, 4, 3], grid=QuantileGrid([0.05, 0.5, 0.95]), seed=0)
        else:
            net = QuantileNetwork([1, 4, 1], head="implicit", embedding_dim=3,
                                  monotone="penalty", seed=0)
        with pytest.raises(DomainError, match=message):
            entry(net, make_dataset(2, n=16, d=1), levels, TrainingConfig(epochs=1))

    @pytest.mark.parametrize("entry", [train, loss_and_gradient],
                             ids=["train", "loss_and_gradient"])
    @pytest.mark.parametrize("dims", [[4, 8, 2], [1, 8, 2]])  # one input column takes np.dot
    def test_width_checked_before_the_net_changes(self, entry, dims):
        grid = QuantileGrid([0.25, 0.75])
        net = QuantileNetwork(dims, grid=grid, seed=0)
        net.x_mean += 0.5
        before = net.x_mean.copy(), net.x_std.copy(), net.features, net.theta.tobytes()
        data = make_dataset(2, n=16, d=3)
        data = Dataset(data.features, data.targets, ("a", "b", "c"))
        with pytest.raises(DomainError, match=f"model expects {dims[0]} features, got 3"):
            entry(net, data, grid, TrainingConfig(epochs=1))
        assert np.array_equal(net.x_mean, before[0]) and np.array_equal(net.x_std, before[1])
        assert (net.features, net.theta.tobytes()) == before[2:]

    def test_train_never_calls_the_public_step(self, monkeypatch):
        # the public step checks its inputs on every call; train checks them
        # once, so its steps run the unchecked core
        grid = QuantileGrid([0.1, 0.5, 0.9])
        ds = make_dataset(21, n=40, d=2)
        cfg = TrainingConfig(epochs=2, batch_size=16, seed=3)
        expected = train(QuantileNetwork([2, 6, 3], grid=grid, seed=4), ds, grid, cfg)

        def never(*args):
            raise AssertionError("train called loss_and_gradient")

        monkeypatch.setattr(qnn, "loss_and_gradient", never)
        net, trace = train(QuantileNetwork([2, 6, 3], grid=grid, seed=4), ds, grid, cfg)
        assert trace == expected[1]
        assert net.theta.tobytes() == expected[0].theta.tobytes()

    def test_training_error_pickles(self):
        exc = pickle.loads(pickle.dumps(TrainingError("epoch 3, batch 1: x")))
        assert isinstance(exc, TrainingError)
        assert str(exc) == "epoch 3, batch 1: x"


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
        lo, hi = net.forward_batch([[0.3]], [], 0.1).T
        assert lo.shape == hi.shape == (1,)
        assert np.all(lo <= hi)

    def test_crossed_penalty_pairs_are_ordered(self):
        grid = QuantileGrid([0.05, 0.95])
        net = QuantileNetwork([1, 2], grid=grid, monotone="penalty", seed=9)
        net.weights[0][...] = [[1.0, -1.0]]
        X = np.array([[-1.0], [0.0], [2.0]])
        q = net.forward_batch(X, [0.05, 0.95])
        assert np.any(q[:, 0] > q[:, 1])  # the raw pairs do cross
        lo, hi = net.forward_batch(X, [], 0.1).T
        assert np.array_equal(lo, q.min(axis=1))
        assert np.array_equal(hi, q.max(axis=1))

    def test_near_degenerate_alpha(self):
        # a fitted model with coinciding levels collapses to the median
        grid = QuantileGrid([0.4995, 0.5005])
        net = QuantileNetwork([1, 2], grid=grid, seed=9)
        net.weights[0][...] = 0.0
        net.biases[0][...] = [1.25, softplus_inv(1e-6)]
        lo, hi = net.forward_batch([[0.3]], [], 0.999).T
        assert lo[0] == pytest.approx(1.25)
        assert hi[0] - lo[0] == pytest.approx(1e-6)

    def test_missing_level_rejected(self):
        grid = QuantileGrid([0.25, 0.75])
        net = QuantileNetwork([1, 4, 2], grid=grid, seed=0)
        with pytest.raises(DomainError):
            net.forward_batch([[0.0]], [], 0.1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        grid = QuantileGrid([0.25, 0.5, 0.75])
        net = QuantileNetwork([1, 4, 3], grid=grid, seed=0)
        with pytest.raises(DomainError, match="alpha"):
            net.forward_batch([[0.0]], [], alpha)

    @pytest.mark.parametrize("head", ["multi", "implicit"])
    def test_levels_and_interval_from_one_pass(self, head):
        if head == "multi":
            net = QuantileNetwork([1, 3], grid=QuantileGrid([0.05, 0.5, 0.95]),
                                  monotone="penalty", seed=9)
            net.weights[0][...] = [[1.0, 0.0, -1.0]]  # q0.05 > q0.95 at x > 0
        else:
            net = QuantileNetwork([1, 6, 1], head="implicit", embedding_dim=4,
                                  monotone="penalty", seed=2)
        X = np.array([[-1.0], [0.0], [2.0]])
        q = net.forward_batch(X, [0.5, 0.95], 0.1)
        lo, hi = net.forward_batch(X, [], 0.1).T
        assert np.array_equal(q, np.column_stack([net.forward_batch(X, [0.5, 0.95]),
                                                  lo, hi]))

    @pytest.mark.parametrize("levels, alpha, message", [
        ([0.3], 1.5, "level 0.3 not on the grid"),
        ([0.5], 3.0, "alpha must lie"),
        ([0.5], 0.3, "level 0.15 not on the grid"),
    ])
    def test_quantiles_at_checks_in_order(self, levels, alpha, message):
        grid = QuantileGrid([0.05, 0.5, 0.95])
        net = QuantileNetwork([1, 4, 3], grid=grid, seed=0)
        with pytest.raises(DomainError, match=message):
            # a row of two features: the mismatch would be reported last
            net.forward_batch([[0.0, 1.0]], levels, alpha)

    @pytest.mark.parametrize("head", ["multi", "implicit"])
    def test_inputs_must_have_the_model_width(self, head):
        # the width check outside the command line, where no names are compared
        if head == "multi":
            net = QuantileNetwork([2, 4, 3], grid=QuantileGrid([0.05, 0.5, 0.95]), seed=0)
        else:
            net = QuantileNetwork([2, 4, 1], head="implicit", embedding_dim=3,
                                  monotone="penalty", seed=0)
        for X in ([[0.0, 1.0, 2.0]], [[0.0]]):
            width = len(X[0])
            with pytest.raises(DomainError, match=f"model expects 2 features, got {width}"):
                net.forward_batch(X, [0.5])
            with pytest.raises(DomainError, match=f"model expects 2 features, got {width}"):
                net.forward_batch(X, [0.5], 0.1)

    def test_multi_head_answers_at_the_levels_asked(self):
        net = QuantileNetwork([2, 4, 3], grid=QuantileGrid([0.05, 0.5, 0.95]), seed=0)
        X = make_dataset(3, n=5, d=2).features
        assert np.array_equal(net.forward_batch(X, [0.95, 0.05]),
                              net.forward_batch(X)[:, [2, 0]])
        with pytest.raises(DomainError, match="level 0.3 not on the grid"):
            net.forward_batch(X, [0.3])

    @pytest.mark.parametrize("levels", [[1.5, np.nan], [np.nan], [0.5, -0.1]])
    def test_implicit_levels_outside_the_unit_interval(self, levels):
        net = QuantileNetwork([1, 4, 1], head="implicit", embedding_dim=3,
                              monotone="penalty", seed=0)
        for run in (lambda: net.forward_batch([[0.0]], levels),
                    lambda: net.forward_batch([[0.0]], levels, 0.1)):
            with pytest.raises(DomainError, match=r"levels must lie in \[0, 1\]"):
                run()

    def test_implicit_evaluates_any_level(self):
        net = QuantileNetwork([1, 6, 1], head="implicit", embedding_dim=4,
                              monotone="penalty", seed=2)
        lo, hi = net.forward_batch([[0.5]], [], 0.37).T
        assert np.all(lo <= hi)

    def test_single_row_form(self):
        grid = QuantileGrid([0.05, 0.5, 0.95])
        net = QuantileNetwork([2, 6, 3], grid=grid, seed=9)
        lo, hi = net.forward_batch([[0.3, -1.0]], [], 0.1).T
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
        net.x_mean, net.x_std = np.array([0.1, -0.2, 0.3]), np.array([1.5, 0.5, 2.0])
        X = RandomSource(6).stream("rows").standard_normal((200, 3)) * 3.0
        lo, hi = net.forward_batch(X, [], alpha).T
        ref = np.array([np.sort(net.forward_batch(x[None, :],
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
        net.x_mean, net.x_std = np.array([0.5, -1.0]), np.array([2.0, 3.0])
        net.features = ("u", "v")
        path = os.path.join(tmp_path, "model.qnet")
        qnn.save(net, path)
        other = qnn.load(path)
        for a, b in zip(net.parameters(), other.parameters()):
            assert np.array_equal(a, b)
            assert np.shares_memory(b, other.theta)
        assert np.array_equal(net.x_mean, other.x_mean)
        assert other.features == ("u", "v")
        assert other.layer_dims == net.layer_dims
        assert other.monotone == net.monotone
        # write-then-read-then-write reproduces the file bytes
        path2 = os.path.join(tmp_path, "model2.qnet")
        qnn.save(other, path2)
        assert open(path, "rb").read() == open(path2, "rb").read()
        # the loaded model trains as the original does: training updates
        # theta, which the loaded arrays must be views of
        ds = make_dataset(8, n=24, d=2)
        cfg = TrainingConfig(learning_rate=0.05, epochs=3, batch_size=8, seed=1)
        _, trace = train(net, ds, grid, cfg)
        _, other_trace = train(other, ds, grid, cfg)
        assert trace == other_trace and trace[-1] != trace[0]
        for a, b in zip(net.parameters(), other.parameters()):
            assert np.array_equal(a, b)

    def test_fresh_model_standardizes_as_the_identity(self, tmp_path):
        net = QuantileNetwork([2, 4, 1], grid=QuantileGrid([0.5]), seed=0)
        assert net.x_mean.tolist() == [0.0, 0.0] and net.x_std.tolist() == [1.0, 1.0]
        X = np.array([[-0.0, 3.5], [1e300, -2.0]])
        assert np.array_equal((X - net.x_mean) / net.x_std, X)
        path = os.path.join(tmp_path, "model.qnet")
        qnn.save(net, path)
        other = qnn.load(path)
        assert np.array_equal(other.forward_batch(X), net.forward_batch(X))

    def test_null_standardization_rejected(self, tmp_path):
        net = QuantileNetwork([2, 4, 1], grid=QuantileGrid([0.5]), seed=0)
        path = os.path.join(tmp_path, "model.qnet")
        qnn.save(net, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["standardization"] = None
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(DomainError, match="malformed model"):
            qnn.load(path)

    @pytest.mark.parametrize("edit", [
        # 16M parameters would take 128 MB, and as much again for their draws
        {"layer_dims": [2, 4000, 4000, 1]},
        # no layer, so no second-to-last width for the implicit head's embedding
        {"layer_dims": [2], "weights": [], "biases": []},
    ], ids=["oversized", "no-layer"])
    def test_layer_dims_rejected_before_allocation(self, tmp_path, edit):
        net = QuantileNetwork([2, 8, 1], head="implicit", embedding_dim=4,
                              monotone="penalty", seed=0)
        path = os.path.join(tmp_path, "model.qnet")
        qnn.save(net, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc.update(edit)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="malformed model"):
                qnn.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_deeply_nested_json_rejected(self, tmp_path):
        # json.load raises RecursionError, not ValueError, past its nesting limit
        path = os.path.join(tmp_path, "deep.qnet")
        with open(path, "w") as fh:
            fh.write("[" * 100_000 + "]" * 100_000)
        with pytest.raises(DomainError, match="not a JSON model file"):
            qnn.load(path)

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

    def test_grid_rejects_nan(self):
        with pytest.raises(DomainError, match=r"strictly inside \(0, 1\)"):
            QuantileGrid([np.nan])

    def test_dataset_checks(self):
        with pytest.raises(DomainError):
            Dataset([[1.0], [2.0]], [1.0])
        with pytest.raises(DomainError):
            Dataset([[np.inf]], [1.0])

    def test_dataset_names_count(self):
        # no names, or one per feature column
        with pytest.raises(DomainError, match="2 feature names for 4 features"):
            Dataset(np.zeros((3, 4)), np.zeros(3), ("a", "b"))
        assert Dataset(np.zeros((3, 2)), np.zeros(3), ("a", "b")).names == ("a", "b")
        assert Dataset(np.zeros((3, 2)), np.zeros(3)).names == ()

    def test_config_checks(self):
        with pytest.raises(DomainError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(DomainError):
            TrainingConfig(epochs=0)

    def test_multi_head_needs_matching_output(self):
        with pytest.raises(DomainError):
            QuantileNetwork([1, 4, 2], grid=QuantileGrid([0.5]))

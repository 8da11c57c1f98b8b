"""Feedforward quantile regression network built on plain numpy arrays:
multi-quantile heads or an implicit cosine-embedding head, pinball and
quantile-Huber losses, manual backpropagation, adaptive-moment training,
and structurally non-crossing outputs in increments mode."""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import DomainError, RandomSource

FORMAT_TAG = "qnet-v1"


class TrainingError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch, batch, message):
        super().__init__(f"epoch {epoch}, batch {batch}: {message}")
        self.epoch = epoch
        self.batch = batch


# ---------------------------------------------------------------------------
# Small data containers
# ---------------------------------------------------------------------------

class QuantileGrid:
    """Strictly increasing probability levels in (0, 1)."""

    def __init__(self, levels):
        lv = np.asarray(levels, dtype=float)
        if lv.size == 0:
            raise DomainError("quantile grid needs at least one level")
        if np.any(lv <= 0) or np.any(lv >= 1):
            raise DomainError("levels must lie strictly inside (0, 1)")
        if np.any(np.diff(lv) <= 0):
            raise DomainError("levels must be strictly increasing")
        self.levels = lv

    def __len__(self):
        return self.levels.size

    def index_of(self, tau, tol=1e-9):
        hits = np.nonzero(np.abs(self.levels - tau) <= tol)[0]
        if hits.size == 0:
            raise DomainError(
                f"level {tau} not on the grid; available: {self.levels.tolist()}"
            )
        return int(hits[0])


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # n x d
    targets: np.ndarray   # n
    feature_names: tuple | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.features, dtype=float))
        y = np.asarray(self.targets, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise DomainError(
                f"{X.shape[0]} feature rows but {y.shape[0]} targets"
            )
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DomainError("dataset contains non-finite entries")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)

    @property
    def n(self):
        return self.targets.size

    @property
    def d(self):
        return self.features.shape[1]


@dataclass
class TrainingConfig:
    learning_rate: float = 0.01
    batch_size: int = 64
    epochs: int = 100
    huber_kappa: float = 0.0  # 0 selects pure pinball loss
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DomainError("learning_rate must be positive")
        if self.epochs < 1:
            raise DomainError("epochs must be at least 1")
        if self.batch_size < 1:
            raise DomainError("batch_size must be at least 1")
        if self.huber_kappa < 0:
            raise DomainError("huber_kappa must be non-negative")


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def pinball_loss(residual, tau):
    """rho_tau(u) = u * (tau - 1[u < 0]), identically max(tau*u, (tau-1)*u)."""
    u = np.asarray(residual, dtype=float)
    t = np.asarray(tau, dtype=float)
    out = np.where(u >= 0, t * u, (t - 1.0) * u)
    return float(out) if out.ndim == 0 else out


def pinball_grad(residual, tau):
    # subgradient convention: the u >= 0 branch slope tau at the kink
    u = np.asarray(residual, dtype=float)
    t = np.asarray(tau, dtype=float)
    return np.where(u >= 0, t, t - 1.0)


def quantile_huber_loss(residual, tau, kappa):
    """|tau - 1[u<0]| * H_kappa(u) / kappa with the Huber norm H_kappa."""
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    u = np.asarray(residual, dtype=float)
    t = np.asarray(tau, dtype=float)
    au = np.abs(u)
    huber = np.where(au <= kappa, 0.5 * u * u, kappa * (au - 0.5 * kappa))
    out = np.abs(t - (u < 0)) * huber / kappa
    return float(out) if out.ndim == 0 else out


def quantile_huber_grad(residual, tau, kappa):
    u = np.asarray(residual, dtype=float)
    t = np.asarray(tau, dtype=float)
    hprime = np.clip(u, -kappa, kappa)
    return np.abs(t - (u < 0)) * hprime / kappa


def _softplus(z):
    return np.logaddexp(0.0, z)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


_ACT = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
}


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

class QuantileNetwork:
    """Dense network predicting conditional quantiles.

    head "multi": the last layer emits one raw value per grid level; in
    increments monotone mode raw[0] is the base quantile and softplus of
    the remaining raw values are cumulative non-negative increments, so
    outputs never cross. head "implicit": a trunk embeds the features, a
    cosine basis cos(pi*i*tau) embeds the level, the two are combined by
    elementwise product and a final linear layer emits one scalar; only
    penalty monotone mode applies there.
    """

    def __init__(self, layer_dims, grid=None, activation="relu", head="multi",
                 embedding_dim=64, monotone="increments", penalty_weight=1.0,
                 seed=0):
        if len(layer_dims) < 2:
            raise DomainError("need at least input and output dims")
        if activation not in _ACT:
            raise DomainError(f"unknown activation {activation!r}")
        if head not in ("multi", "implicit"):
            raise DomainError(f"unknown head mode {head!r}")
        if monotone not in ("increments", "penalty"):
            raise DomainError(f"unknown monotone mode {monotone!r}")
        if penalty_weight < 0:
            raise DomainError("penalty_weight must be non-negative")
        if head == "multi":
            if grid is None:
                raise DomainError("multi-head mode requires a quantile grid")
            if layer_dims[-1] != len(grid):
                raise DomainError(
                    f"output dim {layer_dims[-1]} != grid size {len(grid)}"
                )
        else:
            if layer_dims[-1] != 1:
                raise DomainError("implicit mode requires output dim 1")
            if embedding_dim < 1:
                raise DomainError("embedding_dim must be at least 1")
            if monotone == "increments":
                raise DomainError(
                    "increments mode is structural to multi-head outputs; "
                    "use penalty mode with an implicit head"
                )

        self.layer_dims = list(int(d) for d in layer_dims)
        self.grid = grid
        self.activation = activation
        self.head = head
        self.embedding_dim = int(embedding_dim)
        self.monotone = monotone
        self.penalty_weight = float(penalty_weight)
        self.x_mean = None
        self.x_std = None

        rng = RandomSource(seed).stream("init")
        self.weights, self.biases = [], []
        for din, dout in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            bound = 1.0 / np.sqrt(din)
            self.weights.append(rng.uniform(-bound, bound, size=(din, dout)))
            self.biases.append(np.zeros(dout))
        if head == "implicit":
            h = self.layer_dims[-2]
            bound = 1.0 / np.sqrt(self.embedding_dim)
            self.embed_w = rng.uniform(-bound, bound, size=(self.embedding_dim, h))
            self.embed_b = np.zeros(h)
        else:
            self.embed_w = None
            self.embed_b = None

    # -- parameter plumbing -------------------------------------------------

    def parameters(self):
        params = []
        for W, b in zip(self.weights, self.biases):
            params.extend([W, b])
        if self.head == "implicit":
            params.extend([self.embed_w, self.embed_b])
        return params

    def set_standardization(self, mean, std):
        self.x_mean = np.asarray(mean, dtype=float)
        self.x_std = np.asarray(std, dtype=float)

    def _standardize(self, X):
        if self.x_mean is None:
            return X
        return (X - self.x_mean) / self.x_std

    # -- forward ------------------------------------------------------------

    def _trunk_forward(self, X):
        """Hidden stack up to (and excluding) the final linear layer."""
        act, _ = _ACT[self.activation]
        zs, activations = [], [X]
        a = X
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            z = a @ W + b
            a = act(z)
            zs.append(z)
            activations.append(a)
        return a, zs, activations

    def _cosine_features(self, taus):
        i = np.arange(self.embedding_dim)
        return np.cos(np.pi * np.outer(np.asarray(taus, dtype=float), i))

    def forward_batch(self, X, taus=None):
        """Predicted quantiles, one row per input, one column per level."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.layer_dims[0]:
            raise DomainError(
                f"input dim {X.shape[1]} != expected {self.layer_dims[0]}"
            )
        if self.head == "implicit" and taus is None:
            raise DomainError("implicit mode requires explicit levels")
        return _forward(self, X, taus)[0]

    def quantiles_at(self, X, levels):
        """Predictions at specific levels; multi-head requires grid membership."""
        levels = np.asarray(levels, dtype=float).ravel()
        if self.head == "implicit":
            return self.forward_batch(X, levels)
        q = self.forward_batch(X)
        idx = [self.grid.index_of(t) for t in levels]
        return q[:, idx]


# ---------------------------------------------------------------------------
# The forward pass, the loss, and its gradient (manual backprop)
# ---------------------------------------------------------------------------

def _levels(taus):
    return taus.levels if isinstance(taus, QuantileGrid) else np.asarray(taus, float).ravel()


def _forward(net: QuantileNetwork, X, levels):
    """Quantiles of the rows of X (n x K) and the cache backprop needs.

    The one forward pass, shared by inference, training and the epoch
    loss. X is in input units and is standardized here; levels are read
    only by the implicit head.
    """
    psi, zs, activations = net._trunk_forward(net._standardize(X))
    if net.head == "multi":
        raw = psi @ net.weights[-1] + net.biases[-1]
        q = raw
        if net.monotone == "increments":
            q = np.empty_like(raw)
            q[:, 0] = raw[:, 0]
            if raw.shape[1] > 1:
                q[:, 1:] = raw[:, [0]] + np.cumsum(_softplus(raw[:, 1:]), axis=1)
        return q, (zs, activations, raw)
    cos_feat = net._cosine_features(levels)
    ze = cos_feat @ net.embed_w + net.embed_b
    phi = np.maximum(ze, 0.0)
    h = psi[:, None, :] * phi[None, :, :]          # n x K x H
    q = h @ net.weights[-1][:, 0] + net.biases[-1][0]
    return q, (zs, activations, cos_feat, ze, phi, h)


def _loss(net: QuantileNetwork, q, y, levels, kappa):
    """Mean configured loss over samples and levels, plus the crossing
    penalty in penalty mode. Also returns what the gradient reuses: the
    residuals and the crossing violations (None outside penalty mode)."""
    u = y[:, None] - q
    loss = quantile_huber_loss(u, levels, kappa) if kappa > 0 else pinball_loss(u, levels)
    loss, viol = float(loss.mean()), None
    if net.monotone == "penalty":
        viol = np.maximum(q[:, :-1] - q[:, 1:], 0.0)
        loss += net.penalty_weight * float(np.sum(viol ** 2)) / q.shape[0]
    return loss, u, viol


def _trunk_backward(net: QuantileNetwork, delta, zs, activations):
    """Hidden-layer gradients [W0, b0, W1, b1, ...] from delta, the
    gradient with respect to the trunk's output."""
    _, dact = _ACT[net.activation]
    grads = []
    for layer in range(len(net.weights) - 2, -1, -1):
        delta = delta * dact(zs[layer])
        grads[:0] = [activations[layer].T @ delta, delta.sum(axis=0)]
        if layer > 0:
            delta = delta @ net.weights[layer].T
    return grads


def loss_and_gradient(net: QuantileNetwork, batch: Dataset, taus, config: TrainingConfig):
    """Mean configured loss over the batch and grid, plus the crossing
    penalty in penalty mode, with gradients in the network's parameter
    order. batch needs only .features and .targets arrays."""
    y = batch.targets
    if y.size == 0:
        raise DomainError("batch must be non-empty")
    levels = _levels(taus)
    kappa = config.huber_kappa
    q, cache = _forward(net, batch.features, levels)
    loss, u, viol = _loss(net, q, y, levels, kappa)
    dldu = quantile_huber_grad(u, levels, kappa) if kappa > 0 else pinball_grad(u, levels)
    dq = -dldu * (1.0 / u.size)
    if viol is not None:
        dq_pen = np.zeros_like(q)
        g = 2.0 * net.penalty_weight * viol / q.shape[0]
        dq_pen[:, :-1] += g
        dq_pen[:, 1:] -= g
        dq = dq + dq_pen

    if net.head == "multi":
        zs, activations, raw = cache
        draw = dq
        if net.monotone == "increments":
            # q_k = raw_0 + sum_{j<=k, j>=1} softplus(raw_j)
            tail = np.cumsum(dq[:, ::-1], axis=1)[:, ::-1]
            draw = np.empty_like(dq)
            draw[:, 0] = tail[:, 0]
            if raw.shape[1] > 1:
                draw[:, 1:] = tail[:, 1:] * _sigmoid(raw[:, 1:])
        grads = _trunk_backward(net, draw @ net.weights[-1].T, zs, activations)
        return loss, grads + [activations[-1].T @ draw, draw.sum(axis=0)]

    zs, activations, cos_feat, ze, phi, h = cache
    psi = activations[-1]
    w_out = net.weights[-1][:, 0]
    gw_out = np.einsum("nkh,nk->h", h, dq)[:, None]
    gb_out = np.array([dq.sum()])
    dh = dq[:, :, None] * w_out[None, None, :]
    dpsi = np.einsum("nkh,kh->nh", dh, phi)
    dphi = np.einsum("nkh,nh->kh", dh, psi)
    dze = dphi * (ze > 0)
    grads = _trunk_backward(net, dpsi, zs, activations)
    return loss, grads + [gw_out, gb_out, cos_feat.T @ dze, dze.sum(axis=0)]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class _Rows(NamedTuple):
    """Rows taken from an already validated Dataset."""
    features: np.ndarray
    targets: np.ndarray


def _full_loss(net, data, levels, kappa):
    """The training loss over all of data: a forward pass, no gradients."""
    q, _ = _forward(net, data.features, levels)
    return _loss(net, q, data.targets, levels, kappa)[0]


def train(net: QuantileNetwork, data: Dataset, taus, config: TrainingConfig):
    """Seeded minibatch training; returns (net, per-epoch loss trace).

    The trace starts with the pre-training loss. If the final epoch is
    worse than the starting point the best-seen parameters are restored,
    so the final loss never exceeds the initial one.
    """
    if data.n == 0:
        raise DomainError("training data must be non-empty")
    mean = data.features.mean(axis=0)
    std = data.features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    net.set_standardization(mean, std)

    params = net.parameters()
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    levels = _levels(taus)
    rng = RandomSource(config.seed).stream("train")
    trace = [_full_loss(net, data, levels, config.huber_kappa)]
    best_loss = trace[0]
    best_params = [p.copy() for p in params]

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(data.n)
        for start in range(0, data.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = _Rows(data.features[idx], data.targets[idx])
            loss, grads = loss_and_gradient(net, batch, levels, config)
            if not np.isfinite(loss):
                raise TrainingError(epoch, start // config.batch_size,
                                    f"non-finite loss {loss}")
            step += 1
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= beta1
                mi += (1 - beta1) * g
                vi *= beta2
                vi += (1 - beta2) * g * g
                mhat = mi / (1 - beta1 ** step)
                vhat = vi / (1 - beta2 ** step)
                p -= config.learning_rate * mhat / (np.sqrt(vhat) + eps)
        epoch_loss = _full_loss(net, data, levels, config.huber_kappa)
        if not np.isfinite(epoch_loss):
            raise TrainingError(epoch, -1, f"non-finite epoch loss {epoch_loss}")
        trace.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_params = [p.copy() for p in params]

    if trace[-1] > trace[0]:
        for p, bp in zip(params, best_params):
            p[...] = bp
        trace.append(best_loss)
    return net, trace


def predict_intervals(net: QuantileNetwork, X, alpha):
    """Uncalibrated central intervals [q_{alpha/2}(x), q_{1-alpha/2}(x)],
    one per row of X, as arrays (lo, hi). Penalty-mode nets may cross, so
    each pair is ordered."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie strictly inside (0, 1)")
    q = net.quantiles_at(X, [alpha / 2, 1 - alpha / 2])
    return np.minimum(q[:, 0], q[:, 1]), np.maximum(q[:, 0], q[:, 1])


def predict_interval(net: QuantileNetwork, x, alpha):
    """predict_intervals for the single input row x, as floats (lo, hi)."""
    # no command calls this; bench/test_bench.py wraps it to test the tracer
    lo, hi = predict_intervals(net, np.asarray(x, dtype=float).reshape(1, -1), alpha)
    return float(lo[0]), float(hi[0])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _encode(a):
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode()}


def _decode(obj):
    a = np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8")
    return a.reshape(obj["shape"]).copy()


def save(net: QuantileNetwork, path):
    doc = {
        "format": FORMAT_TAG,
        "layer_dims": net.layer_dims,
        "activation": net.activation,
        "head": net.head,
        "grid": None if net.grid is None else net.grid.levels.tolist(),
        "embedding_dim": net.embedding_dim,
        "monotone": net.monotone,
        "penalty_weight": net.penalty_weight,
        "standardization": None if net.x_mean is None else {
            "mean": _encode(net.x_mean), "std": _encode(net.x_std),
        },
        "weights": [_encode(W) for W in net.weights],
        "biases": [_encode(b) for b in net.biases],
        "embed": None if net.embed_w is None else {
            "w": _encode(net.embed_w), "b": _encode(net.embed_b),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load(path) -> QuantileNetwork:
    """Read a model written by save; a missing, unreadable or malformed
    file raises DomainError naming the path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read model {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise DomainError(f"{path}: not a JSON model file: {exc}") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != FORMAT_TAG:
        raise DomainError(f"{path}: unrecognized model format {fmt!r}")
    try:
        grid = None if doc["grid"] is None else QuantileGrid(doc["grid"])
        net = QuantileNetwork(
            doc["layer_dims"], grid=grid, activation=doc["activation"],
            head=doc["head"], embedding_dim=doc["embedding_dim"],
            monotone=doc["monotone"], penalty_weight=doc["penalty_weight"],
        )
        net.weights = [_decode(o) for o in doc["weights"]]
        net.biases = [_decode(o) for o in doc["biases"]]
        if doc["embed"] is not None:
            net.embed_w = _decode(doc["embed"]["w"])
            net.embed_b = _decode(doc["embed"]["b"])
        if doc["standardization"] is not None:
            net.x_mean = _decode(doc["standardization"]["mean"])
            net.x_std = _decode(doc["standardization"]["std"])
    except KeyError as exc:
        raise DomainError(f"{path}: model lacks field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{path}: malformed model: {exc}") from None
    return net

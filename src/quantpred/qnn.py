"""Feedforward quantile regression network built on plain numpy arrays:
multi-quantile heads or an implicit cosine-embedding head, pinball and
quantile-Huber losses, manual backpropagation, adaptive-moment training,
and structurally non-crossing outputs in increments mode."""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, RandomSource, check_alpha

FORMAT_TAG = "qnet-v2"
# values of the widest layer per row block of a full-data pass: 512 KB per
# layer array, so the work arrays stay in cache (1024 rows at width 64)
_BLOCK = 2 ** 16


class TrainingError(RuntimeError):
    """Training produced a non-finite loss."""


# ---------------------------------------------------------------------------
# Small data containers
# ---------------------------------------------------------------------------

class QuantileGrid:
    """Strictly increasing probability levels in (0, 1)."""

    def __init__(self, levels):
        lv = np.asarray(levels, dtype=float)
        if lv.size == 0:
            raise DomainError("quantile grid needs at least one level")
        if not np.all((lv > 0) & (lv < 1)):  # NaN too
            raise DomainError(f"levels must lie strictly inside (0, 1), got {lv.tolist()}")
        if np.any(np.diff(lv) <= 0):
            raise DomainError(f"levels must be strictly increasing, got {lv.tolist()}")
        self.levels = lv

    def __len__(self):
        return self.levels.size


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # n x d
    targets: np.ndarray   # n
    names: tuple = ()     # the feature columns' names

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.features, dtype=float))
        y = np.asarray(self.targets, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise DomainError(
                f"{X.shape[0]} feature rows but {y.shape[0]} targets"
            )
        if y.size == 0:
            raise DomainError("dataset needs at least one row")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DomainError("dataset contains non-finite entries")
        if len(self.names) not in (0, X.shape[1]):
            raise DomainError(f"{len(self.names)} feature names for {X.shape[1]} features")
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
        if not self.learning_rate > 0:
            raise DomainError("learning_rate must be positive")
        if self.epochs < 1:
            raise DomainError("epochs must be at least 1")
        if self.batch_size < 1:
            raise DomainError("batch_size must be at least 1")
        if not self.huber_kappa >= 0:
            raise DomainError("huber_kappa must be non-negative")


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def pinball_loss(residual, tau):
    """rho_tau(u) = u * (tau - 1[u < 0]), identically max(tau*u, (tau-1)*u)."""
    u = np.asarray(residual, dtype=float)
    out = u * (np.asarray(tau, dtype=float) - (u < 0))
    return float(out) if out.ndim == 0 else out


def _huber_loss(u, slope, kappa):
    """The quantile-Huber loss |tau - 1[u<0]| * H_kappa(u) / kappa with the
    Huber norm H_kappa, given the pinball slope tau - 1[u < 0]."""
    au = np.abs(u)
    huber = np.where(au <= kappa, 0.5 * u * u, kappa * (au - 0.5 * kappa))
    return np.abs(slope) * huber / kappa


def _softplus(z):
    return np.logaddexp(0.0, z)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


_ACT = {  # each activation, in place, and its derivative as a function of the activation
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: a > 0),
    "tanh": (lambda z: np.tanh(z, out=z), lambda a: 1.0 - a ** 2),
}


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

def _shapes(layer_dims, head, embedding_dim):
    """The parameter shapes: W0, b0, W1, b1, ..., then the implicit head's embed_w, embed_b."""
    shapes = []
    for din, dout in zip(layer_dims[:-1], layer_dims[1:]):
        shapes += [(din, dout), (dout,)]
    if head == "implicit":
        shapes += [(embedding_dim, layer_dims[-2]), (layer_dims[-2],)]
    return shapes


class QuantileNetwork:
    """Dense network predicting conditional quantiles.

    head "multi": the last layer emits one raw value per grid level; in
    increments monotone mode raw[0] is the base quantile and softplus of
    the remaining raw values are cumulative non-negative increments, so
    outputs never cross. head "implicit": the same output layer, with
    weights the levels generate. Each level tau is embedded as
    phi(tau) = relu(cos(pi*i*tau) @ embed_w + embed_b), and the output
    weights' column for tau is w * phi(tau), so one trunk pass serves any
    set of levels; only penalty monotone mode applies there.
    """

    def __init__(self, layer_dims, grid=None, activation="relu", head="multi",
                 embedding_dim=64, monotone="increments", penalty_weight=1.0,
                 seed=0):
        if len(layer_dims) < 2:
            raise DomainError("need at least input and output dims")
        if min(layer_dims) < 1:
            raise DomainError(f"layer sizes must be positive, got {list(layer_dims)}")
        if activation not in _ACT:
            raise DomainError(f"unknown activation {activation!r}")
        if head not in ("multi", "implicit"):
            raise DomainError(f"unknown head mode {head!r}")
        if monotone not in ("increments", "penalty"):
            raise DomainError(f"unknown monotone mode {monotone!r}")
        if not penalty_weight >= 0:
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
        # the identity and no names until train (or load) describes the features
        self.x_mean = np.zeros(self.layer_dims[0])
        self.x_std = np.ones(self.layer_dims[0])
        self.features = ()

        # every parameter is a view of the one vector theta
        shapes = _shapes(self.layer_dims, head, self.embedding_dim)
        ends = np.cumsum([0] + [math.prod(s) for s in shapes])
        self.theta = np.zeros(ends[-1])
        self._params = [self.theta[a:b].reshape(s)
                        for a, b, s in zip(ends[:-1], ends[1:], shapes)]
        rng = RandomSource(seed).stream("init")
        for W in self._params[::2]:
            bound = 1.0 / np.sqrt(W.shape[0])
            W[...] = rng.uniform(-bound, bound, size=W.shape)
        layers = len(self.layer_dims) - 1
        self.weights = self._params[0:2 * layers:2]
        self.biases = self._params[1:2 * layers:2]
        self.embed_w, self.embed_b = self._params[2 * layers:] or (None, None)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self):
        """The live views of theta, in gradient order."""
        return list(self._params)

    # -- forward ------------------------------------------------------------

    def _trunk_forward(self, X):
        """X, then the activation of each hidden layer (not the output layer).
        Each layer's pre-activation array becomes its activation in place:
        backprop reads only the activations."""
        act, _ = _ACT[self.activation]
        activations = [X]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            # matmul forms a one-column input's outer product in a plain loop, 3-5x
            # slower than np.dot's BLAS call; one product per entry, the same bits
            z = np.dot(activations[-1], W) if W.shape[0] == 1 else activations[-1] @ W
            z += b
            activations.append(act(z))
        return activations

    def _cosine_features(self, taus):
        i = np.arange(self.embedding_dim)
        return np.cos(np.pi * np.outer(np.asarray(taus, dtype=float), i))

    def forward_batch(self, X, taus=None, alpha=None):
        """Predicted quantiles, one row per input, one column per level of
        taus; the multi head's whole grid without taus.

        With alpha, two more columns follow from the same network pass: the
        central interval [q_{alpha/2}(x), q_{1-alpha/2}(x)]. Penalty-mode
        nets may cross, so each pair is ordered. An off-grid level is
        reported before a bad alpha, and both before the inputs are checked.
        """
        if self.head == "implicit" and taus is None:
            raise DomainError("implicit mode requires explicit levels")
        levels = self.grid.levels if taus is None else _levels(taus)
        if alpha is not None:
            self._columns(levels)  # an off-grid level before a bad alpha
            check_alpha(alpha)
            levels = np.append(levels, [alpha / 2, 1 - alpha / 2])
        cols = self._columns(levels)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self._check_width(X)
        q = _predict(self, X, levels)
        q = q if cols is None else q[:, cols]
        if alpha is not None:
            q[:, -2], q[:, -1] = np.minimum(q[:, -2], q[:, -1]), np.maximum(q[:, -2], q[:, -1])
        return q

    def _columns(self, levels):
        """The grid column of each level; the implicit head takes any level
        in [0, 1] and has no columns (None)."""
        if self.head == "implicit":
            if not np.all((levels >= 0) & (levels <= 1)):  # NaN too
                raise DomainError(f"levels must lie in [0, 1], got {levels.tolist()}")
            return None
        hits = np.abs(levels[:, None] - self.grid.levels) <= 1e-9
        if missing := levels[~hits.any(axis=1)].tolist():
            raise DomainError(f"level {missing[0]} not on the grid; "
                              f"available: {self.grid.levels.tolist()}")
        return hits.argmax(axis=1).tolist()

    def _check_width(self, X):
        if X.shape[1] != self.layer_dims[0]:
            raise DomainError(f"model expects {self.layer_dims[0]} features, got {X.shape[1]}")


# ---------------------------------------------------------------------------
# The forward pass, the loss, and its gradient (manual backprop)
# ---------------------------------------------------------------------------

def _levels(taus):
    return taus.levels if isinstance(taus, QuantileGrid) else np.asarray(taus, float).ravel()


def _training_levels(net: QuantileNetwork, taus):
    """taus's levels, checked once per train or loss_and_gradient call: a QuantileGrid's,
    increasing as penalty mode needs, and for a multi head exactly its grid."""
    levels = QuantileGrid(_levels(taus)).levels
    if net.head == "multi" and net._columns(levels) != list(range(len(net.grid))):
        raise DomainError(f"training levels {levels.tolist()} are not the grid "
                          f"{net.grid.levels.tolist()}")
    return levels


def _forward(net: QuantileNetwork, X, levels):
    """Quantiles of the rows of X (n x K) and the cache backprop needs.

    The one forward pass, shared by inference, training and the epoch
    loss. X is in input units and is standardized here; levels are read
    only by the implicit head.
    """
    activations = net._trunk_forward((X - net.x_mean) / net.x_std)
    W, cos_feat, phi = net.weights[-1], None, None
    if net.head == "implicit":
        # the levels generate the output weights: column k is w * phi(tau_k)
        cos_feat = net._cosine_features(levels)
        phi = np.maximum(cos_feat @ net.embed_w + net.embed_b, 0.0)  # K x H
        W = W * phi.T
    raw = activations[-1] @ W
    raw += net.biases[-1]
    q = raw
    if net.monotone == "increments":
        q = np.empty_like(raw)
        q[:, 0] = raw[:, 0]
        q[:, 1:] = raw[:, :1] + np.cumsum(_softplus(raw[:, 1:]), axis=1)
    return q, (activations, raw, W, cos_feat, phi)


def _predict(net: QuantileNetwork, X, levels):
    """The quantiles _forward gives for the rows of X, computed in blocks of
    _BLOCK values of the widest layer, so a full-data pass holds one
    block's work arrays, not n rows of each."""
    n, rows = X.shape[0], max(1, _BLOCK // max(net.layer_dims[1:]))
    out = np.empty((n, net.layer_dims[-1] if net.head == "multi" else np.size(levels)))
    for start in range(0, n, rows):
        out[start:start + rows] = _forward(net, X[start:start + rows], levels)[0]
    return out


def _loss(net: QuantileNetwork, q, y, levels, kappa):
    """Mean configured loss over samples and levels, plus the crossing
    penalty in penalty mode. Also returns what the gradient reuses: the
    residuals, the pinball slope tau - 1[u < 0] and the crossing
    violations (None outside penalty mode)."""
    u = y[:, None] - q
    slope = levels - (u < 0)
    loss = _huber_loss(u, slope, kappa) if kappa > 0 else u * slope
    loss, viol = float(loss.sum()) / loss.size, None  # what loss.mean() computes
    if net.monotone == "penalty":
        viol = np.maximum(q[:, :-1] - q[:, 1:], 0.0)
        loss += net.penalty_weight * float(np.sum(viol ** 2)) / q.shape[0]
    return loss, u, slope, viol


def _trunk_backward(net: QuantileNetwork, delta, activations):
    """Hidden-layer gradients [W0, b0, W1, b1, ...] from delta, the
    gradient with respect to the trunk's output."""
    _, dact = _ACT[net.activation]
    grads = []
    for layer in range(len(net.weights) - 2, -1, -1):
        delta = delta * dact(activations[layer + 1])
        grads[:0] = [activations[layer].T @ delta, delta.sum(axis=0)]
        if layer > 0:
            delta = delta @ net.weights[layer].T
    return grads


def loss_and_gradient(net: QuantileNetwork, batch: Dataset, taus, config: TrainingConfig):
    """Mean configured loss over the batch and levels, plus the crossing
    penalty in penalty mode, with gradients in the network's parameter
    order. The levels and the batch's width are checked as train checks them."""
    levels = _training_levels(net, taus)
    net._check_width(batch.features)
    return _loss_and_gradient(net, batch.features, batch.targets, levels, config.huber_kappa)


def _loss_and_gradient(net: QuantileNetwork, X, y, levels, kappa):
    """loss_and_gradient at the rows X, y, whose inputs its callers have checked."""
    q, cache = _forward(net, X, levels)
    loss, u, slope, viol = _loss(net, q, y, levels, kappa)
    # the subgradient at the kink u = 0 is tau, the u >= 0 branch's slope
    dldu = np.abs(slope) * np.clip(u, -kappa, kappa) / kappa if kappa > 0 else slope
    dq = dldu * (-1.0 / u.size)
    if viol is not None:
        dq_pen = np.zeros_like(q)
        g = 2.0 * net.penalty_weight * viol / q.shape[0]
        dq_pen[:, :-1] += g
        dq_pen[:, 1:] -= g
        dq = dq + dq_pen

    activations, raw, W, cos_feat, phi = cache
    draw = dq
    if net.monotone == "increments":
        # q_k = raw_0 + sum_{j<=k, j>=1} softplus(raw_j)
        tail = np.cumsum(dq[:, ::-1], axis=1)[:, ::-1]
        draw = tail.copy()
        draw[:, 1:] *= _sigmoid(raw[:, 1:])
    grads = _trunk_backward(net, draw @ W.T, activations)
    gW, gb = activations[-1].T @ draw, draw.sum(axis=0)
    if net.head == "multi":
        return loss, grads + [gW, gb]
    # the implicit head: gW and gb back to w, b and the embedding through W
    dze = gW.T * net.weights[-1].T * (phi > 0)
    gw = (gW * phi.T).sum(axis=1, keepdims=True)
    return loss, grads + [gw, gb.sum(keepdims=True), cos_feat.T @ dze, dze.sum(axis=0)]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _full_loss(net, data, levels, kappa):
    """The training loss over all of data: a blocked forward pass, no
    gradients, and one mean over every row."""
    q = _predict(net, data.features, levels)
    return _loss(net, q, data.targets, levels, kappa)[0]


def train(net: QuantileNetwork, data: Dataset, taus, config: TrainingConfig):
    """Seeded minibatch training; returns (net, per-epoch loss trace).

    The trace starts with the pre-training loss. If the final epoch is
    worse than the starting point the best-seen parameters are restored,
    so the final loss never exceeds the initial one.
    """
    levels = _training_levels(net, taus)
    net._check_width(data.features)  # before the net takes the data's standardization
    std = data.features.std(axis=0)
    net.x_mean, net.x_std = data.features.mean(axis=0), np.where(std > 0, std, 1.0)
    net.features = data.names

    theta = net.theta
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    g, t = np.empty_like(theta), np.empty_like(theta)  # the gradient, a work array
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    rng = RandomSource(config.seed).stream("train")
    trace = [_full_loss(net, data, levels, config.huber_kappa)]
    best_loss = trace[0]
    best_theta = theta.copy()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(data.n)
        for start in range(0, data.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, grads = _loss_and_gradient(net, data.features[idx], data.targets[idx],
                                             levels, config.huber_kappa)
            if not math.isfinite(loss):
                raise TrainingError(f"epoch {epoch}, batch {start // config.batch_size}: "
                                    f"non-finite loss {loss}")
            np.concatenate(grads, axis=None, out=g)
            step += 1
            # in place, rounding as m = b1 m + (1-b1) g, v = b2 v + ((1-b2) g) g
            # and theta -= (lr mhat) / (sqrt(vhat) + eps) do
            m *= beta1
            m += np.multiply(1 - beta1, g, out=t)
            v *= beta2
            np.multiply(1 - beta2, g, out=t)
            v += np.multiply(t, g, out=t)
            np.divide(m, 1 - beta1 ** step, out=g)  # mhat
            np.divide(v, 1 - beta2 ** step, out=t)  # vhat
            np.sqrt(t, out=t)
            t += eps
            g *= config.learning_rate
            theta -= np.divide(g, t, out=g)
        # dead units' zero gradients walk their moments into the subnormals, where
        # Adam runs several times slower; kept, such an entry moves theta by at
        # most lr * tiny / eps
        m[np.abs(m) < np.finfo(float).tiny] = 0.0
        v[v < np.finfo(float).tiny] = 0.0
        epoch_loss = _full_loss(net, data, levels, config.huber_kappa)
        if not math.isfinite(epoch_loss):
            raise TrainingError(f"epoch {epoch}, batch -1: non-finite epoch loss {epoch_loss}")
        trace.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_theta = theta.copy()

    if trace[-1] > trace[0]:
        theta[...] = best_theta
        trace.append(best_loss)
    return net, trace


def predict_interval(net: QuantileNetwork, x, alpha):
    """The central interval [q_{alpha/2}(x), q_{1-alpha/2}(x)] of the single
    input row x, as floats (lo, hi)."""
    # no command calls this; bench/test_bench.py wraps it to test the tracer
    return tuple(net.forward_batch(np.reshape(x, (1, -1)), [], alpha)[0].tolist())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _encode(a):
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode()}


def _decode(obj, field, shape):
    """The array obj encodes, which must have the given shape and only
    finite values."""
    a = np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8")
    a = a.reshape(obj["shape"]).copy()
    if a.shape != tuple(shape):
        raise DomainError(f"field {field} has shape {list(a.shape)}, "
                          f"expected {list(shape)}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"field {field} has a non-finite value")
    return a


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
        "standardization": {"mean": _encode(net.x_mean), "std": _encode(net.x_std)},
        "features": list(net.features),
        "theta": _encode(net.theta),  # the parameter arrays in the order of _shapes
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load(path) -> QuantileNetwork:
    """Read a model written by save; an OSError propagates. A malformed
    file, an array whose shape differs from the one the model's layer_dims,
    head and embedding_dim give, a non-finite array value, a std <= 0 or a
    feature name that is not a string raises DomainError naming the path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (RecursionError, ValueError) as exc:  # RecursionError: arrays nested too deep
        raise DomainError(f"{path}: not a JSON model file: {exc}") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != FORMAT_TAG:
        raise DomainError(f"{path}: model format {fmt!r}, not {FORMAT_TAG!r}: retrain the model")
    try:
        grid = None if doc["grid"] is None else QuantileGrid(doc["grid"])
        # checked before the constructor allocates what layer_dims and embedding_dim give
        shapes = _shapes(doc["layer_dims"], doc["head"], doc["embedding_dim"])
        theta = _decode(doc["theta"], "theta", (sum(map(math.prod, shapes)),))
        net = QuantileNetwork(
            doc["layer_dims"], grid=grid, activation=doc["activation"],
            head=doc["head"], embedding_dim=doc["embedding_dim"],
            monotone=doc["monotone"], penalty_weight=doc["penalty_weight"],
        )
        net.theta[...] = theta
        stats, d = doc["standardization"], net.x_mean.shape
        net.x_mean = _decode(stats["mean"], "standardization.mean", d)
        net.x_std = _decode(stats["std"], "standardization.std", d)
        if np.any(net.x_std <= 0):
            raise DomainError("field standardization.std has a value <= 0")
        features = doc["features"]
        if not (isinstance(features, list) and all(isinstance(f, str) for f in features)):
            raise DomainError("field features is not a list of strings")
        net.features = tuple(features)
    except KeyError as exc:
        raise DomainError(f"{path}: model lacks field {exc.args[0]!r}") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise DomainError(f"{path}: malformed model: {exc}") from None
    return net

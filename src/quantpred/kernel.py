"""Nadaraya-Watson kernel regression with the Gaussian kernel."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError

# smallest positive normal double; below this every weight has underflowed
_TINY = np.finfo(float).tiny
# kernel values per block of queries: 512 KB, so the work arrays stay in cache
_BLOCK = 2 ** 16


@dataclass(frozen=True)
class KernelConfig:
    bandwidth: float

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise DomainError("bandwidth must be positive")


def nw_predict(train, Xq, config: KernelConfig) -> np.ndarray:
    """Kernel-weighted averages sum(y_i K(x, x_i)) / sum(K(x, x_i)) at the
    rows x of Xq, with K(x, x') = exp(-||x - x'||^2 / (2 sigma^2)).

    Each query's weights are shifted by its nearest squared distance, which
    cancels in the ratio and makes the nearest weight exactly 1, so a tiny
    bandwidth gives the nearest target, the formula's limit. Queries whose
    unshifted weights would all underflow trigger a RuntimeWarning.
    """
    X, y = train.features, train.targets
    n, d = X.shape
    Q = np.asarray(Xq, dtype=float)
    if n == 0:
        raise DomainError("training set must be non-empty")
    if Q.ndim != 2 or Q.shape[1] != d:
        raise DomainError(f"queries of shape {Q.shape} do not have {d} columns")
    s2 = 2.0 * config.bandwidth ** 2
    XT = np.ascontiguousarray(X.T)
    rows = max(1, _BLOCK // n)
    k = np.empty((min(rows, Q.shape[0]), n))
    tmp = np.empty_like(k)
    out = np.empty(Q.shape[0])
    underflowed = 0
    for start in range(0, Q.shape[0], rows):
        q = Q[start:start + rows]
        kb, tb = k[:q.shape[0]], tmp[:q.shape[0]]
        kb.fill(0.0)
        for j in range(d):  # kb = squared distances
            np.subtract(XT[j], q[:, j:j + 1], out=tb)
            tb *= tb
            kb += tb
        d2min = kb.min(axis=1)
        underflowed += np.count_nonzero(np.exp(-d2min / s2) < _TINY)
        kb -= d2min[:, None]
        kb /= -s2
        np.exp(kb, out=kb)
        out[start:start + q.shape[0]] = (kb @ y) / kb.sum(axis=1)
    if underflowed:
        warnings.warn(f"all kernel weights underflowed for {underflowed} of "
                      f"{Q.shape[0]} queries", RuntimeWarning, stacklevel=2)
    return out


def nw_estimate(train, x, config: KernelConfig) -> float:
    """nw_predict at the single query point x."""
    return float(nw_predict(train, np.reshape(x, (1, -1)), config)[0])

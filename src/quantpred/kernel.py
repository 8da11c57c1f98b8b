"""Nadaraya-Watson kernel regression with the Gaussian kernel."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import conformal
from .numerics import DomainError, check_alpha, cpus, parallel_map

# smallest positive normal double; below this every weight has underflowed
_TINY = np.finfo(float).tiny
# kernel values per block of queries: 512 KB, so the work arrays stay in cache
_BLOCK = 2 ** 16
# kernel values from which nw_predict spreads its blocks over threads. On a
# 2-core x86 host a pool of two threads took 0.17 ms to start and join, and
# 2**24 values about 0.13 s serial and 0.08 s on two threads; at 10**6, the
# size of each NW call in demo coverage's forked workers, the gain was lost
# in the noise, so those calls stay serial.
_THREADED = 2 ** 24


@dataclass(frozen=True)
class KernelConfig:
    bandwidth: float

    def __post_init__(self):
        if not self.bandwidth > 0:  # NaN fails too
            raise DomainError("bandwidth must be positive")


def nw_predict(train, Xq, config: KernelConfig) -> np.ndarray:
    """Kernel-weighted averages sum(y_i K(x, x_i)) / sum(K(x, x_i)) at the
    rows x of Xq, with K(x, x') = exp(-||x - x'||^2 / (2 sigma^2)).

    Each query's weights are shifted by its nearest squared distance, which
    cancels in the ratio and makes the nearest weight exactly 1, so a tiny
    bandwidth gives the nearest target, the formula's limit. Queries whose
    unshifted weights would all underflow trigger a RuntimeWarning.

    From _THREADED kernel values on, the blocks go in one run per available
    CPU to threads of parallel_map; every block holds the queries of the
    serial loop, so the estimates have the same bits on any number of CPUs.
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
    out = np.empty(Q.shape[0])
    blocks = max(1, -(-Q.shape[0] // rows))  # no queries make one empty block
    runs = min(cpus(), blocks) if n * Q.shape[0] >= _THREADED else 1
    per = -(-blocks // runs) * rows
    underflowed = sum(parallel_map(
        lambda a: _nw_blocks(XT, y, Q, s2, rows, out, a, min(a + per, Q.shape[0])),
        range(0, Q.shape[0], per)))
    if underflowed:
        warnings.warn(f"all kernel weights underflowed for {underflowed} of "
                      f"{Q.shape[0]} queries", RuntimeWarning, stacklevel=2)
    return out


def _nw_blocks(XT, y, Q, s2, rows, out, a, b):
    """nw_predict's loop over the blocks of `rows` queries from row a of Q,
    up to row b: their estimates go to out[a:b]; returns how many of them
    had all their unshifted weights underflow. Calls only numpy, so it may
    run on any thread."""
    k = np.empty((min(rows, b - a), XT.shape[1]))
    tmp = np.empty_like(k)
    underflowed = 0
    for start in range(a, b, rows):
        q = Q[start:min(start + rows, b)]
        kb, tb = k[:q.shape[0]], tmp[:q.shape[0]]
        kb.fill(0.0)
        for j in range(XT.shape[0]):  # kb = squared distances
            np.subtract(XT[j], q[:, j:j + 1], out=tb)
            tb *= tb
            kb += tb
        d2min = kb.min(axis=1)
        underflowed += np.count_nonzero(np.exp(-d2min / s2) < _TINY)
        kb -= d2min[:, None]
        kb /= -s2
        np.exp(kb, out=kb)
        out[start:start + q.shape[0]] = (kb @ y) / kb.sum(axis=1)
    return underflowed


def nw_estimate(train, x, config: KernelConfig) -> float:
    """nw_predict at the single query point x."""
    return float(nw_predict(train, np.reshape(x, (1, -1)), config)[0])


def nw_intervals(train, X_cal, y_cal, Xq, config: KernelConfig, alpha):
    """Split-conformal intervals (lo, hi) at the rows of Xq: the NW fit on
    train, widened on both sides by the conformal quantile of its absolute
    residuals on the calibration rows (X_cal, y_cal)."""
    check_alpha(alpha)
    cal_pred = nw_predict(train, X_cal, config)
    half = conformal.calibrate(conformal.scores(y_cal, cal_pred, cal_pred), alpha).qhat
    pred = nw_predict(train, Xq, config)
    return pred - half, pred + half

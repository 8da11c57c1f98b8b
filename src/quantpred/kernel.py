"""Nadaraya-Watson kernel regression with the Gaussian kernel."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import conformal
from .numerics import DomainError, check_alpha, cpus, parallel_map

# smallest positive normal double; below this every weight has underflowed
_TINY = np.finfo(float).tiny
# kernel values per block of queries: 1 MB, in a core's 4 MiB L2 on a 2-core x86
# host. There 3 * 10**4 queries on 10**4 rows took 0.51 s at 2**17, 0.69-0.74 s
# at 2**16 and 1.2-1.3 s at 2**18, where OpenBLAS adds threads for kb @ Y.
_BLOCK = 2 ** 17
# kernel values from which nw_predict spreads its blocks over threads. On a
# 2-core x86 host a pool of two threads took 0.17 ms to start and join, and
# 2**24 values in 4 columns, in blocks of 2**17, a median 54 ms serial and
# 36 ms on two threads; at 10**6, the size of each NW call in demo coverage's
# forked workers, the gain was lost in the noise, so those calls stay serial.
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

    Features and queries are centered on the training mean, so an offset
    they share cancels. A block's squared distances then come from one
    matmul: ||q||^2 - ||q - x||^2 = 2 q.x - ||x||^2. Each query's weights
    are shifted by its nearest squared distance, which cancels in the ratio
    and makes the nearest weight exactly 1, so a tiny bandwidth gives the
    nearest target, the formula's limit. Queries whose unshifted weights
    would all underflow trigger a RuntimeWarning.

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
    c = X.mean(axis=0)
    XcT = np.ascontiguousarray((X - c).T)
    A = np.vstack([2.0 * XcT, -np.square(XcT).sum(axis=0)])
    Y = np.vstack([y, np.ones(n)]).T  # column-major: the faster gemm operand
    rows = max(1, _BLOCK // n)
    out = np.empty(Q.shape[0])
    blocks = max(1, -(-Q.shape[0] // rows))  # no queries make one empty block
    runs = min(cpus(), blocks) if n * Q.shape[0] >= _THREADED else 1
    per = -(-blocks // runs) * rows
    underflowed = sum(parallel_map(
        lambda a: _nw_blocks(A, Y, Q, c, s2, rows, out, a, min(a + per, Q.shape[0])),
        range(0, Q.shape[0], per)))
    if underflowed:
        warnings.warn(f"all kernel weights underflowed for {underflowed} of "
                      f"{Q.shape[0]} queries", RuntimeWarning, stacklevel=2)
    return out


def _nw_blocks(A, Y, Q, c, s2, rows, out, a, b):
    """nw_predict's loop over the blocks of `rows` queries from row a of Q,
    up to row b: their estimates go to out[a:b]; returns how many of them
    had all their unshifted weights underflow. Calls only numpy, so it may
    run on any thread."""
    k = np.empty((min(rows, b - a), A.shape[1]))
    # [(q - c) / s2, 1 / s2] per row; numpy's divide obeys the caller's errstate
    qa = np.full((k.shape[0], A.shape[0]), np.divide(1.0, s2))
    underflowed = 0
    for start in range(a, b, rows):
        kb, q = k[:b - start], qa[:b - start]  # the last block may be short
        np.subtract(Q[start:start + len(q)], c, out=q[:, :-1])
        q2 = np.square(q[:, :-1]).sum(axis=1)  # ||q||^2, before the scaling
        q[:, :-1] /= s2
        np.matmul(q, A, out=kb)  # (||q||^2 - squared distances) / s2
        lmax = kb.max(axis=1)
        underflowed += np.count_nonzero(np.exp(lmax - q2 / s2) < _TINY)
        kb -= lmax[:, None]
        np.exp(kb, out=kb)
        nd = kb @ Y
        out[start:start + len(q)] = nd[:, 0] / nd[:, 1]
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

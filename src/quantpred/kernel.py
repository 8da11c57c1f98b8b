"""Nadaraya-Watson kernel regression with the Gaussian kernel."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import conformal
from .numerics import DomainError, check_alpha, parallel_map

# log of the smallest positive normal double; a largest log-weight below it means all underflow
_LOG_TINY = np.log(np.finfo(float).tiny)
# kernel values per block of queries: 1 MB, in a core's 4 MiB L2 on a 2-core x86 host. There
# 3 * 10**4 queries on 10**4 rows took 0.36-0.38 s at 2**17, 0.43-0.45 s at 2**16 and 0.89-1.07 s
# at 2**18, where OpenBLAS adds threads for kb @ Y (0.42-0.48 s with one OpenBLAS thread).
_BLOCK = 2 ** 17
# query rows scaled at once, in whole blocks (above: 0.38-0.39 s; a block at a time, 0.47-0.52 s)
_GROUP = 2 ** 10
# kernel values from which nw_predict spreads its groups over threads. On a 2-core x86 host 2**24
# values in 4 columns took 31-46 ms serial and 26-28 ms on two threads; 10**6, the size of each NW
# call in demo coverage's forked workers, 2.1-2.5 ms serial and 2.4-2.8 ms threaded, so serial.
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

    Features and queries are centered on the training mean, so an offset they share cancels.
    A block's weights exp(-||q - x||^2 / s2), s2 = 2 sigma^2, then come from one matmul,
    [q / s2, 1 / s2, -||q||^2 / s2] times [2 x, -||x||^2, 1], and one exp. Each is at most 1
    up to rounding: where they sum to between 1 and n, the largest is at least 1/n and the
    ratio keeps full precision. Other queries, overflowed ones too, are redone with weights
    shifted by their nearest squared distance, making the nearest weight 1, so a tiny
    bandwidth gives the nearest target; if the first query's weights are shifted, every
    query's are. Unshifted, a query on an isolated training point may land an ulp off its
    target below about 1e-7 of the data's spread. Queries whose weights all underflow warn;
    below about 1e-9, the expanded square's rounding can count queries on a training point.

    The queries go in groups of whole blocks of about _GROUP rows; from _THREADED kernel
    values on, the groups go to threads of parallel_map. A group holds the same queries on
    any number of CPUs, so the estimates have the same bits on any of them.
    """
    X, y = train.features, train.targets
    n, d = X.shape
    Q = np.asarray(Xq, dtype=float)
    if Q.ndim != 2 or Q.shape[1] != d:
        raise DomainError(f"queries of shape {Q.shape} do not have {d} columns")
    s2 = 2.0 * config.bandwidth ** 2
    c = X.mean(axis=0)
    XcT = np.ascontiguousarray((X - c).T)
    A = np.vstack([2.0 * XcT, -np.square(XcT).sum(axis=0), np.ones(n)])
    Y = np.vstack([y, np.ones(n)]).T  # column-major: the faster gemm operand
    rows = max(1, _BLOCK // n)
    group = rows * max(1, _GROUP // rows)
    out = np.empty(Q.shape[0])
    # shifting all of 3 * 10**4 queries on 10**4 rows was faster where 30% needed it, slower at
    # 9%; the first query samples that share (a whole block added 1 MB to eval's peak RSS)
    with np.errstate(all="ignore"):  # only picks the path; the groups obey the caller
        shift = len(Q) > 0 and _nw_blocks(A, Y, Q, c, s2, 1, out, 0, 1)[1] > 0
    underflowed = sum(u for u, _ in (parallel_map if n * len(Q) >= _THREADED else map)(
        lambda a: _nw_blocks(A, Y, Q, c, s2, rows, out, a, min(a + group, len(Q)), shift),
        range(0, len(Q), group)))
    if underflowed:
        warnings.warn(f"all kernel weights underflowed for {underflowed} of "
                      f"{Q.shape[0]} queries", RuntimeWarning, stacklevel=2)
    return out


def _nw_blocks(A, Y, Q, c, s2, rows, out, a, b, shift=False):
    """nw_predict's estimates for the group of queries from row a of Q up to row b,
    into out[a:b], in blocks of `rows` queries. Shifts every query's weights with
    shift, else those of queries whose weights sum outside [1, n]; returns how many
    had all their weights underflow and how many were shifted. Calls only numpy, so
    it may run on any thread."""
    k = np.empty((min(rows, b - a), A.shape[1]))
    # [(q - c) / s2, 1 / s2, -||q - c||^2 / s2] per query; 1 / s2 is the first divide, and
    # numpy's divides obey the caller's errstate
    q = np.full((b - a, A.shape[0]), np.divide(1.0, s2))
    nd = np.empty((b - a, 2))
    np.subtract(Q[a:b], c, out=q[:, :-2])
    np.divide(np.square(q[:, :-2]).sum(axis=1), -s2, out=q[:, -1])
    q[:, :-2] /= s2
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN sum is redone below
        for s in range(0, 0 if shift else len(q), rows):  # the last block may be short
            kb = np.matmul(q[s:s + rows], A, out=k[:len(q) - s])  # -||q - x||^2 / s2
            np.matmul(np.exp(kb, out=kb), Y, out=nd[s:s + rows])  # sum(y_i w_i), sum(w_i)
    low = shift | ~((nd[:, 1] >= 1) & (nd[:, 1] <= A.shape[1]))  # NaN too
    underflowed = 0
    for s in range(0, len(q), rows) if low.any() else ():
        r = s + np.flatnonzero(low[s:s + rows])  # picked per block, as k holds one
        kb = np.matmul(q[r], A, out=k[:len(r)])
        lmax = kb.max(axis=1)
        underflowed += np.count_nonzero(lmax < _LOG_TINY)
        kb -= lmax[:, None]
        nd[r] = np.exp(kb, out=kb) @ Y
    np.divide(nd[:, 0], nd[:, 1], out=out[a:b])
    return underflowed, np.count_nonzero(low)


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

"""Shared deterministic numerics: normal distribution functions, empirical
CDF/quantile machinery, a seeded random source, and the one parallel
map."""

from __future__ import annotations

import functools
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """An argument violates a documented precondition."""


def check_alpha(alpha):
    """alpha, a miscoverage level; rejected outside the open interval (0, 1)."""
    if not 0.0 < alpha < 1.0:  # NaN fails too
        raise DomainError("alpha must lie strictly inside (0, 1)")
    return alpha


def _check_prob(p, name="p"):
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails too
        raise DomainError(f"{name} must lie in [0, 1]")
    return p


# ---------------------------------------------------------------------------
# Normal distribution
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(x, mu=0.0, sigma=1.0):
    """Phi((x - mu) / sigma); accepts scalars or arrays."""
    from scipy.special import erfc  # on first use: no CLI pipeline command needs it

    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    z = (np.asarray(x, dtype=float) - mu) / sigma
    out = 0.5 * erfc(-z / _SQRT2)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def normal_pdf(x, mu=0.0, sigma=1.0):
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    z = (np.asarray(x, dtype=float) - mu) / sigma
    out = np.exp(-0.5 * z * z) / (sigma * _SQRT_2PI)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def normal_quantile(p, mu=0.0, sigma=1.0):
    """Inverse of normal_cdf; p in the open interval (0, 1), since p = 0
    or 1 would be infinite."""
    from scipy.special import ndtri

    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    parr = np.asarray(p, dtype=float)
    if not np.all((parr > 0.0) & (parr < 1.0)):
        raise DomainError("p must lie strictly inside (0, 1)")
    out = mu + sigma * ndtri(parr)
    return float(out) if np.isscalar(p) or np.ndim(p) == 0 else out


# ---------------------------------------------------------------------------
# Empirical distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalDistribution:
    """Samples in ascending order, each with mass 1/n."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size == 0:
            raise DomainError("empirical distribution needs at least one sample")
        if np.any(np.diff(v) < 0):
            raise DomainError("values must be non-decreasing")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_samples(cls, samples):
        return cls(np.sort(np.asarray(samples, dtype=float), kind="stable"))

    @property
    def n(self):
        return self.values.size

    def cdf(self, y):
        """Right-continuous empirical F(y) = P(Y <= y)."""
        return np.searchsorted(self.values, y, side="right") / self.n


def empirical_quantile(dist: EmpiricalDistribution, tau) -> float:
    """Generalized inverse inf{t : F(t) >= tau} of the right-continuous
    empirical CDF (type-1 quantile); values are always sample points."""
    tau = float(_check_prob(tau, "tau"))
    grid = np.arange(1, dist.n + 1) / dist.n
    k = min(int(np.searchsorted(grid, tau, side="left")), dist.n - 1)
    return float(dist.values[k])


# ---------------------------------------------------------------------------
# Random source
# ---------------------------------------------------------------------------

_STREAM_SALT = b"quantpred-stream:"


@dataclass(frozen=True)
class RandomSource:
    """Seeded PCG64 generator factory with named, independent sub-streams.

    Sub-stream keys are derived as crc32 of the stream name, so the same
    (seed, name) pair always yields the same stream regardless of the order
    streams are requested in.
    """

    seed: int

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2 ** 64):
            raise DomainError("seed must be an unsigned 64-bit integer")

    def stream(self, name: str) -> np.random.Generator:
        key = zlib.crc32(_STREAM_SALT + name.encode("utf-8"))
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(key,))
        return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# Parallel map
# ---------------------------------------------------------------------------

def _under(err, job, item):
    """job(item) with floating-point errors handled as err (np.geterr())."""
    with np.errstate(**err):
        return job(item)


def parallel_map(job, items, processes=False):
    """[job(x) for x in items], in that order, on one worker per available
    CPU and no more workers than items: threads, or forked processes if
    processes is true. Each job runs under the caller's numpy error state,
    which a new thread does not inherit. One worker, no CPU affinity, or no
    fork start method for processes means the builtin map, on this thread.
    """
    import concurrent.futures
    import multiprocessing

    items = list(items)
    # the CPUs this process may run on; 1 where the OS does not say
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(items))
    if workers <= 1 or processes and "fork" not in multiprocessing.get_all_start_methods():
        return list(map(job, items))
    # fork, not spawn: a worker starts with numpy and quantpred already imported
    pool = (concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork")) if processes
        else concurrent.futures.ThreadPoolExecutor(workers))
    with pool:
        return list(pool.map(functools.partial(_under, np.geterr(), job), items))

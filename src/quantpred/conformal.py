"""Conformalized quantile regression on whole arrays: nonconformity
scores, the (1-alpha)(1+1/n) calibration constant, interval inflation,
and coverage evaluation. An interval set is a pair of arrays (lo, hi)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, _check_prob


@dataclass(frozen=True)
class ConformalCalibration:
    alpha: float
    qhat: float
    n: int

    def to_record(self) -> str:
        return (
            f"conformal-calibration v1\n"
            f"alpha={self.alpha!r}\n"
            f"n={self.n}\n"
            f"qhat={self.qhat!r}\n"
        )

    @classmethod
    def from_record(cls, text: str) -> "ConformalCalibration":
        lines = text.strip().splitlines()
        if not lines or lines[0] != "conformal-calibration v1":
            raise DomainError("not a conformal-calibration record")
        kv = {}
        for line in lines[1:]:
            key, eq, value = line.partition("=")
            if not eq:
                raise DomainError(f"calibration record line {line!r} is not key=value")
            kv[key] = value
        # other keys, such as the score_sha256 of older records, are ignored
        fields = {}
        for name, parse in (("alpha", float), ("qhat", float), ("n", int)):
            if name not in kv:
                raise DomainError(f"calibration record lacks field {name!r}")
            try:
                fields[name] = parse(kv[name])
            except ValueError:
                raise DomainError(
                    f"calibration record field {name!r} is malformed: {kv[name]!r}"
                ) from None
        if not np.isfinite(fields["qhat"]):
            raise DomainError(f"calibration record qhat {fields['qhat']!r} is not finite")
        return cls(**fields)

    @classmethod
    def load(cls, path) -> "ConformalCalibration":
        """Read a record written by to_record; every error, OSError too, names the path."""
        try:
            with open(path) as fh:
                text = fh.read()
        except ValueError as exc:  # undecodable bytes
            raise DomainError(f"cannot read calibration record {path}: {exc}") from None
        try:
            return cls.from_record(text)
        except DomainError as exc:
            raise DomainError(f"{path}: {exc}") from None


def _bands(lo, hi, y=None):
    """lo, hi (and y) as equal-size, non-empty 1-D float arrays, with
    lo <= hi on every row."""
    arrays = [np.asarray(a, dtype=float).ravel()
              for a in ((lo, hi) if y is None else (lo, hi, y))]
    sizes = [a.size for a in arrays]
    if len(set(sizes)) > 1:
        raise DomainError(f"sizes of lower, upper (and targets) differ: {sizes}")
    if sizes[0] == 0:
        raise DomainError("need at least one interval")
    bad = np.flatnonzero(arrays[0] > arrays[1])
    if bad.size:
        i = bad[0]
        raise DomainError(f"row {i}: lower {arrays[0][i]} exceeds upper {arrays[1][i]}")
    return arrays


def scores(y, lo, hi):
    """Nonconformity scores max(lo - y, y - hi), one per row: negative
    strictly inside the band, the outside distance when outside."""
    lo, hi, y = _bands(lo, hi, y)
    return np.maximum(lo - y, y - hi)


def calibrate(scores, alpha) -> ConformalCalibration:
    """The conformal quantile: the ceil((1-alpha)(n+1))-th smallest of the
    n calibration scores, or the largest when that rank exceeds n."""
    s = np.sort(np.asarray(scores, dtype=float).ravel())
    if s.size == 0:
        raise DomainError("calibration set must be non-empty")
    alpha = float(_check_prob(alpha, "alpha"))
    # small guard against an upward ulp pushing ceil past the true integer
    k = math.ceil((1.0 - alpha) * (s.size + 1) - 1e-9)
    return ConformalCalibration(alpha, float(s[min(max(k, 1), s.size) - 1]), s.size)


def conformalize(lo, hi, qhat):
    """Inflate every interval by qhat on both sides, as arrays (lo, hi); a
    negative qhat larger than the half-width collapses the interval to
    its midpoint."""
    lo, hi = _bands(lo, hi)
    out_lo, out_hi = lo - qhat, hi + qhat
    crossed = out_hi < out_lo
    if crossed.any():
        mid = 0.5 * (lo + hi)
        out_lo = np.where(crossed, mid, out_lo)
        out_hi = np.where(crossed, mid, out_hi)
    return out_lo, out_hi


def coverage(lo, hi, y):
    """Closed-interval empirical coverage and mean width."""
    lo, hi, y = _bands(lo, hi, y)
    hits = np.count_nonzero((lo <= y) & (y <= hi))
    return hits / y.size, float((hi - lo).mean())

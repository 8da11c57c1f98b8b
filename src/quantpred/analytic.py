"""Closed-form normal-normal learning: conjugate posterior constants, the
distortion function linking prior and posterior survival curves, and an
OLS learner for the summary statistic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, normal_cdf, normal_quantile


class NumericalError(RuntimeError):
    """A linear-algebra step failed (for example a rank-deficient design)."""


@dataclass(frozen=True)
class NormalNormalModel:
    """Prior theta ~ N(prior_mean, prior_variance), data y|theta ~ N(theta,
    likelihood_variance). Second parameters are variances throughout."""

    prior_mean: float
    prior_variance: float
    likelihood_variance: float

    def __post_init__(self):
        if not self.prior_variance > 0:
            raise DomainError("prior_variance must be positive")
        if not self.likelihood_variance > 0:
            raise DomainError("likelihood_variance must be positive")


@dataclass(frozen=True)
class PosteriorSummary:
    mu_star: float
    sigma2_star: float
    t: float
    s: float
    n: int


@dataclass(frozen=True)
class WangDistortion:
    """g(p) = Phi(lambda1 * Phi^{-1}(p) + shift)."""

    lambda1: float
    shift: float

    def __post_init__(self):
        if not self.lambda1 > 0:
            raise DomainError("lambda1 must be positive")


def posterior(model: NormalNormalModel, data) -> PosteriorSummary:
    """Conjugate update: t = sigma2 + n*alpha2, mu* = (sigma2*mu + alpha2*s)/t,
    sigma*^2 = alpha2*sigma2/t."""
    y = np.asarray(data, dtype=float)
    if y.size == 0:
        raise DomainError("data must be non-empty")
    n = y.size
    s = float(y.sum())
    a2 = model.prior_variance
    s2 = model.likelihood_variance
    t = s2 + n * a2
    mu_star = (s2 * model.prior_mean + a2 * s) / t
    sigma2_star = a2 * s2 / t
    return PosteriorSummary(mu_star, sigma2_star, t, s, n)


def wang_distortion_params(model: NormalNormalModel, summary: PosteriorSummary) -> WangDistortion:
    """lambda1 = alpha/sigma*, shift = alpha*lambda1*(s - n*mu)/t."""
    alpha = np.sqrt(model.prior_variance)
    lambda1 = alpha / np.sqrt(summary.sigma2_star)
    shift = alpha * lambda1 * (summary.s - summary.n * model.prior_mean) / summary.t
    return WangDistortion(float(lambda1), float(shift))


def wang_distortion(dist: WangDistortion, p):
    """Apply g(p) = Phi(lambda1 * Phi^{-1}(p) + shift); p strictly in (0,1)."""
    z = normal_quantile(p)
    return normal_cdf(dist.lambda1 * z + dist.shift)


def distort_prior_survival(model: NormalNormalModel, summary: PosteriorSummary,
                           theta):
    """g(1 - Phi(theta; mu, alpha)) for the prior survival function, which
    equals the posterior survival 1 - Phi(theta; mu*, sigma*)."""
    dist = wang_distortion_params(model, summary)
    # g(1 - Phi(theta; mu, alpha)) with Phi^{-1}(Phi(z)) = z taken
    # analytically: the survival probability saturates in double precision
    # for |theta - mu| beyond ~8 alpha, so the composition is evaluated
    # through the prior z-score instead of the probability itself
    z_prior = (model.prior_mean - np.asarray(theta, dtype=float)) / np.sqrt(
        model.prior_variance)
    return normal_cdf(dist.lambda1 * z_prior + dist.shift)


def learn_sufficient_statistic(thetas, samples):
    """OLS regression of theta on the raw sample vector.

    thetas: length-m draws from the prior; samples: m x n matrix of
    corresponding data draws. Returns (weights, intercept). For the
    exchangeable normal-normal model the fitted weights are equal across
    coordinates, so the learned statistic is an affine function of the
    sample mean.
    """
    th = np.asarray(thetas, dtype=float)
    ys = np.asarray(samples, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    m, n = ys.shape
    if th.shape != (m,):
        raise DomainError("thetas and samples disagree in length")
    if m < n + 2:
        raise DomainError(f"need at least n+2={n + 2} simulations, got {m}")
    design = np.column_stack([np.ones(m), ys])
    coef, _, rank, sv = np.linalg.lstsq(design, th, rcond=None)
    if rank < n + 1:
        raise NumericalError(
            f"design matrix is rank deficient (rank {rank} < {n + 1}); "
            f"singular values {sv}"
        )
    return coef[1:], float(coef[0])

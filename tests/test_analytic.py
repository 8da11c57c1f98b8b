import numpy as np
import pytest

from quantpred.analytic import (
    NormalNormalModel,
    NumericalError,
    PosteriorSummary,
    WangDistortion,
    distort_prior_survival,
    learn_sufficient_statistic,
    posterior,
    wang_distortion,
    wang_distortion_params,
)
from quantpred.numerics import DomainError, RandomSource, normal_cdf, normal_quantile

PHI_1 = 0.84134474606854294859  # frozen mpmath value of Phi(1)


class TestPosterior:
    def test_symmetric_unit_case(self):
        s = posterior(NormalNormalModel(0.0, 1.0, 1.0), [0.0])
        assert s.mu_star == 0.0
        assert s.sigma2_star == 0.5
        assert s.t == 2.0

    def test_printed_variance(self):
        model = NormalNormalModel(0.0, 5.0, 10.0)
        data = np.zeros(100)
        s = posterior(model, data)
        assert s.sigma2_star == 50.0 / 510.0
        assert s.sigma2_star == pytest.approx(0.09804, abs=1e-5)

    def test_consistency_limit(self):
        m = 1.7
        s = posterior(NormalNormalModel(0.0, 2.0, 3.0), np.full(10**6, m))
        assert abs(s.mu_star - m) < 1e-4
        assert s.sigma2_star < 1e-4

    def test_invariants(self):
        model = NormalNormalModel(1.0, 4.0, 9.0)
        data = [2.0, 3.0, -1.0]
        s = posterior(model, data)
        assert s.s == 4.0
        assert s.t == 9.0 + 3 * 4.0
        assert s.sigma2_star == 4.0 * 9.0 / s.t
        assert s.mu_star == (9.0 * 1.0 + 4.0 * 4.0) / s.t

    def test_composition_coherence(self):
        # sequential halves equal the one-shot update
        model = NormalNormalModel(0.5, 2.0, 3.0)
        rng = RandomSource(5).stream("post")
        data = rng.normal(1.0, np.sqrt(3.0), 40)
        full = posterior(model, data)
        first = posterior(model, data[:20])
        second = posterior(
            NormalNormalModel(first.mu_star, first.sigma2_star, 3.0), data[20:])
        assert second.mu_star == pytest.approx(full.mu_star, rel=1e-12)
        assert second.sigma2_star == pytest.approx(full.sigma2_star, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            posterior(NormalNormalModel(0.0, 1.0, 1.0), [])

    def test_bad_variances_rejected(self):
        with pytest.raises(DomainError):
            NormalNormalModel(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            NormalNormalModel(0.0, 1.0, -1.0)


class TestWangDistortion:
    def test_identity_parameters(self):
        g = WangDistortion(1.0, 0.0)
        for p in (0.01, 0.3, 0.5, 0.99):
            assert wang_distortion(g, p) == pytest.approx(p, abs=1e-12)

    def test_half_maps_to_phi_of_shift(self):
        for lam1 in (0.5, 1.0, 3.0):
            g = WangDistortion(lam1, 1.0)
            assert wang_distortion(g, 0.5) == pytest.approx(PHI_1, abs=1e-12)

    def test_strictly_increasing_with_limits(self):
        g = WangDistortion(2.0, -0.7)
        ps = np.linspace(1e-6, 1 - 1e-6, 1000)
        vals = wang_distortion(g, ps)
        assert np.all(np.diff(vals) > 0)
        assert vals[0] < 1e-3 and vals[-1] > 1 - 1e-3

    def test_inverse_round_trip(self):
        g = WangDistortion(1.7, 0.4)
        ps = np.linspace(0.01, 0.99, 99)
        q = wang_distortion(g, ps)
        back = normal_cdf((normal_quantile(q) - g.shift) / g.lambda1)
        assert np.max(np.abs(back - ps)) < 1e-9

    def test_rejects_boundary_p(self):
        g = WangDistortion(1.0, 0.0)
        with pytest.raises(DomainError):
            wang_distortion(g, 0.0)


class TestDistortionIdentity:
    def test_posterior_median_survival_half(self):
        model = NormalNormalModel(0.0, 5.0, 10.0)
        s = posterior(model, np.linspace(2, 4, 100))
        assert distort_prior_survival(model, s, s.mu_star) == \
            pytest.approx(0.5, abs=1e-12)

    def test_printed_configuration(self):
        model = NormalNormalModel(0.0, 5.0, 10.0)
        s = PosteriorSummary(mu_star=5.0 * 335.0 / 510.0,
                             sigma2_star=50.0 / 510.0,
                             t=510.0, s=335.0, n=100)
        lhs = distort_prior_survival(model, s, 3.0)
        rhs = 1.0 - normal_cdf(3.0, s.mu_star, np.sqrt(s.sigma2_star))
        assert abs(lhs - rhs) < 1e-10

    def test_grid_identity_randomized(self):
        rng = RandomSource(9).stream("ident")
        for _ in range(20):
            model = NormalNormalModel(rng.normal() * 2,
                                      rng.uniform(0.2, 8),
                                      rng.uniform(0.2, 8))
            data = rng.normal(size=rng.integers(1, 200))
            s = posterior(model, data)
            sd = np.sqrt(s.sigma2_star)
            grid = np.linspace(s.mu_star - 6 * sd, s.mu_star + 6 * sd, 501)
            lhs = distort_prior_survival(model, s, grid)
            rhs = 1.0 - normal_cdf(grid, s.mu_star, sd)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_lambda_formulas(self):
        model = NormalNormalModel(0.0, 5.0, 10.0)
        s = posterior(model, np.full(100, 3.35))
        d = wang_distortion_params(model, s)
        assert d.lambda1 == pytest.approx(np.sqrt(5.0) / np.sqrt(s.sigma2_star))
        assert d.shift == pytest.approx(np.sqrt(5.0) * d.lambda1 * s.s / s.t)


class TestLearnSufficientStatistic:
    def _simulate(self, n, m, mu=0.0, a2=5.0, s2=10.0, seed=0):
        rng = RandomSource(seed).stream("ols")
        thetas = rng.normal(mu, np.sqrt(a2), m)
        ys = thetas[:, None] + rng.normal(0, np.sqrt(s2), (m, n))
        return thetas, ys

    def test_single_coordinate_slope(self):
        a2, s2 = 5.0, 10.0
        thetas, ys = self._simulate(1, 50_000, a2=a2, s2=s2, seed=3)
        w, _ = learn_sufficient_statistic(thetas, ys)
        assert w[0] == pytest.approx(a2 / (a2 + s2), abs=0.01)

    def test_exchangeable_weights_equal(self):
        thetas, ys = self._simulate(5, 100_000, seed=4)
        w, _ = learn_sufficient_statistic(thetas, ys)
        assert np.max(w) - np.min(w) < 0.01

    def test_fitted_statistic_tracks_sample_mean(self):
        thetas, ys = self._simulate(5, 100_000, seed=5)
        w, b = learn_sufficient_statistic(thetas, ys)
        fitted = ys @ w + b
        corr = np.corrcoef(fitted, ys.mean(axis=1))[0, 1]
        assert corr >= 0.999

    def test_degenerate_prior_weights_vanish(self):
        thetas, ys = self._simulate(3, 20_000, a2=1e-8, seed=6)
        w, _ = learn_sufficient_statistic(thetas, ys)
        assert np.max(np.abs(w)) < 1e-3

    def test_rank_deficient_raises(self):
        rng = RandomSource(7).stream("ols")
        col = rng.normal(size=50)
        ys = np.column_stack([col, col])  # duplicated coordinate
        with pytest.raises(NumericalError):
            learn_sufficient_statistic(rng.normal(size=50), ys)

    def test_too_few_simulations_rejected(self):
        with pytest.raises(DomainError):
            learn_sufficient_statistic([1.0, 2.0], np.ones((2, 3)))

"""Reproduction harnesses: mean-vs-median efficiency ratios for estimation
and prediction, the normal-normal distortion demo with plot-ready panel
data, and a coverage/width benchmark for conformalized quantile networks
on synthetic data."""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from . import analytic, conformal, kernel, qnn
from .numerics import DomainError, RandomSource, check_alpha, normal_pdf, normal_cdf, parallel_map


def write_csv(path, header, rows):
    """A headed CSV file, one line per row of cells, streamed from rows. A
    cell is its str: a float's, Python's or numpy's, is the shortest text
    that reads back as the same float."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, r)) + "\n" for r in rows)


# ---------------------------------------------------------------------------
# Efron mean-vs-median ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EfronConfig:
    n: int = 1001
    m_replications: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("n must be at least 2")
        # the standard errors take a sample variance, which needs two
        if self.m_replications < 2:
            raise DomainError(
                f"m_replications must be at least 2, got {self.m_replications}")


@dataclass(frozen=True)
class RatioResult:
    ratio: float
    se: float


def _ratio_with_se(num_sq, den_sq):
    """Delta-method standard error for a ratio of two mean squared errors."""
    m = num_sq.size
    a, b = num_sq.mean(), den_sq.mean()
    va, vb = num_sq.var(ddof=1) / m, den_sq.var(ddof=1) / m
    cab = np.cov(num_sq, den_sq, ddof=1)[0, 1] / m
    var_r = va / b**2 + (a**2 / b**4) * vb - 2 * (a / b**3) * cab
    return RatioResult(a / b, float(np.sqrt(max(var_r, 0.0))))


# normal draws held at once by the Monte Carlo loops, unless one row is longer
_DRAW_CHUNK = 10_000_000


def _normal_rows(rng, m, n):
    """An m x n standard normal matrix from rng, drawn and yielded in chunks
    of whole rows, at most _DRAW_CHUNK values each unless one row is longer.
    The rows are the ones a single draw of the whole matrix gives."""
    chunk = max(1, min(m, _DRAW_CHUNK // n))
    for start in range(0, m, chunk):
        yield rng.standard_normal((min(chunk, m - start), n))


def _medians_and_means(rng, m, n):
    """The median and the mean of each row of _normal_rows(rng, m, n)."""
    chunks = [(np.median(draws, axis=1), draws.mean(axis=1))
              for draws in _normal_rows(rng, m, n)]
    return tuple(np.concatenate(stat) for stat in zip(*chunks))


def efron_estimation_ratio(config: EfronConfig) -> RatioResult:
    """Monte Carlo estimate of E((median - theta)^2) / E((mean - theta)^2)
    for N(theta, 1) samples, at theta = 0 (both estimators are location
    equivariant); the large-n limit is pi/2."""
    rng = RandomSource(config.seed).stream("efron-estimation")
    med, mean = _medians_and_means(rng, config.m_replications, config.n)
    return _ratio_with_se(med ** 2, mean ** 2)


def median_variance_factor(n, replications=100_000, seed=0):
    """Nested Monte Carlo oracle for Var(median of n standard normals)."""
    if replications < 2:
        raise DomainError(f"oracle replications must be at least 2, got {replications}")
    rng = RandomSource(seed).stream("median-variance-oracle")
    total, total_sq = 0.0, 0.0
    for draws in _normal_rows(rng, replications, n):
        med = np.median(draws, axis=1)
        total += med.sum()
        total_sq += (med ** 2).sum()
    mean = total / replications
    var = total_sq / replications - mean ** 2
    se = var * np.sqrt(2.0 / (replications - 1))
    return float(var), float(se)


@dataclass(frozen=True)
class PredictionRatioResult:
    ratio: float
    se: float
    closed_form: float
    closed_form_se: float


def efron_prediction_ratio(config: EfronConfig,
                           oracle_replications=100_000) -> PredictionRatioResult:
    """Monte Carlo estimate of E((median - x_new)^2) / E((mean - x_new)^2)
    with x_new an independent N(theta, 1) draw, at theta = 0.

    Also reports the closed-form comparator (1 + v_n) / (1 + 1/n), where
    v_n is the exact median variance for this n obtained from a nested
    Monte Carlo oracle on an independent stream.
    """
    rng = RandomSource(config.seed).stream("efron-prediction")
    med, mean = _medians_and_means(rng, config.m_replications, config.n)
    x_new = rng.standard_normal(config.m_replications)
    mc = _ratio_with_se((med - x_new) ** 2, (mean - x_new) ** 2)

    v_med, v_se = median_variance_factor(config.n, oracle_replications,
                                         seed=config.seed + 1)
    den = 1.0 + 1.0 / config.n
    return PredictionRatioResult(mc.ratio, mc.se,
                                 (1.0 + v_med) / den, v_se / den)


def efron_prediction_sweep(n_grid, m_replications=20_000, seed=0,
                           oracle_replications=50_000):
    """Prediction-error ratio across sample sizes; returns one result row
    per n as (n, PredictionRatioResult)."""
    out = []
    for i, n in enumerate(n_grid):
        cfg = EfronConfig(n=n, m_replications=m_replications, seed=seed + 1000 * i)
        out.append((n, efron_prediction_ratio(cfg, oracle_replications)))
    return out


# ---------------------------------------------------------------------------
# Normal-normal demo
# ---------------------------------------------------------------------------

# Reference posterior quoted for this configuration: N(3.28, 0.98). The
# closed-form update gives variance 50/510 ~ 0.098, ten times smaller than
# the quoted 0.98, so the demo reports the discrepancy instead of forcing it.
REFERENCE_POSTERIOR = (3.28, 0.98)


def run_normal_normal_demo(n: int = 100, seed: int = 4, out_dir: str | None = None):
    """Seeded conjugate-update demo: posterior constants, distortion
    identity check, and the three plot-data panels, for the prior N(0, 5)
    and data y ~ N(3, 10)."""
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    prior, true_theta = analytic.NormalNormalModel(0.0, 5.0, 10.0), 3.0
    rng = RandomSource(seed).stream("normal-normal-demo")
    sigma = np.sqrt(prior.likelihood_variance)
    data = true_theta + sigma * rng.standard_normal(n)
    summary = analytic.posterior(prior, data)
    distortion = analytic.wang_distortion_params(prior, summary)

    sd_star = np.sqrt(summary.sigma2_star)
    theta_grid = np.linspace(summary.mu_star - 6 * sd_star,
                             summary.mu_star + 6 * sd_star, 2001)
    lhs = analytic.distort_prior_survival(prior, summary, theta_grid)
    rhs = 1.0 - normal_cdf(theta_grid, summary.mu_star, sd_star)
    identity_error = float(np.max(np.abs(lhs - rhs)))

    report = {
        "prior_mean": prior.prior_mean,
        "prior_variance": prior.prior_variance,
        "likelihood_variance": prior.likelihood_variance,
        "n": n,
        "seed": seed,
        "y_bar": float(data.mean()),
        "mu_star": summary.mu_star,
        "sigma2_star": summary.sigma2_star,
        "lambda1": distortion.lambda1,
        "lambda_shift": distortion.shift,
        "distortion_identity_max_error": identity_error,
        "reference_mu_star": REFERENCE_POSTERIOR[0],
        "reference_sigma2_star": REFERENCE_POSTERIOR[1],
        "sigma2_star_discrepancy_flag": (
            abs(summary.sigma2_star - REFERENCE_POSTERIOR[1]) > 0.05
        ),
    }

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        plot_grid = np.linspace(-8.0, 12.0, 801)
        write_csv(
            os.path.join(out_dir, "figure1_model.csv"),
            ["theta", "prior_density", "data_density", "posterior_density"],
            zip(plot_grid,
                normal_pdf(plot_grid, prior.prior_mean, np.sqrt(prior.prior_variance)),
                normal_pdf(plot_grid, true_theta, sigma),
                normal_pdf(plot_grid, summary.mu_star, sd_star)),
        )
        p_grid = np.linspace(0.0005, 0.9995, 999)
        write_csv(
            os.path.join(out_dir, "figure1_distortion.csv"),
            ["p", "g_p"],
            zip(p_grid, analytic.wang_distortion(distortion, p_grid)),
        )
        write_csv(
            os.path.join(out_dir, "figure1_survival.csv"),
            ["theta", "prior_survival", "posterior_survival"],
            zip(plot_grid,
                1.0 - normal_cdf(plot_grid, prior.prior_mean, np.sqrt(prior.prior_variance)),
                1.0 - normal_cdf(plot_grid, summary.mu_star, sd_star)),
        )
        with open(os.path.join(out_dir, "report.txt"), "w") as fh:
            for key, value in report.items():
                fh.write(f"{key}={value!r}\n")
            fh.write(
                "note=posterior variance follows the closed-form update "
                "alpha2*sigma2/(sigma2+n*alpha2); the reference figure 0.98 "
                "is NOT reproduced under these formulas (it is 10x the "
                "computed 50/510=0.0980...), consistent with a variance/"
                "standard-deviation mixup in the reference.\n"
            )
    return report


# ---------------------------------------------------------------------------
# Coverage benchmark
# ---------------------------------------------------------------------------

DGP_REGISTRY = ("homoscedastic", "heteroscedastic")
# where run_coverage_bench measures the mean calibrated width: |x| = 0.2 and 2
PROBE_POINTS = (-2.0, -0.2, 0.2, 2.0)


@dataclass(frozen=True)
class CoverageBenchConfig:
    dgp: str = "heteroscedastic"
    n_train: int = 1000
    n_cal: int = 500
    n_test: int = 1000
    alpha: float = 0.1
    replications: int = 200
    seed: int = 0
    epochs: int = 60

    def __post_init__(self):
        if self.dgp not in DGP_REGISTRY:
            raise DomainError(f"unknown dgp {self.dgp!r}; choose from {DGP_REGISTRY}")
        for name in ("n_train", "n_cal", "n_test", "replications", "epochs"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be at least 1")
        check_alpha(self.alpha)


def _draw(dgp, n, rng):
    x = rng.uniform(-2.0, 2.0, n)
    eps = rng.standard_normal(n)
    if dgp == "homoscedastic":
        y = x + eps
    else:
        y = x + np.abs(x) * eps
    return x[:, None], y


@dataclass
class BenchRow:
    method: str
    coverage: float
    coverage_se: float
    mean_width: float
    width_se: float


@dataclass
class BenchResult:
    rows: list
    probe_widths: dict = field(default_factory=dict)  # x -> mean CQR width
    failures: int = 0


METHODS = ("qnn", "cqr", "nw")


def _replication(config: CoverageBenchConfig, rep):
    """One replication of the coverage bench, drawn from its own stream
    coverage-rep-{rep}: (coverage, width) of each of METHODS, then the
    calibrated width at each of PROBE_POINTS, as one tuple of floats; None
    when training fails."""
    alpha = config.alpha
    grid = qnn.QuantileGrid([alpha / 2, 0.5, 1 - alpha / 2])
    rng = RandomSource(config.seed).stream(f"coverage-rep-{rep}")
    sub = int(rng.integers(0, 2 ** 63))
    X_tr, y_tr = _draw(config.dgp, config.n_train, rng)
    X_cal, y_cal = _draw(config.dgp, config.n_cal, rng)
    X_te, y_te = _draw(config.dgp, config.n_test, rng)
    train_ds = qnn.Dataset(X_tr, y_tr)

    try:
        net = qnn.QuantileNetwork([1, 32, len(grid)], grid=grid, seed=sub)
        tc = qnn.TrainingConfig(learning_rate=0.02, batch_size=128,
                                epochs=config.epochs, seed=sub)
        qnn.train(net, train_ds, grid, tc)
    # cli.main turns an overflow into FloatingPointError
    except (qnn.TrainingError, FloatingPointError):
        return None

    lo, hi = net.forward_batch(X_te, [], alpha).T  # uncalibrated
    cal = conformal.calibrate(
        conformal.scores(y_cal, *net.forward_batch(X_cal, [], alpha).T), alpha)
    probe_lo, probe_hi = conformal.conformalize(
        *net.forward_batch(np.asarray(PROBE_POINTS)[:, None], [], alpha).T, cal.qhat)
    nw = kernel.nw_intervals(train_ds, X_cal, y_cal, X_te, kernel.KernelConfig(0.3), alpha)
    return (*conformal.coverage(lo, hi, y_te),
            *conformal.coverage(*conformal.conformalize(lo, hi, cal.qhat), y_te),
            *conformal.coverage(*nw, y_te),
            *(probe_hi - probe_lo).tolist())


def _mean_se(v):
    """The mean of the values v and its standard error, 0 for one value."""
    se = v.std(ddof=1) / np.sqrt(v.size) if v.size > 1 else 0.0
    return float(v.mean()), float(se)


def run_coverage_bench(config: CoverageBenchConfig) -> BenchResult:
    """Coverage and width of uncalibrated QNN intervals, CQR-calibrated
    intervals, and a fixed-width Nadaraya-Watson baseline, averaged over
    seeded replications. Every replication trains the same network (one
    hidden layer of 32 units, Adam at learning rate 0.02 on batches of
    128) and fits NW at bandwidth 0.3. The replications run in forked
    workers, under the caller's errstate (an overflow under cli.main fails
    its replication); the result does not depend on how many."""
    results = parallel_map(functools.partial(_replication, config),
                           range(config.replications), processes=True)
    done = [r for r in results if r is not None]
    if not done:
        return BenchResult([], {}, len(results))
    # one contiguous row per statistic, reduced as the serial loop's lists were
    table = np.array(done).T.copy()
    rows = [BenchRow(m, *_mean_se(table[2 * k]), *_mean_se(table[2 * k + 1]))
            for k, m in enumerate(METHODS)]
    probe_widths = {x: float(np.mean(v))
                    for x, v in zip(PROBE_POINTS, table[2 * len(METHODS):])}
    return BenchResult(rows, probe_widths, len(results) - len(done))


# ---------------------------------------------------------------------------
# Report writers (used by the CLI demo command)
# ---------------------------------------------------------------------------

def write_efron_report(out_dir, est_config: EfronConfig, m_replications=20_000,
                       oracle_replications=50_000):
    est = efron_estimation_ratio(est_config)
    sweep = efron_prediction_sweep((5, 11, 31, 101, 1001), m_replications,
                                   est_config.seed, oracle_replications)
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "efron_estimation.csv"),
              ["n", "m_replications", "ratio", "se", "asymptotic"],
              [(est_config.n, est_config.m_replications, est.ratio, est.se, np.pi / 2)])
    write_csv(os.path.join(out_dir, "efron_prediction_sweep.csv"),
              ["n", "ratio", "se", "closed_form", "closed_form_se"],
              [(n, r.ratio, r.se, r.closed_form, r.closed_form_se) for n, r in sweep])
    return est, sweep


def write_coverage_report(out_dir, config: CoverageBenchConfig):
    result = run_coverage_bench(config)
    if not result.rows:
        raise qnn.TrainingError(f"all {result.failures} replications failed to train")
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "coverage_bench.csv"),
              ["method", "coverage", "coverage_se", "mean_width", "width_se"],
              [(r.method, r.coverage, r.coverage_se, r.mean_width, r.width_se)
               for r in result.rows])
    write_csv(os.path.join(out_dir, "coverage_probe_widths.csv"),
              ["x", "mean_cqr_width"], sorted(result.probe_widths.items()))
    return result

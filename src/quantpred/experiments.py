"""Reproduction harnesses: mean-vs-median efficiency ratios for estimation
and prediction, the normal-normal distortion demo with plot-ready panel
data, and a coverage/width benchmark for conformalized quantile networks
on synthetic data."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import analytic, conformal, kernel, qnn
from .numerics import DomainError, RandomSource, normal_pdf, normal_cdf


def _fmt(x):
    return repr(float(x))


def _write_columns(path, header, columns):
    rows = zip(*columns)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Efron mean-vs-median ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EfronConfig:
    n: int = 1001
    m_replications: int = 10_000
    seed: int = 0
    theta: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("n must be at least 2")
        if self.m_replications < 1:
            raise DomainError("need at least one replication")


@dataclass(frozen=True)
class RatioResult:
    ratio: float
    se: float
    numerator: float
    denominator: float


def _ratio_with_se(num_sq, den_sq):
    """Delta-method standard error for a ratio of two mean squared errors."""
    m = num_sq.size
    a, b = num_sq.mean(), den_sq.mean()
    va, vb = num_sq.var(ddof=1) / m, den_sq.var(ddof=1) / m
    cab = np.cov(num_sq, den_sq, ddof=1)[0, 1] / m
    var_r = va / b**2 + (a**2 / b**4) * vb - 2 * (a / b**3) * cab
    return RatioResult(a / b, float(np.sqrt(max(var_r, 0.0))), a, b)


def efron_estimation_ratio(config: EfronConfig) -> RatioResult:
    """Monte Carlo estimate of E((median - theta)^2) / E((mean - theta)^2)
    for N(theta, 1) samples; the large-n limit is pi/2."""
    rng = RandomSource(config.seed).stream("efron-estimation")
    draws = rng.standard_normal((config.m_replications, config.n)) + config.theta
    med = np.median(draws, axis=1)
    mean = draws.mean(axis=1)
    return _ratio_with_se((med - config.theta) ** 2, (mean - config.theta) ** 2)


def median_variance_factor(n, replications=100_000, seed=0):
    """Nested Monte Carlo oracle for Var(median of n standard normals)."""
    rng = RandomSource(seed).stream("median-variance-oracle")
    chunk = max(1, min(replications, 10_000_000 // n))
    total, total_sq, count = 0.0, 0.0, 0
    while count < replications:
        k = min(chunk, replications - count)
        med = np.median(rng.standard_normal((k, n)), axis=1)
        total += med.sum()
        total_sq += (med ** 2).sum()
        count += k
    mean = total / count
    var = total_sq / count - mean ** 2
    se = var * np.sqrt(2.0 / (count - 1))
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
    with x_new an independent N(theta, 1) draw.

    Also reports the closed-form comparator (1 + v_n) / (1 + 1/n), where
    v_n is the exact median variance for this n obtained from a nested
    Monte Carlo oracle on an independent stream.
    """
    rng = RandomSource(config.seed).stream("efron-prediction")
    draws = rng.standard_normal((config.m_replications, config.n)) + config.theta
    x_new = rng.standard_normal(config.m_replications) + config.theta
    med = np.median(draws, axis=1)
    mean = draws.mean(axis=1)
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


def run_normal_normal_demo(prior: analytic.NormalNormalModel = None,
                           true_theta: float = 3.0, n: int = 100,
                           seed: int = 4, out_dir: str | None = None):
    """Seeded conjugate-update demo: posterior constants, distortion
    identity check, and the three plot-data panels."""
    if prior is None:
        prior = analytic.NormalNormalModel(0.0, 5.0, 10.0)
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
        _write_columns(
            os.path.join(out_dir, "figure1_model.csv"),
            ["theta", "prior_density", "data_density", "posterior_density"],
            [plot_grid,
             normal_pdf(plot_grid, prior.prior_mean, np.sqrt(prior.prior_variance)),
             normal_pdf(plot_grid, true_theta, sigma),
             normal_pdf(plot_grid, summary.mu_star, sd_star)],
        )
        p_grid = np.linspace(0.0005, 0.9995, 999)
        _write_columns(
            os.path.join(out_dir, "figure1_distortion.csv"),
            ["p", "g_p"],
            [p_grid, analytic.wang_distortion(distortion, p_grid)],
        )
        _write_columns(
            os.path.join(out_dir, "figure1_survival.csv"),
            ["theta", "prior_survival", "posterior_survival"],
            [plot_grid,
             1.0 - normal_cdf(plot_grid, prior.prior_mean, np.sqrt(prior.prior_variance)),
             1.0 - normal_cdf(plot_grid, summary.mu_star, sd_star)],
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
    learning_rate: float = 0.02
    batch_size: int = 128
    hidden: tuple = (32,)
    nw_bandwidth: float = 0.3
    probe_points: tuple = (-2.0, -0.2, 0.2, 2.0)

    def __post_init__(self):
        if self.dgp not in DGP_REGISTRY:
            raise DomainError(f"unknown dgp {self.dgp!r}; choose from {DGP_REGISTRY}")
        for name in ("n_train", "n_cal", "n_test", "replications"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be at least 1")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError("alpha must lie strictly inside (0, 1)")


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


def run_coverage_bench(config: CoverageBenchConfig) -> BenchResult:
    """Coverage and width of uncalibrated QNN intervals, CQR-calibrated
    intervals, and a fixed-width Nadaraya-Watson baseline, averaged over
    seeded replications."""
    alpha = config.alpha
    grid = qnn.QuantileGrid([alpha / 2, 0.5, 1 - alpha / 2])
    methods = ("qnn", "cqr", "nw")
    cov = {m: [] for m in methods}
    wid = {m: [] for m in methods}
    probes = {x: [] for x in config.probe_points}
    probe_X = np.asarray(config.probe_points, dtype=float)[:, None]
    failures = 0

    for rep in range(config.replications):
        rng = RandomSource(config.seed).stream(f"coverage-rep-{rep}")
        sub = int(rng.integers(0, 2 ** 63))
        X_tr, y_tr = _draw(config.dgp, config.n_train, rng)
        X_cal, y_cal = _draw(config.dgp, config.n_cal, rng)
        X_te, y_te = _draw(config.dgp, config.n_test, rng)
        train_ds = qnn.Dataset(X_tr, y_tr)

        try:
            net = qnn.QuantileNetwork(
                [1, *config.hidden, len(grid)], grid=grid, seed=sub,
            )
            tc = qnn.TrainingConfig(
                learning_rate=config.learning_rate,
                batch_size=config.batch_size,
                epochs=config.epochs, seed=sub,
            )
            qnn.train(net, train_ds, grid, tc)
        except qnn.TrainingError:
            failures += 1
            continue

        # uncalibrated
        lo, hi = qnn.predict_intervals(net, X_te, alpha)
        c, w = conformal.coverage(lo, hi, y_te)
        cov["qnn"].append(c)
        wid["qnn"].append(w)

        # CQR
        cal = conformal.calibrate(
            conformal.scores(y_cal, *qnn.predict_intervals(net, X_cal, alpha)), alpha)
        c, w = conformal.coverage(*conformal.conformalize(lo, hi, cal.qhat), y_te)
        cov["cqr"].append(c)
        wid["cqr"].append(w)
        probe_lo, probe_hi = conformal.conformalize(
            *qnn.predict_intervals(net, probe_X, alpha), cal.qhat)
        for x, width in zip(config.probe_points, probe_hi - probe_lo):
            probes[x].append(width)

        # NW mean +- fixed split-conformal width on absolute residuals
        kc = kernel.KernelConfig(config.nw_bandwidth)
        cal_pred = kernel.nw_predict(train_ds, X_cal, kc)
        half = conformal.calibrate(
            conformal.scores(y_cal, cal_pred, cal_pred), alpha).qhat
        te_pred = kernel.nw_predict(train_ds, X_te, kc)
        c, w = conformal.coverage(te_pred - half, te_pred + half, y_te)
        cov["nw"].append(c)
        wid["nw"].append(w)

    rows = []
    for m in methods:
        cc, ww = np.asarray(cov[m]), np.asarray(wid[m])
        if cc.size == 0:
            continue
        rows.append(BenchRow(
            m, float(cc.mean()),
            float(cc.std(ddof=1) / np.sqrt(cc.size)) if cc.size > 1 else 0.0,
            float(ww.mean()),
            float(ww.std(ddof=1) / np.sqrt(ww.size)) if ww.size > 1 else 0.0,
        ))
    probe_widths = {x: float(np.mean(v)) for x, v in probes.items() if v}
    return BenchResult(rows, probe_widths, failures)


# ---------------------------------------------------------------------------
# Report writers (used by the CLI demo command)
# ---------------------------------------------------------------------------

def write_efron_report(out_dir, est_config: EfronConfig, n_grid=(5, 11, 31, 101, 1001),
                       m_replications=20_000, oracle_replications=50_000):
    os.makedirs(out_dir, exist_ok=True)
    est = efron_estimation_ratio(est_config)
    sweep = efron_prediction_sweep(n_grid, m_replications, est_config.seed,
                                   oracle_replications)
    with open(os.path.join(out_dir, "efron_estimation.csv"), "w") as fh:
        fh.write("n,m_replications,ratio,se,asymptotic\n")
        fh.write(f"{est_config.n},{est_config.m_replications},"
                 f"{_fmt(est.ratio)},{_fmt(est.se)},{_fmt(np.pi / 2)}\n")
    with open(os.path.join(out_dir, "efron_prediction_sweep.csv"), "w") as fh:
        fh.write("n,ratio,se,closed_form,closed_form_se\n")
        for n, res in sweep:
            fh.write(f"{n},{_fmt(res.ratio)},{_fmt(res.se)},"
                     f"{_fmt(res.closed_form)},{_fmt(res.closed_form_se)}\n")
    return est, sweep


def write_coverage_report(out_dir, config: CoverageBenchConfig):
    os.makedirs(out_dir, exist_ok=True)
    result = run_coverage_bench(config)
    with open(os.path.join(out_dir, "coverage_bench.csv"), "w") as fh:
        fh.write("method,coverage,coverage_se,mean_width,width_se\n")
        for row in result.rows:
            fh.write(f"{row.method},{_fmt(row.coverage)},{_fmt(row.coverage_se)},"
                     f"{_fmt(row.mean_width)},{_fmt(row.width_se)}\n")
    with open(os.path.join(out_dir, "coverage_probe_widths.csv"), "w") as fh:
        fh.write("x,mean_cqr_width\n")
        for x, w in sorted(result.probe_widths.items()):
            fh.write(f"{_fmt(x)},{_fmt(w)}\n")
    return result

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantpred.conformal import (
    ConformalCalibration,
    calibrate,
    conformalize,
    coverage,
    scores,
)
from quantpred.numerics import DomainError, RandomSource


class TestNonconformityScore:
    def test_interior_point(self):
        assert scores([5], [3], [7]).tolist() == [-2]

    def test_above_band(self):
        assert scores([9], [3], [7]).tolist() == [2]

    def test_boundary(self):
        assert scores([3], [3], [7]).tolist() == [0]

    def test_sign_characterizes_membership(self):
        rng = RandomSource(0).stream("scores")
        lo = rng.normal(size=200)
        hi = lo + np.abs(rng.normal(size=200))
        y = rng.normal(scale=3, size=200)
        s = scores(y, lo, hi)
        assert np.array_equal(s < 0, (lo < y) & (y < hi))

    def test_rejects_inverted_band(self):
        with pytest.raises(DomainError):
            scores([0], [1], [-1])
        # one inverted row anywhere in the batch is enough
        with pytest.raises(DomainError, match="row 1"):
            scores([0, 0, 0], [-1, 1, -1], [1, -1, 1])

    def test_sizes_must_match_and_be_non_empty(self):
        with pytest.raises(DomainError):
            scores([0.0, 1.0], [-1.0], [1.0])
        with pytest.raises(DomainError):
            scores([], [], [])

    def test_matches_scalar_reference(self):
        rng = RandomSource(3).stream("scores-ref")
        lo = rng.normal(size=100)
        hi = lo + np.abs(rng.normal(size=100))
        y = rng.normal(scale=2, size=100)
        ref = [max(a - b, b - c) for a, b, c in zip(lo, y, hi)]
        assert scores(y, lo, hi).tolist() == ref


class TestCalibrate:
    def test_all_inside_gives_negative_qhat(self):
        cal = calibrate(scores([5.0, 4.0, 6.0], [3.0] * 3, [7.0] * 3), 0.5)
        assert cal.qhat < 0

    def test_hand_built_order_statistic(self):
        s = [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        cal = calibrate(s, 0.2)
        assert cal.n == 9
        assert cal.qhat == sorted(s)[7]  # ceil(0.8*10) = 8th smallest

    def test_single_point(self):
        s = scores([2.0], [3.0], [7.0])
        cal = calibrate(s, 0.5)
        assert cal.qhat == s[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            calibrate([], 0.1)

    def test_monotone_in_scores(self):
        rng = RandomSource(1).stream("cal")
        ys = rng.normal(size=20)
        lo, hi = np.full(20, -1.0), np.full(20, 1.0)
        base = calibrate(scores(ys, lo, hi), 0.2).qhat
        for i in range(20):
            bumped = ys.copy()
            bumped[i] = ys[i] + 10.0 if ys[i] > 1.0 else 12.0
            assert calibrate(scores(bumped, lo, hi), 0.2).qhat >= base


class TestConformalize:
    def test_identity_at_zero(self):
        lo, hi = conformalize([3.0], [7.0], 0.0)
        assert (lo.tolist(), hi.tolist()) == ([3.0], [7.0])

    def test_inflation(self):
        lo, hi = conformalize([3.0], [7.0], 2.0)
        assert (lo.tolist(), hi.tolist()) == ([1.0], [9.0])

    def test_negative_collapse_to_midpoint(self):
        lo, hi = conformalize([3.0], [7.0], -3.0)
        assert (lo.tolist(), hi.tolist()) == ([5.0], [5.0])

    def test_collapse_applies_row_by_row(self):
        # half-widths 2, 0.5 and 1: only the rows narrower than |qhat| collapse
        lo, hi = conformalize([3.0, 0.0, -1.0], [7.0, 1.0, 1.0], -1.0)
        assert lo.tolist() == [4.0, 0.5, 0.0]
        assert hi.tolist() == [6.0, 0.5, 0.0]

    def test_rejects_inverted_band_and_size_mismatch(self):
        with pytest.raises(DomainError):
            conformalize([1.0], [0.0], 0.5)
        with pytest.raises(DomainError):
            conformalize([0.0, 1.0], [1.0], 0.5)
        with pytest.raises(DomainError):
            conformalize([], [], 0.5)


class TestEvaluateCoverage:
    def test_all_inside(self):
        cov, width = coverage([0.0] * 3, [2.0] * 3, [1.0, 0.5, 1.5])
        assert cov == 1.0
        assert width == 2.0

    def test_zero_width_boundary_counts(self):
        cov, width = coverage([1.0], [1.0], [1.0])
        assert cov == 1.0
        assert width == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            coverage([0.0], [1.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            coverage([], [], [])
        with pytest.raises(DomainError):
            coverage([1.0], [0.0], [0.5])

    def test_affine_invariance(self):
        rng = RandomSource(2).stream("cov")
        y = rng.normal(size=50)
        v = rng.normal(size=50)
        cov, _ = coverage(v - 1, v + 0.5, y)
        a, b = 3.5, -2.0
        cov2, _ = coverage(a * (v - 1) + b, a * (v + 0.5) + b, a * y + b)
        assert cov == cov2


class TestExchangeabilityGuarantee:
    def test_marginal_coverage_at_least_target(self):
        # split conformal around a deliberately misscaled base interval:
        # pooled exchangeable draws, 200 replications, binomial-style bound
        alpha = 0.1
        reps = 200
        rng = RandomSource(77).stream("exch")
        covs = []
        for _ in range(reps):
            y_cal = rng.standard_normal(99)
            y_test = rng.standard_normal(100)
            cal = calibrate(scores(y_cal, np.full(99, -0.5), np.full(99, 0.5)), alpha)
            lo, hi = conformalize(np.full(100, -0.5), np.full(100, 0.5), cal.qhat)
            cov, _ = coverage(lo, hi, y_test)
            covs.append(cov)
        covs = np.asarray(covs)
        se = covs.std(ddof=1) / np.sqrt(reps)
        assert covs.mean() >= (1 - alpha) - 3 * se

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(1, 500),
           alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2 ** 32))
    def test_exact_coverage_bound(self, n, alpha, seed):
        # a fresh exchangeable score is equally likely to take each of the
        # n + 1 ranks, so with distinct scores its coverage is exactly
        # #(scores <= qhat) / (n + 1)
        s = RandomSource(seed).stream("exact-coverage").standard_normal(n)
        assert np.unique(s).size == n
        qhat = calibrate(s, alpha).qhat
        hits = np.count_nonzero(s <= qhat)
        target = (1 - alpha) * (n + 1)
        if target <= n:
            # coverage in [1-alpha, 1-alpha+1/(n+1)), times n+1; the only
            # slack is the 1e-9 guard calibrate subtracts before the ceiling
            assert target - 1e-9 <= hits < target + 1
        else:
            assert qhat == s.max()

    def test_monte_carlo_coverage_at_n_19(self):
        # n_cal = 19, alpha = 0.1: a fresh point is covered with probability
        # exactly 18/20; one test point per replication makes the coverage
        # indicators Bernoulli(0.9) draws
        alpha, n_cal, reps = 0.1, 19, 5000
        rng = RandomSource(19).stream("mc-coverage")
        y = rng.standard_normal((reps, n_cal + 1))
        hits = 0.0
        for row in y:
            cal = calibrate(scores(row[:-1], np.full(n_cal, -0.5),
                                   np.full(n_cal, 0.5)), alpha)
            lo, hi = conformalize([-0.5], [0.5], cal.qhat)
            hits += coverage(lo, hi, row[-1:])[0]
        p = 18 / 20
        assert abs(hits / reps - p) <= 4 * np.sqrt(p * (1 - p) / reps)


class TestRecord:
    def test_round_trip(self):
        cal = calibrate(scores([5.0, 9.0], [3.0, 3.0], [7.0, 7.0]), 0.2)
        text = cal.to_record()
        back = ConformalCalibration.from_record(text)
        assert back.alpha == cal.alpha
        assert back.n == cal.n
        assert back.qhat == cal.qhat

    def test_fields(self):
        cal = calibrate(scores([5.0, 9.0], [3.0, 3.0], [7.0, 7.0]), 0.2)
        assert cal.to_record() == (
            f"conformal-calibration v1\nalpha=0.2\nn=2\nqhat={cal.qhat!r}\n")

    def test_record_with_score_digest_loads(self):
        # records of earlier versions carry a score_sha256 line
        back = ConformalCalibration.from_record(
            "conformal-calibration v1\nalpha=0.1\nn=3\nqhat=0.5\n"
            "score_sha256=" + "0" * 64 + "\n")
        assert (back.alpha, back.n, back.qhat) == (0.1, 3, 0.5)

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            ConformalCalibration.from_record("not a record")

    @pytest.mark.parametrize("text,match", [
        ("conformal-calibration v1\nalpha=0.1\nn=3\n", "'qhat'"),
        ("conformal-calibration v1\nalpha=0.1\nqhat=0.5\n", "'n'"),
        ("conformal-calibration v1\nalpha=0.1\nn=3\nqhat=wide\n", "'qhat'"),
        ("conformal-calibration v1\nalpha=0.1\nn=3\nqhat=nan\n", "finite"),
        ("conformal-calibration v1\nalpha=0.1\nn=3\nqhat 0.5\n", "key=value"),
    ])
    def test_malformed_fields_rejected(self, text, match):
        with pytest.raises(DomainError, match=match):
            ConformalCalibration.from_record(text)

    def test_load_names_the_path(self, tmp_path):
        # an OSError propagates, naming the path in its filename
        missing = str(tmp_path / "nope.txt")
        with pytest.raises(FileNotFoundError) as info:
            ConformalCalibration.load(missing)
        assert info.value.filename == missing
        bad = tmp_path / "bad.txt"
        bad.write_text("conformal-calibration v1\nalpha=0.1\nn=3\n")
        with pytest.raises(DomainError, match="bad.txt.*'qhat'"):
            ConformalCalibration.load(str(bad))

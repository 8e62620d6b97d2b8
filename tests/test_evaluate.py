import math

import numpy as np
import pytest
from datetime import date, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

from spillcast import errors
from spillcast.evaluate import (
    NegBinModel,
    _bounded_minimize,
    PredictiveDist,
    bayesian_predictive,
    fit_negbin,
    log_score,
    negbin_loglik,
    nb_one_step,
    score_run,
)
from spillcast.ingest import CaseSeries


def point_mass(k, x_cap=100, week=None):
    probs = np.zeros(x_cap + 1)
    probs[k] = 1.0
    return PredictiveDist(week=week, probs=probs)


class TestLogScore:
    def test_certain_prediction_scores_zero(self):
        assert log_score(point_mass(3), 3) == 0.0

    def test_exp_minus_two(self):
        probs = np.zeros(101)
        probs[5] = math.exp(-2.0)
        probs[0] = 1.0 - math.exp(-2.0)
        dist = PredictiveDist(week=None, probs=probs)
        assert log_score(dist, 5) == pytest.approx(-2.0, rel=1e-12)

    def test_zero_probability_floored(self):
        assert log_score(point_mass(3), 4) == -10.0

    def test_beyond_support_floored(self):
        assert log_score(point_mass(3, x_cap=10), 11) == -10.0

    def test_custom_floor(self):
        assert log_score(point_mass(3), 4, floor=-7.5) == -7.5

    def test_unnormalized_rejected(self):
        probs = np.zeros(11)
        probs[0] = 0.5
        with pytest.raises(errors.UnnormalizedDist):
            PredictiveDist(week=None, probs=probs)

    def test_nan_sum_rejected(self):
        """``abs(nan - 1) > tol`` is False, so a NaN distribution used to
        pass both checks and score NaN."""
        with pytest.raises(errors.UnnormalizedDist):
            PredictiveDist(week=None, probs=np.full(11, np.nan))
        dist = point_mass(3, x_cap=10)
        dist.probs[:] = np.nan
        with pytest.raises(errors.UnnormalizedDist):
            log_score(dist, 3)

    def test_monotone_in_assigned_probability(self):
        scores = []
        for p in (0.01, 0.1, 0.5, 0.9):
            probs = np.zeros(11)
            probs[2] = p
            probs[0] = 1.0 - p
            scores.append(log_score(PredictiveDist(week=None, probs=probs), 2))
        assert scores == sorted(scores)


class TestBayesianPredictive:
    def test_sigma_zero_point_mass(self):
        dist = bayesian_predictive(4, sigma=0.0)
        assert dist.probs[4] == 1.0
        assert dist.probs.sum() == pytest.approx(1.0)

    def test_mode_at_zero_for_zero_prediction(self):
        dist = bayesian_predictive(0, sigma=1.5)
        assert int(np.argmax(dist.probs)) == 0

    def test_mass_sums_to_one(self):
        for pred in (0, 3, 50, 100):
            dist = bayesian_predictive(pred, sigma=1.5)
            assert abs(float(dist.probs.sum()) - 1.0) < 1e-9

    def test_centered_on_prediction(self):
        dist = bayesian_predictive(42, sigma=1.5)
        assert int(np.argmax(dist.probs)) == 42

    def test_far_beyond_cap_is_a_point_mass_at_the_cap(self):
        """Every Gaussian weight underflows, so renormalizing used to
        divide 0 by 0 and give NaN probabilities."""
        dist = bayesian_predictive(50, sigma=0.5, x_cap=10)
        assert dist.probs.tolist() == [0.0] * 10 + [1.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", [1e-320, 1e-160])
    def test_tiny_sigma_is_a_point_mass_without_warnings(self, sigma):
        """A sigma too small to divide by used to print an overflow
        RuntimeWarning per call."""
        for predicted, want in ((7, 7), (14, 10)):
            dist = bayesian_predictive(predicted, sigma=sigma, x_cap=10)
            assert dist.probs.tolist() == [float(k == want)
                                           for k in range(11)]

    @given(predicted=st.integers(0, 60), x_cap=st.integers(1, 40),
           sigma=st.floats(1e-3, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_gaussian_point_masses_keep_their_bytes(self, predicted, x_cap,
                                                    sigma):
        """Wherever the Gaussian kernel gives a distribution, point masses
        included, the result is that distribution, byte for byte."""
        support = np.arange(x_cap + 1)
        z = (support - predicted) / sigma
        weights = np.exp(-0.5 * z * z)
        if not weights.sum() > 0.0:
            return
        got = bayesian_predictive(predicted, sigma=sigma, x_cap=x_cap)
        assert got.probs.tobytes() == (weights / weights.sum()).tobytes()


class TestNegBin:
    def test_constant_history_poisson_fallback(self):
        model = fit_negbin([3] * 20)
        assert model.poisson_mean == 3.0
        assert model.mean() == 3.0

    def test_pmf_convention_at_zero(self):
        model = NegBinModel(r=2.0, p=0.4)
        assert float(model.pmf(0)) == pytest.approx(0.4**2, rel=1e-12)

    def test_mean_identity_by_summation(self):
        model = NegBinModel(r=2.0, p=0.4)
        ks = np.arange(0, 500)
        pmf = model.pmf(ks)
        assert float(pmf.sum()) == pytest.approx(1.0, abs=1e-9)
        assert float((ks * pmf).sum()) == pytest.approx(
            2.0 * 0.6 / 0.4, rel=1e-9)
        assert model.mean() == pytest.approx(3.0)

    def test_recovers_synthetic_parameters(self):
        """Oracle: log-likelihood grid search over (r, p)."""
        rng = np.random.default_rng(2024)
        # NB(r, p) as Poisson-Gamma mixture: rate ~ Gamma(r, (1-p)/p)
        r_true, p_true = 2.0, 0.4
        lam = rng.gamma(r_true, (1.0 - p_true) / p_true, 5000)
        counts = rng.poisson(lam)
        model = fit_negbin(counts)
        assert 1.7 <= model.r <= 2.3
        assert 0.36 <= model.p <= 0.44

        # the MLE must dominate a coarse grid oracle
        best_grid = -np.inf
        for r in np.linspace(0.5, 5.0, 46):
            for p in np.linspace(0.05, 0.95, 91):
                best_grid = max(best_grid, negbin_loglik(counts, r, p))
        assert negbin_loglik(counts, model.r, model.p) >= best_grid - 1e-6

    def test_mle_dominates_grid_on_random_data(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            lam = rng.gamma(1.5, 2.0, 400)
            counts = rng.poisson(lam)
            if np.var(counts, ddof=1) <= np.mean(counts):
                continue
            model = fit_negbin(counts)
            ll_fit = negbin_loglik(counts, model.r, model.p)
            for r in np.linspace(0.3, 8.0, 30):
                for p in np.linspace(0.05, 0.95, 30):
                    assert ll_fit >= negbin_loglik(counts, r, p) - 1e-6

    def test_too_few_observations(self):
        with pytest.raises(errors.TooFewObservations):
            fit_negbin([1, 2, 3])

    def test_loglik_matches_direct_formula(self):
        counts = np.array([0, 1, 3, 2, 5])
        r, p = 1.7, 0.35
        direct = sum(
            float(gammaln(k + r) - gammaln(r) - gammaln(k + 1))
            + r * math.log(p) + k * math.log(1 - p)
            for k in counts
        )
        assert negbin_loglik(counts, r, p) == pytest.approx(direct, rel=1e-12)


class TestBoundedSearch:
    """The Brent port against scipy's bounded search as the oracle."""

    def test_nan_objective_raises(self):
        with pytest.raises(errors.NoConvergence):
            _bounded_minimize(lambda x: math.nan, 0.0, 1.0, xatol=1e-10)

    def test_objective_turning_infinite_raises(self):
        # finite at the first (golden) point, infinite past x = 0.5
        with pytest.raises(errors.NoConvergence):
            _bounded_minimize(lambda x: -x if x < 0.5 else math.inf, 0.0, 1.0,
                              xatol=1e-10)

    def test_maxiter_raises(self):
        # a minimum at 0 with xatol = 0 leaves a tolerance that shrinks
        # with the bracket, so the search never stops on its own
        res = minimize_scalar(abs, bounds=(-1.0, 1.0), method="bounded",
                              options={"xatol": 0.0})
        assert res.status == 1 and res.nfev == 500
        with pytest.raises(errors.NoConvergence, match="500"):
            _bounded_minimize(abs, -1.0, 1.0, xatol=0.0)

    def test_fit_with_nan_profile_raises(self):
        # lgam overflows past 2.6e305, so the profile is inf - inf = nan;
        # the scipy fit ignored its failed status and kept r at its first
        # golden point
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(errors.NoConvergence):
            fit_negbin([0, 1e306] * 5)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50.0, 50.0), st.floats(0.1, 10.0),
           st.floats(-60.0, 0.0), st.floats(0.01, 60.0),
           st.sampled_from([1e-10, 1e-5, 1e-2]))
    def test_equals_scipy_on_smooth_objectives(self, center, scale, lo,
                                                width, xatol):
        def f(x):
            z = (x - center) / scale
            return z * z - math.cos(3.0 * z)
        want = minimize_scalar(f, bounds=(lo, lo + width), method="bounded",
                               options={"xatol": xatol}).x
        assert _bounded_minimize(f, lo, lo + width, xatol=xatol) == want

    @staticmethod
    def scipy_fit_r(counts):
        """The NB profile fit as it was written against scipy."""
        counts = np.asarray(counts, dtype=float)
        mean = float(np.mean(counts))

        def neg_profile(log_r):
            r = math.exp(log_r)
            p = r / (r + mean)
            return -float(np.sum(
                gammaln(counts + r) - gammaln(r) - gammaln(counts + 1)
                + r * math.log(p) + counts * math.log1p(-p)))

        res = minimize_scalar(neg_profile,
                              bounds=(math.log(1e-3), math.log(1e6)),
                              method="bounded", options={"xatol": 1e-10})
        assert res.success
        return math.exp(res.x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 400),
           st.floats(0.05, 50.0), st.floats(0.1, 30.0))
    def test_fitted_r_equals_scipy(self, seed, n, shape, scale):
        rng = np.random.default_rng(seed)
        counts = rng.poisson(rng.gamma(shape, scale, n))
        if np.var(counts, ddof=1) <= np.mean(counts) or np.mean(counts) == 0:
            return
        assert fit_negbin(counts).r == self.scipy_fit_r(counts)

    def test_fitted_r_equals_scipy_on_fixed_windows(self):
        rng = np.random.default_rng(11)
        fits = 0
        for n in (8, 12, 26, 52, 104, 260, 520):
            for shape in (0.2, 1.0, 5.0):
                counts = rng.poisson(rng.gamma(shape, 4.0, n))
                if np.var(counts, ddof=1) <= np.mean(counts):
                    continue
                assert fit_negbin(counts).r == self.scipy_fit_r(counts)
                fits += 1
        assert fits >= 15


class TestNbOneStep:
    def test_constant_zero_history(self):
        dist = nb_one_step([0] * 20)
        assert int(np.argmax(dist.probs)) == 0
        assert dist.probs[0] > 0.999

    def test_truncated_mass_one(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(rng.gamma(2.0, 1.5, 60))
        dist = nb_one_step(counts)
        assert abs(float(dist.probs.sum()) - 1.0) < 1e-9

    def test_nb_pmf_zero_matches_convention(self):
        model = NegBinModel(r=2.0, p=0.4)
        probs = model.pmf(np.arange(101))
        assert probs[0] == pytest.approx(0.16, rel=1e-12)


class TestScoreRun:
    def weeks(self, n, start=date(2022, 6, 6)):
        return tuple(start + timedelta(days=7 * i) for i in range(n))

    def test_perfect_predictions_score_zero(self):
        wk = self.weeks(3)
        observed = CaseSeries(wk, np.array([0, 2, 5]))
        preds = [point_mass(0, week=wk[0]), point_mass(2, week=wk[1]),
                 point_mass(5, week=wk[2])]
        report = score_run(preds, observed)
        assert report.ts == 0.0
        assert report.zs == 0.0
        assert report.nzs == 0.0

    def test_single_zero_week(self):
        wk = self.weeks(1)
        probs = np.zeros(101)
        probs[0] = math.exp(-1.0)
        probs[1] = 1.0 - math.exp(-1.0)
        report = score_run([PredictiveDist(week=wk[0], probs=probs)],
                           CaseSeries(wk, np.array([0])))
        assert report.zs == pytest.approx(-1.0)
        assert report.nzs == 0.0
        assert report.ts == pytest.approx(-1.0)

    def test_partition_identity_on_random_runs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            wk = self.weeks(n)
            observed = CaseSeries(wk, rng.integers(0, 6, n))
            preds = []
            for i in range(n):
                raw = rng.uniform(0.0, 1.0, 101)
                preds.append(PredictiveDist(week=wk[i], probs=raw / raw.sum()))
            report = score_run(preds, observed)
            assert report.ts == pytest.approx(report.zs + report.nzs,
                                              rel=1e-12, abs=1e-12)
            assert all(-10.0 <= s <= 0.0 for s in report.scores)

    def test_week_mismatch(self):
        wk = self.weeks(2)
        observed = CaseSeries(wk, np.array([1, 2]))
        with pytest.raises(errors.WeekMismatch):
            score_run([point_mass(1, week=wk[0])], observed)
        shifted = [point_mass(1, week=wk[1]), point_mass(2, week=wk[0])]
        with pytest.raises(errors.WeekMismatch):
            score_run(shifted, observed)

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov, ndtr

from spillcast import errors
from spillcast.onset import RiskLevel, fit_onset_pdf
from spillcast.trend import (
    _yearly_indicators,
    annual_indicators,
    ks_normality,
    ols_trend,
    trend_report,
)


class TestAnnualIndicators:
    def test_fraction_of_high_days(self):
        levels = [RiskLevel.HIGH] * 73 + [RiskLevel.GREEN] * 292
        r_year, _ = annual_indicators(levels)
        assert r_year == pytest.approx(0.2)

    def test_all_green_zero_convention(self):
        levels = [RiskLevel.GREEN] * 365
        assert annual_indicators(levels) == (0.0, 0.0)

    def test_relative_fraction(self):
        levels = ([RiskLevel.HIGH] * 10 + [RiskLevel.RISKY] * 10
                  + [RiskLevel.GREEN] * 100)
        _, r_rel = annual_indicators(levels)
        assert r_rel == pytest.approx(0.5)

    def test_bounds_and_dominance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            levels = [RiskLevel(int(v)) for v in rng.integers(0, 4, 365)]
            r_year, r_rel = annual_indicators(levels)
            assert 0.0 <= r_year <= 1.0
            assert 0.0 <= r_rel <= 1.0
            if any(lv is RiskLevel.HIGH for lv in levels):
                assert r_rel >= r_year

    def test_empty_year(self):
        with pytest.raises(errors.EmptyYear):
            annual_indicators([])


class TestOlsTrend:
    def test_exact_line(self):
        years = np.arange(2000, 2010)
        result = ols_trend(years, 2.0 * years + 1.0)
        assert result.slope == pytest.approx(2.0, abs=1e-10)
        assert result.intercept == pytest.approx(1.0, abs=1e-7)
        assert result.stderr == pytest.approx(0.0, abs=1e-10)
        assert result.p_value < 1e-12

    def test_constant_values(self):
        years = np.arange(2000, 2010)
        result = ols_trend(years, np.full(10, 3.3))
        assert result.slope == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == 1.0

    def test_matches_closed_form_oracle(self):
        """Oracle: normal-equation solution computed independently."""
        rng = np.random.default_rng(33)
        years = np.arange(1991, 2024)
        values = 0.002 * (years - years.mean()) + 0.22 + rng.normal(0, 0.01, 33)
        result = ols_trend(years, values)
        design = np.column_stack([np.ones(33), years])
        beta = np.linalg.solve(design.T @ design, design.T @ values)
        assert result.intercept == pytest.approx(beta[0], abs=1e-10)
        assert result.slope == pytest.approx(beta[1], abs=1e-10)
        resid = values - design @ beta
        sigma2 = resid @ resid / 31
        se = math.sqrt(sigma2 / np.sum((years - years.mean()) ** 2))
        assert result.stderr == pytest.approx(se, rel=1e-10)

    def test_synthetic_slope_recovery(self):
        rng = np.random.default_rng(152)
        years = np.arange(1991, 2024)
        values = 0.002 * years + 0.22 + rng.normal(0, 0.01, 33)
        result = ols_trend(years, values)
        assert 0.001 <= result.slope <= 0.003
        assert result.p_value < 0.05

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        years = np.arange(2000, 2015)
        values = 0.01 * years + rng.normal(0, 0.05, 15)
        base = ols_trend(years, values)
        perm = rng.permutation(15)
        shuffled = ols_trend(years[perm], values[perm])
        assert shuffled.slope == pytest.approx(base.slope, rel=1e-12)
        assert shuffled.p_value == pytest.approx(base.p_value, rel=1e-9)

    def test_too_few_years(self):
        with pytest.raises(errors.TooFewYears):
            ols_trend([2000, 2001], [1.0, 2.0])
        with pytest.raises(errors.TooFewYears):
            ols_trend([2000, 2000, 2000], [1.0, 2.0, 3.0])


class TestKsNormality:
    def test_normal_sample_not_rejected(self):
        rng = np.random.default_rng(9)
        assert ks_normality(rng.normal(0.0, 1.0, 200)) > 0.05

    def test_uniform_sample_rejected(self):
        rng = np.random.default_rng(10)
        sample = rng.uniform(0.0, 1.0, 500) - 0.5
        assert ks_normality(sample) < 0.05

    def test_three_point_formula(self):
        """Oracle: 3-point CDF enumeration (five copies to satisfy the
        minimum sample size)."""
        residuals = np.array([-1.0, 0.0, 1.0] * 5)
        r = np.sort(residuals)
        n = len(r)
        sd = float(np.std(r, ddof=1))
        cdf = ndtr((r - r.mean()) / sd)
        d_plus = max(np.arange(1, n + 1) / n - cdf)
        d_minus = max(cdf - np.arange(0, n) / n)
        d = max(d_plus, d_minus)
        expected = float(kolmogorov(math.sqrt(n) * d))
        assert ks_normality(residuals) == pytest.approx(expected, rel=1e-12)

    def test_p_monotone_in_statistic(self):
        values = [kolmogorov(s) for s in (0.3, 0.6, 0.9, 1.5, 2.5)]
        assert values == sorted(values, reverse=True)

    def test_too_few(self):
        with pytest.raises(errors.TooFewResiduals):
            ks_normality([0.1, -0.2, 0.3])

    def test_degenerate_residuals(self):
        assert ks_normality(np.zeros(10)) == 1.0


@pytest.fixture(scope="module")
def pdf_and_predictor(world, pipeline_trajectories):
    from spillcast.onset import collect_onset_samples
    from spillcast.carrycap import KSeries
    cases = world.cases.year_slices()
    train = {y: pipeline_trajectories[y] for y in (2019, 2020, 2021)}
    samples, _ = collect_onset_samples(train, {y: cases[y] for y in train})
    pdf = fit_onset_pdf(samples, bandwidth=(150.0, 80.0))

    def constant_k(wx):
        return KSeries(wx.dates, np.full(len(wx), world.k_star))
    return pdf, constant_k


class TestTrendReport:
    def test_stationary_climate_no_trend(self, world, pdf_and_predictor):
        """Identical climate years must give a slope statistically
        indistinguishable from zero."""
        from spillcast.epimodel import ModelParams
        from spillcast.synth import seasonal_weather
        pdf, constant_k = pdf_and_predictor
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        archive = seasonal_weather(2000, 12, noise_sigma=0.0)
        report = trend_report(archive, pdf, params, constant_k, cfg)
        assert len(report.years) == 12
        # years repeat up to leap-day quantization: slope is noise-level
        # and statistically indistinguishable from zero
        assert abs(report.trend_r_year.slope) < 1e-4
        assert report.trend_r_year.p_value > 0.1
        assert report.trend_r_relative.p_value > 0.1

    def test_warming_climate_positive_trend(self, world, pdf_and_predictor):
        from spillcast.epimodel import ModelParams
        from spillcast.synth import seasonal_weather
        pdf, constant_k = pdf_and_predictor
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        archive = seasonal_weather(1994, 30, warming_per_year=0.05,
                                   temp_base=16.2, noise_sigma=0.35, seed=60)
        report = trend_report(archive, pdf, params, constant_k, cfg)
        assert report.trend_r_year.slope > 0.0
        assert report.trend_r_year.p_value < 0.05
        # oracle: recompute the indicators from the classified series
        assert np.all((report.r_year >= 0) & (report.r_year <= 1))

    def test_report_lists_one_row_per_year(self, world, pdf_and_predictor):
        from spillcast.epimodel import ModelParams
        from spillcast.synth import seasonal_weather
        pdf, constant_k = pdf_and_predictor
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        archive = seasonal_weather(2000, 10, noise_sigma=0.2, seed=8)
        report = trend_report(archive, pdf, params, constant_k, cfg)
        assert len(report.years) == len(report.r_year) == 10

    def test_requires_ten_years(self, world, pdf_and_predictor):
        from spillcast.epimodel import ModelParams
        from spillcast.synth import seasonal_weather
        pdf, constant_k = pdf_and_predictor
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        archive = seasonal_weather(2000, 5)
        with pytest.raises(errors.TooFewYears):
            trend_report(archive, pdf, params, constant_k, cfg)


def test_trend_report_rejects_a_k_predictor_giving_k_0(world,
                                                       pdf_and_predictor):
    """K = 0 from the predictor is an input error, not floored at 1e-6
    (a KSeries cannot hold a negative K)."""
    from spillcast.carrycap import KSeries
    from spillcast.epimodel import ModelParams
    from spillcast.synth import seasonal_weather
    pdf, _ = pdf_and_predictor
    archive = seasonal_weather(2000, 10, noise_sigma=0.2, seed=8)

    def bad(wx):
        values = np.full(len(wx), world.k_star)
        values[200] = 0.0
        return KSeries(wx.dates, values)

    with pytest.raises(errors.NonFiniteInput):
        trend_report(archive, pdf, ModelParams.from_config(world.cfg), bad,
                     world.cfg)


def test_trend_report_equals_years_classified_one_by_one(world,
                                                         pdf_and_predictor):
    """The archive is classified in one call, across block boundaries of
    OnsetPdf.evaluate; each year's indicators equal, bit for bit, those of
    forecast_onset on that year simulated alone."""
    from spillcast.epimodel import ModelParams, default_init_state, simulate
    from spillcast.onset import forecast_onset
    from spillcast.synth import seasonal_weather
    pdf, constant_k = pdf_and_predictor
    cfg = world.cfg
    params = ModelParams.from_config(cfg)
    archive = seasonal_weather(1994, 30, warming_per_year=0.05,
                               temp_base=16.2, noise_sigma=0.35, seed=60)
    report = trend_report(archive, pdf, params, constant_k, cfg)
    init = default_init_state(cfg)
    levels = set()
    for j, (year, wx) in enumerate(sorted(archive.year_slices().items())):
        traj = simulate(params, wx, constant_k(wx).values, init,
                        steps_per_day=cfg.steps_per_day)
        risk = forecast_onset(pdf, traj)
        levels.update(risk.levels)
        assert report.years[j] == year
        assert ((report.r_year[j], report.r_relative[j])
                == annual_indicators(risk.levels))
    assert len(levels) == len(RiskLevel)


def test_annual_indicators_equal_the_identity_counts():
    """Counting by ``list.count`` gives the identity-test counts."""
    rng = np.random.default_rng(9)
    for n in (1, 7, 365):
        levels = [RiskLevel(int(v)) for v in rng.integers(0, 4, n)]
        n_high = sum(1 for lv in levels if lv is RiskLevel.HIGH)
        n_risk = sum(1 for lv in levels if lv is not RiskLevel.GREEN)
        assert annual_indicators(levels) == (
            n_high / n, n_high / n_risk if n_risk else 0.0)



@given(levels=st.lists(st.lists(st.sampled_from(list(RiskLevel)), min_size=1,
                                max_size=40), min_size=1, max_size=14))
@settings(max_examples=100, deadline=None)
def test_level_counts_per_year_equal_annual_indicators(levels):
    """The per-year High and Green counts that trend_report takes from
    the risk codes of all years at once give each year's
    ``annual_indicators`` of its levels exactly."""
    codes = np.array([int(level) for year in levels for level in year])
    r_year, r_relative = _yearly_indicators(codes, [len(y) for y in levels])
    assert list(zip(r_year, r_relative)) == [annual_indicators(year)
                                             for year in levels]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_plane_k_of_the_archive_sliced_equals_each_year(seed):
    """``trend_report`` predicts K once over the archive and slices it by
    year: for the plane predictor the slices equal, bit for bit, the K
    predicted on each year alone (fallback and clamped days included)."""
    from spillcast.carrycap import fit_plane, predict_K_plane, quantile_edges
    from spillcast.synth import seasonal_weather
    rng = np.random.default_rng(seed)
    archive = seasonal_weather(2000, 3, noise_sigma=0.3,
                               seed=int(rng.integers(0, 1000)))
    samples = np.column_stack([
        rng.uniform(0.0, 30.0, 120), rng.uniform(20.0, 100.0, 120),
        rng.uniform(0.0, 3.0, 120), rng.uniform(-2000.0, 9000.0, 120)])
    model = fit_plane(samples, quantile_edges(samples[:, 2]))
    whole = predict_K_plane(model, archive).values
    lo = 0
    for _, wx in sorted(archive.year_slices().items()):
        part = predict_K_plane(model, wx).values
        assert whole[lo:lo + len(wx)].tobytes() == part.tobytes()
        lo += len(wx)
    assert lo == len(whole)

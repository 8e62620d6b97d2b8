"""The paper's claims as recorded numbers.

The warming analysis: onset density fitted on the first three years of the
seed-3 synthetic world, then the benchmark's 30-year warming archive
(1994-2023, +0.05 degC a year, seed 3) simulated at constant K, every day
classified and the yearly High-day shares regressed on the year.  The
numbers are pinned so that a change to the trend path (the compiled loop,
the K predictor, the classifier, the regression) that moves them shows.
"""

import numpy as np
import pytest

from spillcast import synth
from spillcast.carrycap import KSeries
from spillcast.epimodel import ModelParams, default_init_state, simulate
from spillcast.onset import collect_onset_samples, fit_onset_pdf
from spillcast.trend import trend_report

# (slope per year, two-sided p-value) of the OLS trends
R_YEAR_TREND = (0.003050635313450972, 2.032914505628102e-15)
R_RELATIVE_TREND = (0.00166268714707233, 0.059728866407080417)
# High days of each archive year, 1994 first
HIGH_DAYS = [38, 43, 44, 47, 54, 51, 46, 49, 54, 50, 56, 56, 59, 60, 59,
             59, 59, 63, 64, 61, 68, 65, 66, 77, 74, 71, 74, 72, 73, 67]


@pytest.fixture(scope="module")
def warming_report():
    cfg = synth.default_config()
    world = synth.generate_world(cfg, n_years=4, seed=3)
    params = ModelParams.from_config(cfg)
    init = default_init_state(cfg)
    weather = world.weather.year_slices()
    cases = world.cases.year_slices()
    first = world.weather.dates[0].year
    train = {y: simulate(params, weather[y], cfg.k_default, init,
                         steps_per_day=cfg.steps_per_day)
             for y in range(first, first + 3)}
    samples, _ = collect_onset_samples(train, {y: cases[y] for y in train},
                                       transform=cfg.feature_transform)
    pdf = fit_onset_pdf(samples, bandwidth=(cfg.onset_bandwidth_m,
                                            cfg.onset_bandwidth_r0),
                        grid_size=cfg.onset_grid, levels=cfg.contour_levels,
                        transform=cfg.feature_transform)
    archive = synth.seasonal_weather(1994, 30, warming_per_year=0.05,
                                     temp_base=16.2, noise_sigma=0.35, seed=3)
    report = trend_report(
        archive, pdf, params,
        lambda wx: KSeries(wx.dates, np.full(len(wx), cfg.k_default)), cfg)
    return archive, report


def test_warming_raises_the_share_of_high_days(warming_report):
    """r_year rises by about 0.3 points a year (p 2e-15); r_relative by
    about 0.17 points a year, which at p 0.06 is not significant at 5%."""
    _, report = warming_report
    for trend, (slope, p_value) in ((report.trend_r_year, R_YEAR_TREND),
                                    (report.trend_r_relative,
                                     R_RELATIVE_TREND)):
        assert trend.slope == pytest.approx(slope, rel=1e-12, abs=0.0)
        assert trend.p_value == pytest.approx(p_value, rel=1e-12, abs=0.0)


def test_high_days_per_year(warming_report):
    archive, report = warming_report
    sizes = [len(wx) for _, wx in sorted(archive.year_slices().items())]
    assert report.years == tuple(range(1994, 2024))
    assert (report.r_year * np.array(sizes)).round().astype(int).tolist() \
        == HIGH_DAYS
    # each share is an exact count over the year's days
    assert report.r_year.tolist() == [h / n for h, n in zip(HIGH_DAYS, sizes)]

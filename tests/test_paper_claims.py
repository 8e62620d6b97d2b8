"""The paper's claims as recorded numbers.

Onset accuracy: the fixture of the seed-3 world, and of the seed-29 and
seed-17 worlds, through the CLI, ``fit-onset`` on its three training
years, then ``predict-onset`` for the target year 2022 in long mode and in
short mode at leads 14, 7 and 1, each forecast compared with the first
week of reported cases.  These pin the forecast path end to end.

The warming analysis: onset density fitted on the first three years of the
seed-3 synthetic world, then the benchmark's 30-year warming archive
(1994-2023, +0.05 degC a year, seed 3) simulated at constant K, every day
classified and the yearly High-day shares regressed on the year.  The
numbers are pinned so that a change to the trend path (the compiled loop,
the K predictor, the classifier, the regression) that moves them shows.
"""

from datetime import date
from pathlib import Path

import numpy as np
import pytest

from spillcast import synth
from spillcast.carrycap import KSeries
from spillcast.cli import main
from spillcast.epimodel import ModelParams, default_init_state, simulate
from spillcast.onset import collect_onset_samples, fit_onset_pdf
from spillcast.trend import trend_report

# the first 2022 week with a reported case, and each forecast's first High day
FIRST_CASE_WEEK = date(2022, 7, 19)
FIRST_HIGH_DAY = {"long": date(2022, 7, 2), "14": date(2022, 7, 16),
                  "7": date(2022, 7, 9), "1": date(2022, 7, 6)}
# the same at more seeds: the first case week, then each forecast's first
# High day and its level on that week
MORE_SEEDS = {
    29: (date(2022, 7, 19), {"long": (date(2022, 7, 10), "risky"),
                             "14": (date(2022, 7, 16), "high"),
                             "7": (date(2022, 7, 11), "high"),
                             "1": (date(2022, 7, 15), "high")}),
    17: (date(2022, 7, 12), {"long": (date(2022, 6, 26), "high"),
                             "14": (date(2022, 7, 2), "high"),
                             "7": (date(2022, 7, 2), "high"),
                             "1": (date(2022, 7, 1), "high")}),
}

# (slope per year, two-sided p-value) of the OLS trends
R_YEAR_TREND = (0.003050635313450972, 2.032914505628102e-15)
R_RELATIVE_TREND = (0.00166268714707233, 0.059728866407080417)
# High days of each archive year, 1994 first
HIGH_DAYS = [38, 43, 44, 47, 54, 51, 46, 49, 54, 50, 56, 56, 59, 60, 59,
             59, 59, 63, 64, 61, 68, 65, 66, 77, 74, 71, 74, 72, 73, 67]


def _rows(path):
    """The data rows of a CSV file, without its header and # lines."""
    lines = path.read_text().splitlines()[1:]
    return [line.split(",") for line in lines if not line.startswith("#")]


def _onset_forecasts(root, world):
    """The first case week of 2022 and each forecast's {date: level}."""
    fx = {k: str(v) for k, v in
          synth.write_fixture(root / "fixture", world).items()}
    data = ["--weather", fx["weather"], "--config", fx["config"]]
    assert main(["fit-onset", *data, "--cases", fx["cases"],
                 "--out", str(root / "model")]) == 0
    levels = {}
    for key in FIRST_HIGH_DAY:
        mode = (["--mode", "long"] if key == "long"
                else ["--mode", "short", "--lead", key])
        out = root / f"risk_{key}"
        assert main(["predict-onset", *data, "--model", str(root / "model"),
                     *mode, "--out", str(out)]) == 0
        levels[key] = {date.fromisoformat(row[0]): row[3]
                       for row in _rows(out / "risk.csv")}
    first_week = next(date.fromisoformat(week) for week, count
                      in _rows(Path(fx["cases"]))
                      if week >= "2022" and int(count) > 0)
    return first_week, levels


@pytest.fixture(scope="module")
def onset_forecasts(tmp_path_factory, world):
    return _onset_forecasts(tmp_path_factory.mktemp("onset_claims"), world)


def _first_high(level):
    return next(d for d in sorted(level) if level[d] == "high")


def test_first_case_week(onset_forecasts):
    assert onset_forecasts[0] == FIRST_CASE_WEEK


@pytest.mark.parametrize("forecast", sorted(FIRST_HIGH_DAY))
def test_onset_forecast_warns_before_the_first_case_week(onset_forecasts,
                                                          forecast):
    """The first High day leads the first case week by 17 days (long), 3
    (lead 14), 10 (lead 7) and 13 (lead 1), and that week starts High."""
    _, levels = onset_forecasts
    level = levels[forecast]
    assert _first_high(level) == FIRST_HIGH_DAY[forecast]
    assert level[FIRST_CASE_WEEK] == "high"


@pytest.mark.parametrize("seed", sorted(MORE_SEEDS))
def test_onset_accuracy_at_more_seeds(tmp_path, seed):
    """Every forecast's first High day comes before the first case week.
    At seed 29 the long-term forecast is only Risky on that week."""
    first_week, levels = _onset_forecasts(tmp_path,
                                          synth.generate_world(seed=seed))
    assert (first_week, {key: (_first_high(level), level[first_week])
                         for key, level in levels.items()}) \
        == MORE_SEEDS[seed]


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

"""Forecast orchestration shared by the onset and severity predictors.

Both prediction flavors follow the same recipe: forecast weather from the
history (one annual-cycle AR rollout for long-term, iterated lead-day
windows with actual data appended in between for short-term), splice the
forecast onto the target year's actual weather, simulate, and hand the
forecast-window days downstream.

Short-term windows do not re-simulate the target year from January 1:
each window resumes from a checkpoint, the state at the start of the
previous window, and simulates only the actual weather since then plus
its own forecast.  Every actual day is therefore simulated once and every
forecast day once, and the output is bit-identical to a restart from
January 1 (see ``forecast_points``).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from . import weathercast
from .config import Config
from .epimodel import ModelParams, default_init_state, simulate
from .errors import LengthMismatch
from .ingest import WeatherSeries
from .onset import OnsetPdf, RiskSeries, classify_days


@dataclass(frozen=True)
class ForecastPoint:
    """One forecast-window day of the simulated trajectory."""

    date: date
    m: float
    w: float
    r0: float


def weather_feature(weather: WeatherSeries, weights=(1.0, 0.0, 0.0)) -> np.ndarray:
    """Scalar W per day: a linear combination of temperature, humidity and
    precipitation (default: mean temperature)."""
    wt, wh, wp = weights
    return wt * weather.temp_mean + wh * weather.humidity + wp * weather.precip


def splice(actual: WeatherSeries, fcst: WeatherSeries) -> WeatherSeries:
    if len(actual) == 0:
        return fcst
    if len(fcst) == 0:
        return actual
    return WeatherSeries(
        actual.dates + fcst.dates,
        np.concatenate([actual.temp_mean, fcst.temp_mean]),
        np.concatenate([actual.humidity, fcst.humidity]),
        np.concatenate([actual.precip, fcst.precip]),
    )


def _k_by_index(ks, dates) -> np.ndarray:
    """The K of each of the contiguous ``dates``, taken from ``ks`` by the
    offset of ``dates[0]``: the series must hold every one of those days,
    in order, from there on.  Otherwise LengthMismatch names the first
    simulated day that is not where that offset puts it."""
    lo = (dates[0] - ks.dates[0]).days if len(dates) and len(ks) else 0
    if lo >= 0 and tuple(ks.dates[lo:lo + len(dates)]) == tuple(dates):
        return np.asarray(ks.values[lo:lo + len(dates)], dtype=float)
    first = next(d for i, d in enumerate(dates, start=lo)
                 if not 0 <= i < len(ks) or ks.dates[i] != d)
    raise LengthMismatch(f"K series does not cover the simulated day {first}")


def forecast_points(weather: WeatherSeries, mode: str, lead: int,
                    params: ModelParams, cfg: Config,
                    forecast_start: date | None = None,
                    k_series=None) -> list[ForecastPoint]:
    """Simulated (M, W, R0) on every forecast-window day.

    ``weather`` holds all available actual weather; everything before
    ``forecast_start`` (default: January 1 of the final year) is history.
    The target year starts from the default initial state on January 1 and
    is driven by actual weather up to each window and forecast weather
    inside it.

    A short-term window resumes from a checkpoint, the state at the start
    of the previous window, and simulates the actual weather of the
    previous window followed by its own forecast; the state where the
    actual weather ends is the next window's checkpoint.  This equals a
    restart from January 1 bit for bit: the compartments never read the
    cumulative-infection accumulator that restarts at each call, and K
    for a day depends only on that day's date or weather.

    ``k_series`` supplies the carrying capacity: a fixed KSeries, a
    callable mapping the simulated WeatherSeries to one day by day (e.g.
    the fitted precipitation-bin planes), or None for the configured
    constant.  A simulated day the series does not cover raises
    LengthMismatch, and a K <= 0 raises NonFiniteInput.
    """
    if forecast_start is None:
        forecast_start = date(weather.dates[-1].year, 1, 1)
    try:
        start_idx = weather.dates.index(forecast_start)
    except ValueError:
        raise ValueError(f"{forecast_start} not in the weather span") from None
    horizon = (weather.dates[-1] - forecast_start).days + 1

    year_start = date(forecast_start.year, 1, 1)
    year_start_idx = weather.dates.index(year_start) \
        if year_start in set(weather.dates) else start_idx

    def k_for(spliced):
        if k_series is None:
            return np.full(len(spliced), cfg.k_default)
        ks = k_series(spliced) if callable(k_series) else k_series
        return _k_by_index(ks, spliced.dates)

    w_weights = (cfg.w_temp, cfg.w_humidity, cfg.w_precip)

    def run(actual, fcst, init):
        """Simulate ``actual`` then ``fcst`` from ``init``; returns the
        trajectory and its forecast points."""
        spliced = splice(actual, fcst)
        traj = simulate(params, spliced, k_for(spliced), init,
                        steps_per_day=cfg.steps_per_day)
        w_series = weather_feature(spliced, w_weights)
        return traj, [
            ForecastPoint(traj.dates[i], float(traj.m[i]),
                          float(w_series[i]), float(traj.r0[i]))
            for i in range(len(actual), len(traj))
        ]

    init = default_init_state(cfg)
    if mode == "long_term":
        history = weather.slice(0, start_idx)
        fcst = weathercast.forecast_weather(
            history, "long_term", horizon,
            order_long=cfg.ar_order_long, ridge=cfg.ar_ridge)
        return run(weather.slice(year_start_idx, start_idx), fcst, init)[1]
    if mode != "short_term":
        raise ValueError(f"unknown mode {mode!r}")
    if lead < 1:
        return []
    points: list[ForecastPoint] = []
    checkpoint_idx, checkpoint = year_start_idx, init
    t = start_idx
    while t < len(weather.dates):
        history = weather.slice(0, t)
        step = min(lead, len(weather.dates) - t)
        fcst = weathercast.forecast_weather(
            history, "short_term", step,
            order_long=cfg.ar_order_long, ridge=cfg.ar_ridge)
        actual = weather.slice(checkpoint_idx, t)
        traj, window = run(actual, fcst, checkpoint)
        points.extend(window)
        checkpoint_idx, checkpoint = t, traj.state(len(actual))
        t += step
    return points


def predict_onset_risk(weather: WeatherSeries, mode: str, lead: int,
                       pdf: OnsetPdf, params: ModelParams, cfg: Config,
                       forecast_start: date | None = None,
                       k_series=None) -> RiskSeries:
    """Long- or short-term daily onset-risk forecast for the target year."""
    points = forecast_points(weather, mode, lead, params, cfg,
                             forecast_start=forecast_start, k_series=k_series)
    m = np.array([p.m for p in points])
    r0 = np.array([p.r0 for p in points])
    return RiskSeries(dates=tuple(p.date for p in points), m=m, r0=r0,
                      levels=classify_days(pdf, m, r0)[1])

"""Forecast orchestration shared by the onset and severity predictors.

Both prediction flavors follow the same recipe: cut the forecast days into
windows (one for long-term, one every lead days for short-term), forecast
each window's weather from the actual weather before it (an annual-cycle
AR rollout for long-term, an AR(lead) rollout for short-term), simulate,
and hand the forecast-window days downstream.

The target year's actual weather is simulated once, from January 1 to the
last window's start, and every window starts from that run's state on its
first day; the windows share one ``simulate_runs`` call.  Every actual
day is therefore simulated once and every forecast day once, and the
output is bit-identical to re-simulating each window from January 1 (see
``forecast_points``).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from . import weathercast
from .config import Config
from .epimodel import (
    ModelParams,
    Run,
    default_init_state,
    simulate,
    simulate_runs,
)
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
    The forecast days are cut into windows: one for ``long_term``, one
    every ``lead`` days for ``short_term``.  Each window's weather is
    forecast from the actual weather before it.  The target year starts
    from the default initial state on January 1, and is driven by actual
    weather up to each window and by forecast weather inside it.

    The actual weather from January 1 to the last window's start is
    simulated once, the lead-in, and each window starts from the lead-in's
    state on its first day.  All windows then go to one ``simulate_runs``
    call.  This equals a restart from January 1 for every window bit for
    bit: the compartments never read the cumulative-infection accumulator
    that restarts at each run, and K for a day depends only on that day's
    date or weather.

    ``k_series`` supplies the carrying capacity: a fixed KSeries, a
    callable mapping a simulated WeatherSeries to one day by day (e.g.
    the fitted precipitation-bin planes), or None for the configured
    constant.  A simulated day the series does not cover raises
    LengthMismatch, and a K <= 0 raises NonFiniteInput.

    Errors come in this order: every window's AR fit runs before any
    simulation; then the lead-in's K and simulation; then, as
    ``simulate_runs`` orders them, every window's K before any window is
    simulated, and the first failing window in date order.
    """
    if forecast_start is None:
        forecast_start = date(weather.dates[-1].year, 1, 1)
    try:
        start_idx = weather.dates.index(forecast_start)
    except ValueError:
        raise ValueError(f"{forecast_start} not in the weather span") from None
    if mode == "long_term":
        step = len(weather) - start_idx
    elif mode == "short_term":
        if lead < 1:
            return []
        step = lead
    else:
        raise ValueError(f"unknown mode {mode!r}")
    starts = range(start_idx, len(weather), step)
    forecasts = [weathercast.forecast_weather(
        weather.slice(0, t), mode, min(step, len(weather) - t),
        order_long=cfg.ar_order_long, ridge=cfg.ar_ridge) for t in starts]

    year_start = date(forecast_start.year, 1, 1)
    year_start_idx = weather.dates.index(year_start) \
        if year_start in set(weather.dates) else start_idx

    def k_for(wx):
        if k_series is None:
            return cfg.k_default
        ks = k_series(wx) if callable(k_series) else k_series
        return _k_by_index(ks, wx.dates)

    actual = weather.slice(year_start_idx, starts[-1])
    lead_in = simulate(params, actual, k_for(actual), default_init_state(cfg),
                       steps_per_day=cfg.steps_per_day)
    runs = [Run(fcst, k_for(fcst), lead_in.state(t - year_start_idx)
                if t < starts[-1] else lead_in.end_state)
            for t, fcst in zip(starts, forecasts)]
    w_weights = (cfg.w_temp, cfg.w_humidity, cfg.w_precip)
    points: list[ForecastPoint] = []
    for traj in simulate_runs(params, runs, cfg.steps_per_day):
        w_series = weather_feature(traj.weather, w_weights)
        points.extend(map(ForecastPoint, traj.dates, traj.m.tolist(),
                          w_series.tolist(), traj.r0.tolist()))
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

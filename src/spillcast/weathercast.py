"""Autoregressive forecasting of daily weather variables.

Long-term mode fits an AR(365) to capture the annual cycle and rolls it
out a year ahead; short-term mode fits an AR(lead) on recent data for
lead times of one to two weeks.  Forecasts are deterministic point
predictions (no innovation noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from .errors import HistoryTooShort, SingularDesign, TooShort
from .ingest import WeatherSeries

DEFAULT_RIDGE = 1e-8


@dataclass(frozen=True)
class ARModel:
    """y_t = intercept + sum_i coef[i] * y_{t-1-i} + noise."""

    order: int
    coef: np.ndarray
    intercept: float

    def __post_init__(self):
        if self.order < 1 or len(self.coef) != self.order:
            raise ValueError("order/coefficient mismatch")
        if not np.all(np.isfinite(self.coef)) or not np.isfinite(self.intercept):
            raise SingularDesign("non-finite AR coefficients")


def fit_ar(series, order: int, ridge: float = DEFAULT_RIDGE) -> ARModel:
    """Least-squares AR(p) fit on the lagged design matrix.

    A small ridge term on the normal equations keeps the high-order
    (p=365) fits well conditioned.  Requires len(series) >= 2p + 1.
    """
    y = np.asarray(series, dtype=float)
    n = len(y)
    if order < 1:
        raise TooShort("order must be >= 1")
    if n < 2 * order + 1:
        raise TooShort(f"need at least {2 * order + 1} points for AR({order}), got {n}")

    design = np.empty((n - order, order + 1))
    design[:, 0] = 1.0
    for i in range(1, order + 1):
        design[:, i] = y[order - i:n - i]
    target = y[order:]

    gram = design.T @ design
    gram[np.diag_indices_from(gram)] += ridge
    try:
        beta = np.linalg.solve(gram, design.T @ target)
    except np.linalg.LinAlgError:
        raise SingularDesign("normal equations are singular") from None
    if not np.all(np.isfinite(beta)):
        raise SingularDesign("non-finite AR solution")
    return ARModel(order=order, coef=beta[1:], intercept=float(beta[0]))


def forecast(model: ARModel, history, horizon: int) -> np.ndarray:
    """Iterated one-step prediction, feeding forecasts back as inputs.

    Step t adds ``intercept``, then ``coef[i] * y[t-1-i]`` for i = 0..p-1,
    left to right: ``np.add.accumulate`` sums sequentially, never
    pairwise, so each forecast is the same double a scalar loop gives."""
    hist = np.asarray(history, dtype=float)
    p = model.order
    if len(hist) < p:
        raise HistoryTooShort(f"history length {len(hist)} < AR order {p}")
    if horizon < 0:
        raise ValueError(f"negative horizon {horizon}")
    # the last p history values, then the forecasts as they are made
    buf = np.empty(p + horizon)
    buf[:p] = hist[len(hist) - p:]
    coef = np.asarray(model.coef, dtype=float)
    terms = np.empty(p + 1)
    terms[0] = model.intercept
    sums = np.empty(p + 1)
    for t in range(horizon):
        np.multiply(coef, buf[t:t + p][::-1], out=terms[1:])
        np.add.accumulate(terms, out=sums)
        buf[p + t] = sums[p]
    return buf[p:].copy()


def forecast_weather(history: WeatherSeries, mode: str, lead: int,
                     order_long: int = 365,
                     ridge: float = DEFAULT_RIDGE) -> WeatherSeries:
    """Forecast temperature, humidity and precipitation independently.

    mode "long_term" fits AR(365) (clamped to the data when the history
    is exactly two years) and forecasts ``lead`` days, conventionally a
    year; mode "short_term" fits AR(lead) on the recent history.
    Humidity is clamped to [0, 100] and precipitation to >= 0.
    """
    n = len(history)
    if mode == "long_term":
        if n < 730:
            raise HistoryTooShort("long-term mode needs at least 2 years of history")
        order = min(order_long, (n - 1) // 2)
    elif mode == "short_term":
        if lead < 1:
            return WeatherSeries((), np.array([]), np.array([]), np.array([]))
        if n < 2 * lead:
            raise HistoryTooShort(
                f"short-term mode needs at least {2 * lead} days, got {n}"
            )
        order = min(lead, (n - 1) // 2)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if lead < 1:
        return WeatherSeries((), np.array([]), np.array([]), np.array([]))

    columns = []
    for values in (history.temp_mean, history.humidity, history.precip):
        model = fit_ar(values, order, ridge)
        columns.append(forecast(model, values, lead))
    temp, hum, prec = columns

    start = history.dates[-1] + timedelta(days=1)
    dates = tuple(start + timedelta(days=i) for i in range(lead))
    return WeatherSeries(
        dates,
        temp,
        np.clip(hum, 0.0, 100.0),
        np.maximum(prec, 0.0),
    )

import numpy as np
import pytest
from datetime import date
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spillcast import errors
from spillcast.weathercast import ARModel, fit_ar, forecast, forecast_weather
from spillcast.errors import HistoryTooShort
from spillcast.ingest import WeatherSeries

from tests.conftest import constant_weather, sinusoid_weather


class TestFitAr:
    def test_constant_series_reproduced(self):
        series = np.full(50, 7.25)
        for order in (1, 3, 10):
            model = fit_ar(series, order)
            out = forecast(model, series, 5)
            assert np.allclose(out, 7.25, atol=1e-6)

    def test_exact_ar1_recovered(self):
        y = [8.0]
        for _ in range(199):
            y.append(0.5 * y[-1])
        model = fit_ar(np.array(y), 1)
        assert model.coef[0] == pytest.approx(0.5, abs=1e-9)
        assert model.intercept == pytest.approx(0.0, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(errors.TooShort):
            fit_ar(np.arange(20.0), 10)  # needs 2*10+1 = 21

    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(11)
        y = np.sin(np.arange(300) / 9.0) + 0.1 * rng.normal(size=300)
        order = 5
        model = fit_ar(y, order)
        resid = np.empty(len(y) - order)
        for t in range(order, len(y)):
            pred = model.intercept + np.dot(model.coef, y[t - 1::-1][:order])
            resid[t - order] = y[t] - pred
        for i in range(1, order + 1):
            lagged = y[order - i:len(y) - i]
            assert abs(np.dot(resid, lagged)) / len(resid) < 1e-6

    def test_seasonal_sinusoid_year_ahead(self):
        """Oracle: direct evaluation on a held-out synthetic year."""
        amp = 10.0
        t = np.arange(3650)
        rng = np.random.default_rng(5)
        y = 15.0 + amp * np.sin(2 * np.pi * t / 365.0) + 0.3 * rng.normal(size=3650)
        model = fit_ar(y[:3285], 365)
        pred = forecast(model, y[:3285], 365)
        rmse = float(np.sqrt(np.mean((pred - y[3285:]) ** 2)))
        assert rmse < 0.1 * amp


def reference_forecast(model: ARModel, history, horizon: int) -> np.ndarray:
    """``forecast`` as the scalar loop it was, verbatim: the oracle."""
    hist = np.asarray(history, dtype=float)
    if len(hist) < model.order:
        raise HistoryTooShort(
            f"history length {len(hist)} < AR order {model.order}"
        )
    window = list(hist[-model.order:])
    out = np.empty(horizon)
    for t in range(horizon):
        acc = model.intercept
        for i in range(model.order):
            acc += model.coef[i] * window[-1 - i]
        out[t] = acc
        window.append(acc)
        window.pop(0)
    return out


def canonical_bytes(values):
    """The bytes of ``values`` with every NaN the same NaN."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


class TestForecast:
    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(1, 400), horizon=st.integers(0, 60),
           extra=st.integers(0, 30), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([5e-324, 1e-310, 1e-200, 1e-3, 0.1, 1.0,
                                  1.0 / 3.0, 2.0, 1e10, 1e200, 1e308]),
           intercept=st.floats(-1e300, 1e300))
    @example(order=365, horizon=60, extra=365, seed=1, scale=1.0 / 365,
             intercept=0.25)
    @example(order=400, horizon=60, extra=0, seed=2, scale=1e308,
             intercept=-1e300)
    def test_equals_the_scalar_loop(self, order, horizon, extra, seed, scale,
                                    intercept):
        """Every forecast double, overflow and NaN included, is the
        scalar loop's: the same products added in the same order."""
        rng = np.random.default_rng(seed)
        model = ARModel(order=order, coef=rng.uniform(-1.0, 1.0, order) * scale,
                        intercept=intercept)
        history = 20.0 * rng.standard_normal(order + extra)
        with np.errstate(all="ignore"):
            ours = forecast(model, history, horizon)
            theirs = reference_forecast(model, history, horizon)
        assert canonical_bytes(ours) == canonical_bytes(theirs)

    def test_negative_horizon_rejected(self):
        model = ARModel(order=1, coef=np.ones(1), intercept=0.0)
        with pytest.raises(ValueError):
            forecast(model, [1.0], -1)

    def test_zero_horizon(self):
        model = fit_ar(np.arange(30.0), 2)
        assert len(forecast(model, np.arange(30.0), 0)) == 0

    def test_ar1_geometric_decay(self):
        model = ARModel(order=1, coef=np.array([0.5]), intercept=0.0)
        out = forecast(model, [8.0], 3)
        assert np.allclose(out, [4.0, 2.0, 1.0])

    def test_history_too_short(self):
        model = ARModel(order=3, coef=np.zeros(3), intercept=1.0)
        with pytest.raises(errors.HistoryTooShort):
            forecast(model, [1.0, 2.0], 4)

    def test_ar2_continues_affine_ramp(self):
        """AR(2) fits y_t = 2 y_{t-1} - y_{t-2} exactly on affine data."""
        y = 3.0 + 0.25 * np.arange(60)
        model = fit_ar(y, 2)
        out = forecast(model, y, 14)
        expected = 3.0 + 0.25 * (60 + np.arange(14))
        assert np.max(np.abs(out - expected)) < 1e-6

    def test_shift_equivariance(self):
        rng = np.random.default_rng(2)
        y = np.sin(np.arange(120) / 5.0) + 0.05 * rng.normal(size=120)
        shift = 13.7
        m0 = fit_ar(y, 4)
        m1 = fit_ar(y + shift, 4)
        f0 = forecast(m0, y, 10)
        f1 = forecast(m1, y + shift, 10)
        assert np.allclose(f1, f0 + shift, atol=1e-6)


class TestForecastWeather:
    def test_two_identical_years_long_mode(self):
        """A periodic sinusoid is inside the annual-AR model class, so the
        forecast year reproduces the repeated year."""
        n = 730
        start = date(2019, 1, 1)
        t = np.arange(n)
        temp = 17.0 + 9.0 * np.sin(2 * np.pi * t / 365.0)
        hum = np.clip(60.0 + 8.0 * np.sin(2 * np.pi * (t - 40) / 365.0), 0, 100)
        prec = np.maximum(2.0 + np.sin(2 * np.pi * (t + 90) / 365.0), 0.0)
        from datetime import timedelta
        dates = tuple(start + timedelta(days=int(i)) for i in t)
        history = WeatherSeries(dates, temp, hum, prec)
        fcst = forecast_weather(history, "long_term", 365)
        assert len(fcst) == 365
        expected = 17.0 + 9.0 * np.sin(2 * np.pi * (n + np.arange(365)) / 365.0)
        assert np.max(np.abs(fcst.temp_mean - expected)) < 1e-3

    def test_short_mode_constant_weather(self):
        history = constant_weather(60, temp=20.0, humidity=55.0, precip=1.5)
        fcst = forecast_weather(history, "short_term", 14)
        assert len(fcst) == 14
        assert np.allclose(fcst.temp_mean, 20.0, atol=1e-6)
        assert np.allclose(fcst.humidity, 55.0, atol=1e-6)
        assert fcst.dates[0] == history.dates[-1] + (history.dates[1] - history.dates[0])

    def test_negative_precip_clamped(self):
        n = 80
        t = np.arange(n)
        prec = np.maximum(0.05 * (40.0 - t), 0.0)  # ramp hitting zero
        from datetime import timedelta
        dates = tuple(date(2021, 1, 1) + timedelta(days=int(i)) for i in t)
        history = WeatherSeries(dates, np.full(n, 15.0), np.full(n, 50.0), prec)
        fcst = forecast_weather(history, "short_term", 14)
        assert np.all(fcst.precip >= 0.0)

    def test_humidity_clamped_into_range(self):
        n = 80
        t = np.arange(n)
        hum = np.clip(60.0 + 0.6 * t, 0, 100)  # saturating ramp
        from datetime import timedelta
        dates = tuple(date(2021, 1, 1) + timedelta(days=int(i)) for i in t)
        history = WeatherSeries(dates, np.full(n, 15.0), hum, np.full(n, 1.0))
        fcst = forecast_weather(history, "short_term", 14)
        assert np.all(fcst.humidity <= 100.0)
        assert np.all(fcst.humidity >= 0.0)

    def test_long_mode_needs_two_years(self):
        history = constant_weather(400)
        with pytest.raises(errors.HistoryTooShort):
            forecast_weather(history, "long_term", 365)

    def test_overflowing_rollout_rejected_naming_the_column(self):
        """Finite but huge precipitation makes the long-term AR rollout
        non-finite; that forecast weather is rejected naming its column (it
        used to reach the simulation and exit 3 with ``H_S = nan``).  No
        weather file reaches this: ``load_weather`` bounds precipitation."""
        history = sinusoid_weather(1096)
        precip = history.precip.copy()
        precip[999:] = 1e120
        history = WeatherSeries(history.dates, history.temp_mean,
                                history.humidity, precip)
        with np.errstate(all="ignore"), pytest.raises(
                errors.RangeViolation, match="^precip: non-finite value on "):
            forecast_weather(history, "long_term", 365)

    def test_short_mode_needs_twice_lead(self):
        history = constant_weather(20)
        with pytest.raises(errors.HistoryTooShort):
            forecast_weather(history, "short_term", 14)

    def test_zero_lead_empty(self):
        history = constant_weather(60)
        assert len(forecast_weather(history, "short_term", 0)) == 0

    def test_clamps_inactive_for_in_range_signals(self):
        # humidity comfortably inside (0, 100): the forecast must not
        # touch the clamp even with AR wiggle
        n = 200
        t = np.arange(n)
        from datetime import timedelta
        dates = tuple(date(2021, 1, 1) + timedelta(days=int(i)) for i in t)
        hum = 55.0 + 15.0 * np.sin(2 * np.pi * t / 50.0)
        prec = 3.0 + np.sin(2 * np.pi * t / 11.0)
        history = WeatherSeries(dates, np.full(n, 15.0), hum, prec)
        fcst = forecast_weather(history, "short_term", 14)
        assert np.all(fcst.humidity > 0.0) and np.all(fcst.humidity < 100.0)
        assert np.all(fcst.precip > 0.0)

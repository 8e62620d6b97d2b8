import numpy as np
import pytest
from datetime import date, timedelta

from spillcast import errors, pipeline, weathercast
from spillcast.carrycap import KSeries
from spillcast.epimodel import (
    ModelParams,
    default_init_state,
    simulate,
    simulate_runs,
)
from spillcast.ingest import WeatherSeries
from spillcast.onset import RiskLevel, collect_onset_samples, fit_onset_pdf
from spillcast.pipeline import (
    ForecastPoint,
    forecast_points,
    predict_onset_risk,
    weather_feature,
)
from spillcast.severity import (
    build_posteriors,
    build_prior,
    collect_severity_samples,
    estimate_severity,
    fit_rate_surface,
    predict_severity,
)

from tests.conftest import constant_weather


@pytest.fixture(scope="module")
def fitted(world, pipeline_trajectories):
    cfg = world.cfg
    cases = world.cases.year_slices()
    train = {y: pipeline_trajectories[y] for y in (2019, 2020, 2021)}
    samples, _ = collect_onset_samples(train, {y: cases[y] for y in train})
    pdf = fit_onset_pdf(samples, bandwidth=(cfg.onset_bandwidth_m,
                                            cfg.onset_bandwidth_r0))
    sev_samples = collect_severity_samples(train, {y: cases[y] for y in train})
    surface = fit_rate_surface(sev_samples, grid_size=cfg.severity_grid)
    return pdf, surface


class TestForecastPoints:
    def test_long_mode_covers_target_year(self, world, fitted):
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        points = forecast_points(world.weather, "long_term", 365, params, cfg)
        assert points[0].date == date(2022, 1, 1)
        assert points[-1].date == date(2022, 12, 31)
        assert len(points) == 365

    def test_midyear_forecast_start(self, world, fitted):
        """Actual weather up to July, forecast onward: only forecast days
        are returned and they continue the calendar."""
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        start = date(2022, 7, 1)
        points = forecast_points(world.weather, "long_term", 365, params,
                                 cfg, forecast_start=start)
        assert points[0].date == start
        assert points[-1].date == date(2022, 12, 31)
        assert len(points) == (date(2022, 12, 31) - start).days + 1

    def test_short_mode_window_boundaries(self, world, fitted):
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        start = date(2022, 12, 1)
        points = forecast_points(world.weather, "short_term", 14, params,
                                 cfg, forecast_start=start)
        # 31 December days: windows of 14, 14 and 3
        assert len(points) == 31
        assert points[0].date == start
        dates = [p.date for p in points]
        assert dates == sorted(dates)

    def test_unknown_mode(self, world, fitted):
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        with pytest.raises(ValueError):
            forecast_points(world.weather, "medium_term", 14, params, cfg)

    def test_start_outside_span(self, world, fitted):
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        with pytest.raises(ValueError):
            forecast_points(world.weather, "long_term", 365, params, cfg,
                            forecast_start=date(2030, 1, 1))


def splice(actual, fcst):
    """``actual`` followed by ``fcst`` as one WeatherSeries."""
    return WeatherSeries(
        actual.dates + fcst.dates,
        np.concatenate([actual.temp_mean, fcst.temp_mean]),
        np.concatenate([actual.humidity, fcst.humidity]),
        np.concatenate([actual.precip, fcst.precip]),
    )


def restart_short_term(weather, lead, params, cfg, forecast_start=None,
                       k_series=None, mode="short_term"):
    """Brute-force oracle: every window (one every ``lead`` days, or the
    single long-term one) re-simulates the target year from the default
    initial state on January 1, its actual weather spliced onto the
    window's forecast."""
    if forecast_start is None:
        forecast_start = date(weather.dates[-1].year, 1, 1)
    start = weather.dates.index(forecast_start)
    year_start = weather.dates.index(date(forecast_start.year, 1, 1))
    if mode == "long_term":
        lead = len(weather) - start
    init = default_init_state(cfg)
    points = []
    t = start
    while t < len(weather):
        step = min(lead, len(weather) - t)
        fcst = weathercast.forecast_weather(
            weather.slice(0, t), mode, step,
            order_long=cfg.ar_order_long, ridge=cfg.ar_ridge)
        spliced = splice(weather.slice(year_start, t), fcst)
        if k_series is None:
            k = np.full(len(spliced), cfg.k_default)
        else:
            ks = k_series(spliced) if callable(k_series) else k_series
            lookup = dict(zip(ks.dates, ks.values))
            k = np.array([lookup[d] for d in spliced.dates])
        traj = simulate(params, spliced, k, init,
                        steps_per_day=cfg.steps_per_day)
        w = weather_feature(spliced, (cfg.w_temp, cfg.w_humidity,
                                      cfg.w_precip))
        points.extend(
            ForecastPoint(traj.dates[i], float(traj.m[i]), float(w[i]),
                          float(traj.r0[i]))
            for i in range(t - year_start, len(spliced))
        )
        t += step
    return points


def _fixed_k(weather):
    """A KSeries that covers the whole target year with a varying K."""
    year = weather.dates[-1].year
    dates = tuple(date(year, 1, 1) + timedelta(days=i)
                  for i in range((date(year + 1, 1, 1) - date(year, 1, 1)).days))
    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=float)
    return KSeries(dates, 4000.0 + 1500.0 * np.sin(doy / 30.0))


def _weather_k(wx):
    """Per-day K from that day's weather, like the precipitation planes."""
    return KSeries(wx.dates,
                   np.maximum(150.0 * wx.temp_mean + 20.0 * wx.humidity, 0.0))


class TestShortTermCheckpoint:
    """Every window starts from the state of one lead-in run over the
    actual weather instead of restarting on January 1; the points must
    equal the restart oracle exactly."""

    # (forecast_start, last weather day): spans kept short so the
    # restart oracle stays cheap at lead 1
    SPANS = {
        "default": (None, date(2022, 2, 28)),
        "midyear": (date(2022, 7, 1), date(2022, 7, 15)),
    }
    K_KINDS = ["none", "fixed", "callable"]

    @staticmethod
    def _k(k_kind, weather):
        return {"none": None, "fixed": _fixed_k(weather),
                "callable": _weather_k}[k_kind]

    @pytest.mark.parametrize("k_kind", K_KINDS)
    @pytest.mark.parametrize("span", sorted(SPANS))
    @pytest.mark.parametrize("lead", [1, 7, 14])
    def test_equals_restart_from_january(self, world, lead, span, k_kind):
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        start, last = self.SPANS[span]
        weather = world.weather.slice(0, world.weather.dates.index(last) + 1)
        k_series = self._k(k_kind, weather)
        got = forecast_points(weather, "short_term", lead, params, cfg,
                              forecast_start=start, k_series=k_series)
        want = restart_short_term(weather, lead, params, cfg,
                                  forecast_start=start, k_series=k_series)
        first = start or date(2022, 1, 1)
        assert len(got) == len(want) == (last - first).days + 1
        assert got == want

    @pytest.mark.parametrize("k_kind", K_KINDS)
    @pytest.mark.parametrize("start", [None, date(2022, 7, 1)])
    def test_long_term_equals_restart_from_january(self, world, start,
                                                   k_kind):
        """The long-term window: a 0-day lead-in from January 1, or the
        actual weather up to July 1 and the forecast from there."""
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        k_series = self._k(k_kind, world.weather)
        got = forecast_points(world.weather, "long_term", 365, params, cfg,
                              forecast_start=start, k_series=k_series)
        want = restart_short_term(world.weather, 365, params, cfg,
                                  forecast_start=start, k_series=k_series,
                                  mode="long_term")
        first = start or date(2022, 1, 1)
        assert len(got) == len(want) == (date(2022, 12, 31) - first).days + 1
        assert got == want

    def test_one_lead_in_and_one_call_for_all_windows(self, world,
                                                       monkeypatch):
        """One lead-in ``simulate`` over the actual weather to the last
        window's start and one ``simulate_runs`` call for all windows:
        every actual day is simulated once and every forecast day once."""
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        calls = []

        def counting_simulate(params, weather, *args, **kwargs):
            calls.append(("simulate", [len(weather)]))
            return simulate(params, weather, *args, **kwargs)

        def counting_runs(params, runs, *args, **kwargs):
            calls.append(("simulate_runs", [len(r.weather) for r in runs]))
            return simulate_runs(params, runs, *args, **kwargs)

        monkeypatch.setattr(pipeline, "simulate", counting_simulate)
        monkeypatch.setattr(pipeline, "simulate_runs", counting_runs)
        points = forecast_points(world.weather, "short_term", 14, params, cfg)
        assert len(points) == 365
        assert calls == [("simulate", [364]),
                         ("simulate_runs", [14] * 26 + [1])]


class TestKAlignment:
    """forecast_points takes K by index from the given series: a simulated
    day it does not cover, or a K <= 0, is an error, not a silent fill."""

    @staticmethod
    def _points(world, k_series, mode="short_term"):
        cfg = world.cfg
        weather = world.weather.slice(
            0, world.weather.dates.index(date(2022, 1, 20)) + 1)
        return forecast_points(weather, mode, 7, ModelParams.from_config(cfg),
                               cfg, k_series=k_series)

    @pytest.mark.parametrize("missing", [date(2022, 1, 1), date(2022, 1, 9),
                                         date(2022, 1, 20)])
    @pytest.mark.parametrize("as_callable", [False, True])
    def test_uncovered_day_raises_naming_it(self, world, missing,
                                            as_callable):
        full = _fixed_k(world.weather)
        keep = [i for i, d in enumerate(full.dates) if d != missing]
        ks = KSeries(tuple(full.dates[i] for i in keep), full.values[keep])
        arg = (lambda wx: ks) if as_callable else ks
        with pytest.raises(errors.LengthMismatch, match=str(missing)):
            self._points(world, arg)

    def test_series_ending_before_the_year_raises(self, world):
        cfg = world.cfg
        wx = world.weather
        end = wx.dates.index(date(2021, 12, 31)) + 1
        ks = KSeries(wx.dates[:end], np.full(end, cfg.k_default))
        with pytest.raises(errors.LengthMismatch, match="2022-01-01"):
            self._points(world, ks, mode="long_term")

    def test_k_zero_raises_non_finite_input(self, world):
        ks = _fixed_k(world.weather)
        values = ks.values.copy()
        values[5] = 0.0
        with pytest.raises(errors.NonFiniteInput):
            self._points(world, KSeries(ks.dates, values))

    def test_longer_series_is_sliced_to_the_span(self, world):
        """A K series reaching before and after the simulated span gives
        the points of the series cut to the target year."""
        ks = _fixed_k(world.weather)
        wx = world.weather
        lo = wx.dates.index(date(2021, 6, 1))
        extra = KSeries(wx.dates[lo:] + (date(2023, 1, 1),),
                        np.concatenate([np.full(len(wx) - lo - len(ks), 7.0e3),
                                        ks.values, [9.0e3]]))
        assert self._points(world, extra) == self._points(world, ks)


class TestPredictOnsetRisk:
    def test_midyear_short_risk(self, world, fitted):
        pdf, _ = fitted
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        risk = predict_onset_risk(world.weather, "short_term", 14, pdf,
                                  params, cfg,
                                  forecast_start=date(2022, 6, 1))
        assert len(risk) == (date(2022, 12, 31) - date(2022, 6, 1)).days + 1
        assert sum(risk.counts().values()) == len(risk)

    def test_history_too_short_propagates(self, world, fitted):
        pdf, _ = fitted
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        short_history = constant_weather(400, start=date(2021, 12, 1))
        with pytest.raises(errors.HistoryTooShort):
            predict_onset_risk(short_history, "long_term", 365, pdf,
                               params, cfg)


class TestSeverityIntegration:
    def test_midyear_predict_severity(self, world, fitted):
        _, surface = fitted
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        cases = world.cases.year_slices()[2022]
        out = predict_severity(world.weather, cases, "long_term", 365,
                               surface, params, cfg,
                               forecast_start=date(2022, 8, 1))
        assert out.dates[0] == date(2022, 8, 1)
        assert len(out) == (date(2022, 12, 31) - date(2022, 8, 1)).days + 1
        assert np.all(out.predicted >= 0)
        assert np.all(out.predicted <= cfg.x_max)

    def test_onset_gate_zeroes_off_season(self, world, fitted):
        """Winter days classify Green and must report zero severity."""
        pdf, surface = fitted
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        init = default_init_state(cfg)
        wx = world.weather.year_slices()[2022]
        traj = simulate(params, wx, np.full(len(wx), world.k_star), init,
                        steps_per_day=cfg.steps_per_day)
        prior = build_prior("uniform", None, surface.grid)
        posteriors = build_posteriors(prior, surface, cfg.x_max)
        gated = estimate_severity(traj, posteriors, onset_pdf=pdf)
        ungated = estimate_severity(traj, posteriors)
        january = slice(0, 31)
        assert np.all(gated.predicted[january] == 0)
        assert np.all(ungated.predicted[january] >= 1)
        # gating never raises a day's prediction
        assert np.all(gated.predicted <= ungated.predicted)

    def test_nw_surface_never_below_min_count(self, fitted):
        """Supported cells are convex combinations of counts >= 1, so no
        candidate is ever annihilated on a prior that overlaps support."""
        _, surface = fitted
        supported = surface.lam[surface.lam > 0.0]
        assert np.all(supported >= 1.0 - 1e-9)
        prior = build_prior("uniform", None, surface.grid)
        posteriors = build_posteriors(prior, surface, 30)
        assert [p.x for p in posteriors] == list(range(1, 31))

    def test_prior_on_zero_support_raises(self, fitted):
        """A band prior entirely on zero-rate cells annihilates every
        candidate count."""
        _, surface = fitted
        zero_cells = np.argwhere(surface.lam == 0.0)
        assert len(zero_cells)
        i, j = zero_cells[0]
        curve = [(float(surface.grid.m_centers[i]),
                  float(surface.grid.w_centers[j]))]
        prior = build_prior("band", curve, surface.grid,
                            halfwidth=1e-9)
        with pytest.raises(errors.ZeroEvidence):
            build_posteriors(prior, surface, 30)

    def test_underflow_drops_far_candidates_only(self):
        """Rates at the floating-point underflow scale annihilate distant
        candidates while small ones survive and are kept."""
        from tests.test_severity import square_grid, surface_with
        grid = square_grid(16)
        surface = surface_with(grid, np.full(grid.shape, 1e-11))
        prior = build_prior("uniform", None, grid)
        posteriors = build_posteriors(prior, surface, 30)
        xs = [p.x for p in posteriors]
        assert 1 in xs
        assert 30 not in xs  # pmf(30, 1e-11) underflows to exactly zero

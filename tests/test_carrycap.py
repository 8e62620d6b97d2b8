import numpy as np
import pytest
from datetime import date, timedelta
from hypothesis import given, settings
from hypothesis import strategies as st

from spillcast import errors
from spillcast.carrycap import (
    KSeries,
    calibrate_K,
    fit_plane,
    load_k,
    predict_K_mean,
    predict_K_plane,
    quantile_edges,
    save_k,
)
from spillcast.epimodel import (
    ModelParams,
    default_init_state,
    seeded_year_trajectory,
)
from spillcast.ingest import CaseSeries, WeatherSeries
from spillcast.synth import default_config, seasonal_weather

from tests.conftest import constant_weather


def k_series_for_years(years, values_per_year):
    dates, values = [], []
    for year, v in zip(years, values_per_year):
        d = date(year, 1, 1)
        while d.year == year:
            dates.append(d)
            values.append(v)
            d += timedelta(days=1)
    return KSeries(tuple(dates), np.array(values, dtype=float))


@pytest.fixture(scope="module")
def generated():
    """One synthetic year of cases generated with a known K."""
    cfg = default_config(k_star=5000.0)
    params = ModelParams.from_config(cfg)
    wx = seasonal_weather(2021, 1)
    traj = seeded_year_trajectory(params, wx, 5000.0, default_init_state(cfg),
                                  steps_per_day=cfg.steps_per_day)
    week_starts, counts = [], []
    wk = wx.dates[0]
    while wk + timedelta(days=6) <= wx.dates[-1]:
        week_starts.append(wk)
        days = [wk + timedelta(days=i) for i in range(7)]
        by_date = dict(zip(traj.dates, traj.new_infections))
        counts.append(int(round(sum(by_date.get(d, 0.0) for d in days))))
        wk += timedelta(days=7)
    cases = CaseSeries(tuple(week_starts), np.array(counts))
    return cfg, params, wx, cases


class TestCalibrate:
    def test_recovers_generating_k(self, generated):
        cfg, params, wx, cases = generated
        init = default_init_state(cfg)
        grid = range(1000, 10001, 1000)
        calibrated = calibrate_K(wx, cases, params, grid, init)
        assert set(np.unique(calibrated.values)) == {5000.0}
        assert len(calibrated) == len(wx)

    def test_singleton_grid(self, generated):
        cfg, params, wx, cases = generated
        init = default_init_state(cfg)
        calibrated = calibrate_K(wx, cases, params, [4242.0], init)
        assert np.all(calibrated.values == 4242.0)

    def test_all_zero_cases_tie_breaks_small(self, generated):
        # disease-free init simulates zero cases for every K, so an all-zero
        # observation ties every grid level; the smaller K must win
        cfg, params, wx, _ = generated
        init = default_init_state(cfg)
        zero = CaseSeries(
            tuple(date(2021, 1, 4) + timedelta(days=7 * i) for i in range(50)),
            np.zeros(50, dtype=int),
        )
        calibrated = calibrate_K(wx, zero, params, [2000.0, 5000.0], init)
        assert np.all(calibrated.values == 2000.0)

    def test_scale_invariance_of_argmin(self, generated):
        """Scaling observed and simulated cases together (via rho) leaves
        the argmin unchanged."""
        cfg, params, wx, cases = generated
        init = default_init_state(cfg)
        grid = [3000.0, 5000.0, 8000.0]
        base = calibrate_K(wx, cases, params, grid, init)
        import dataclasses
        half_params = dataclasses.replace(params, rho=0.5)
        half_cases = CaseSeries(
            cases.week_starts,
            np.array([int(round(0.5 * c)) for c in cases.counts]),
        )
        half = calibrate_K(wx, half_cases, half_params, grid, init)
        assert np.array_equal(base.values, half.values)

    def test_insufficient_data(self, generated):
        cfg, params, _, cases = generated
        init = default_init_state(cfg)
        partial = constant_weather(100, start=date(2021, 3, 1))
        with pytest.raises(errors.InsufficientData):
            calibrate_K(partial, cases, params, [1000.0], init)
        full = constant_weather(365, start=date(2021, 1, 1))
        with pytest.raises(errors.InsufficientData):
            calibrate_K(full, cases, params, [], init)

    def test_unobserved_year_takes_the_nearest_observed_level(self,
                                                              generated):
        # a complete year with no case week used to score 0 at every level
        # and so take the grid's smallest K (1000 here)
        cfg, params, wx, cases = generated
        init = default_init_state(cfg)
        before, after = seasonal_weather(2020, 1), seasonal_weather(2022, 1)
        three = WeatherSeries(
            before.dates + wx.dates + after.dates,
            *(np.concatenate([getattr(s, name) for s in (before, wx, after)])
              for name in ("temp_mean", "humidity", "precip")))
        calibrated = calibrate_K(three, cases, params,
                                 range(1000, 10001, 1000), init)
        assert len(calibrated) == len(three)
        assert set(np.unique(calibrated.values)) == {5000.0}

    def test_no_observed_complete_year_raises(self, generated):
        cfg, params, _, cases = generated
        other = seasonal_weather(2023, 2)
        with pytest.raises(errors.InsufficientData, match="case"):
            calibrate_K(other, cases, params, [1000.0, 5000.0],
                        default_init_state(cfg))


class TestPredictMean:
    def test_two_identical_years(self):
        hist = k_series_for_years([2019, 2020], [3.0, 3.0])
        out = predict_K_mean(hist)
        assert out.dates[0] == date(2021, 1, 1)
        assert np.all(out.values == 3.0)

    def test_mean_of_constant_years(self):
        hist = k_series_for_years([2019, 2020], [2.0, 4.0])
        out = predict_K_mean(hist)
        assert np.all(out.values == 3.0)

    def test_single_year_unchanged(self):
        hist = k_series_for_years([2019], [7.0])
        out = predict_K_mean(hist, target_year=2019)
        assert np.array_equal(out.values, hist.values)

    def test_pointwise_within_min_max(self):
        rng = np.random.default_rng(8)
        years = [2018, 2019, 2021]  # 2020 (leap) omitted on purpose
        per_year = []
        dates, values = [], []
        for year in years:
            d = date(year, 1, 1)
            v = rng.uniform(1000, 9000, 366)
            i = 0
            while d.year == year:
                dates.append(d)
                values.append(v[i])
                d += timedelta(days=1)
                i += 1
        hist = KSeries(tuple(dates), np.array(values))
        out = predict_K_mean(hist, target_year=2020)
        assert len(out) == 366  # leap target year
        assert np.all(out.values >= hist.values.min() - 1e-9)
        assert np.all(out.values <= hist.values.max() + 1e-9)

    def test_empty_history(self):
        with pytest.raises(errors.EmptyHistory):
            predict_K_mean(KSeries((), np.array([])))


class TestFitPlane:
    def test_exact_plane_recovered(self):
        rng = np.random.default_rng(4)
        t = rng.uniform(5, 35, 40)
        h = rng.uniform(20, 90, 40)
        p = rng.uniform(0.0, 4.0, 40)
        k = 2.0 * t + 3.0 * h + 1.0
        samples = np.column_stack([t, h, p, k])
        model = fit_plane(samples, [-0.01, 5.0])
        assert model.coeffs[0] == pytest.approx([2.0, 3.0, 1.0], abs=1e-9)

    def test_collinear_samples_degenerate(self):
        samples = [(20.0, 50.0, 1.0, 100.0)] * 5  # identical (T, H)
        with pytest.raises(errors.DegenerateBin):
            fit_plane(samples, [0.0, 2.0])

    def test_small_bins_marked_unusable(self):
        samples = [(20.0, 50.0, 0.5, 10.0), (25.0, 60.0, 0.6, 12.0)]
        model = fit_plane(samples, [0.0, 1.0, 2.0])
        assert not model.usable[0]
        assert not model.usable[1]
        assert model.counts[0] == 2

    def test_noisy_plane_close_to_truth(self):
        """Oracle: independent normal-equations solve."""
        rng = np.random.default_rng(99)
        n = 100
        t = rng.uniform(5, 35, n)
        h = rng.uniform(20, 90, n)
        p = rng.uniform(0.0, 1.0, n)
        noise = rng.normal(0.0, 0.1, n)
        k = 1.5 * t - 0.8 * h + 12.0 + noise
        model = fit_plane(np.column_stack([t, h, p, k]), [-0.01, 1.01])
        design = np.column_stack([t, h, np.ones(n)])
        oracle = np.linalg.solve(design.T @ design, design.T @ k)
        assert model.coeffs[0] == pytest.approx(oracle, abs=1e-9)
        assert np.all(np.abs(model.coeffs[0] - [1.5, -0.8, 12.0]) < 0.05)

    def test_least_squares_dominates_other_planes(self):
        """The fitted plane's RSS never exceeds a perturbed plane's RSS."""
        rng = np.random.default_rng(123)
        for _ in range(5):
            n = 50
            t = rng.uniform(0, 30, n)
            h = rng.uniform(10, 90, n)
            p = rng.uniform(0, 1, n)
            k = rng.uniform(0, 5000, n)
            model = fit_plane(np.column_stack([t, h, p, k]), [-0.01, 1.01])
            a, b, c = model.coeffs[0]
            rss_fit = np.sum((k - (a * t + b * h + c)) ** 2)
            for _ in range(20):
                da, db, dc = rng.normal(0, 0.5, 3)
                rss_other = np.sum((k - ((a + da) * t + (b + db) * h + c + dc)) ** 2)
                assert rss_fit <= rss_other + 1e-9


class TestPredictPlane:
    def make_model(self):
        samples = [
            (1.0, 1.0, 0.5, 6.0), (2.0, 1.0, 0.5, 8.0), (1.0, 2.0, 0.5, 9.0),
            (2.0, 3.0, 0.6, 14.0),
        ]
        return fit_plane(samples, [0.0, 1.0])  # plane K = 2T + 3H + 1

    def test_plane_evaluation(self):
        model = self.make_model()
        wx = constant_weather(3, temp=1.0, humidity=1.0, precip=0.5)
        out = predict_K_plane(model, wx)
        assert np.allclose(out.values, 6.0, atol=1e-9)
        assert out.flagged == ()

    def test_negative_prediction_clamped_and_flagged(self):
        samples = [(1.0, 1.0, 0.5, 1.0), (2.0, 1.0, 0.5, 0.5),
                   (1.0, 2.0, 0.5, 0.2), (3.0, 3.0, 0.5, 0.1)]
        model = fit_plane(samples, [0.0, 1.0])
        wx = constant_weather(2, temp=30.0, humidity=90.0, precip=0.5)
        out = predict_K_plane(model, wx)
        assert np.all(out.values == 0.0)
        assert len(out.flagged) == 2

    def test_out_of_bin_uses_nearest_usable(self):
        model = self.make_model()
        wx = constant_weather(1, temp=1.0, humidity=1.0, precip=99.0)
        out = predict_K_plane(model, wx)
        assert out.values[0] == pytest.approx(6.0)
        assert len(out.flagged) == 1

    def test_fallback_and_clamp_flag_the_day_once(self):
        model = self.make_model()
        wx = constant_weather(1, temp=-10.0, humidity=0.0, precip=99.0)
        out = predict_K_plane(model, wx)
        assert out.values[0] == 0.0
        assert out.flagged == (date(2021, 1, 1),)

    def test_matches_per_day_reference(self):
        rng = np.random.default_rng(5)
        n = 400
        t = rng.uniform(0.0, 30.0, n)
        h = rng.uniform(30.0, 90.0, n)
        p = rng.uniform(0.0, 5.0, n)
        k = 2.0 * t - 3.0 * h + 150.0 + rng.normal(0.0, 5.0, n)
        # bin [4, 4.5) gets two samples and is unusable
        keep = (p < 4.0) | (p >= 4.5)
        p[np.nonzero(~keep)[0][2:]] = 4.7
        model = fit_plane(zip(t, h, p, k), [0.0, 1.0, 2.5, 4.0, 4.5, 5.0])
        assert not model.usable.all()
        m = 300
        dates = tuple(date(2022, 1, 1) + timedelta(days=i) for i in range(m))
        wx = WeatherSeries(dates, rng.uniform(-5.0, 35.0, m),
                           rng.uniform(0.0, 100.0, m), rng.uniform(0.0, 7.0, m))
        out = predict_K_plane(model, wx)

        usable = np.nonzero(model.usable)[0]
        centers = (model.edges[:-1] + model.edges[1:]) / 2.0
        flagged = []
        for i in range(m):
            p_i = float(wx.precip[i])
            b = int(np.clip(np.searchsorted(model.edges, p_i, side="right") - 1,
                            0, len(centers) - 1))
            fallback = p_i < model.edges[0] or p_i > model.edges[-1] \
                or not model.usable[b]
            if fallback:
                b = int(usable[np.argmin(np.abs(centers[usable] - p_i))])
            a, bb, c = model.coeffs[b]
            value = a * wx.temp_mean[i] + bb * wx.humidity[i] + c
            assert out.values[i] == (0.0 if value < 0.0 else value)
            if fallback or value < 0.0:
                flagged.append(dates[i])
        assert out.flagged == tuple(flagged)
        assert 0 < len(flagged) < m

    def test_no_usable_bin(self):
        samples = [(1.0, 1.0, 0.5, 6.0), (2.0, 1.0, 0.5, 8.0)]
        model = fit_plane(samples, [0.0, 1.0])  # only 2 samples: unusable
        wx = constant_weather(1)
        with pytest.raises(errors.NoUsableBin):
            predict_K_plane(model, wx)


def test_quantile_edges_cover_data():
    rng = np.random.default_rng(17)
    p = rng.exponential(1.0, 500)
    edges = quantile_edges(p, 4)
    assert len(edges) == 5
    assert edges[0] < p.min() and edges[-1] > p.max()


def test_k_csv_round_trip(tmp_path):
    ks = KSeries(
        tuple(date(2021, 1, 1) + timedelta(days=i) for i in range(5)),
        np.array([1.0, 2.5, 3.125, 0.0, 9999.75]),
    )
    path = tmp_path / "k.csv"
    save_k(ks, path)
    again = load_k(path)
    assert again.dates == ks.dates
    assert np.array_equal(again.values, ks.values)


@pytest.mark.parametrize("token", ["nan", "-nan", "inf", "-inf", "Infinity"])
def test_load_k_rejects_non_finite(tmp_path, token):
    path = tmp_path / "k.csv"
    path.write_text(f"date,K\n2021-01-01,5000.0\n2021-01-02,{token}\n")
    with pytest.raises(errors.ParseError, match="line 3"):
        load_k(path)


@pytest.mark.parametrize("token", ["-1", "-0.5", "-1e300"])
def test_load_k_rejects_negative_with_line(tmp_path, token):
    path = tmp_path / "k.csv"
    path.write_text(f"date,K\n2021-01-01,5000.0\n2021-01-02,{token}\n")
    with pytest.raises(errors.ParseError, match="line 3"):
        load_k(path)


K_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e309",
                     "-1e400", "0", "0.0", "-1", "5000"]),
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(K_TOKENS, min_size=1, max_size=8))
def test_load_k_rejects_or_returns_finite(tmp_path_factory, values):
    """Any generated K file either raises InputError or loads as finite,
    non-negative values."""
    lines = ["date,K"] + [
        f"{(date(2021, 1, 1) + timedelta(days=i)).isoformat()},{v}"
        for i, v in enumerate(values)
    ]
    path = tmp_path_factory.mktemp("prop") / "k.csv"
    path.write_text("\n".join(lines) + "\n")
    try:
        series = load_k(path)
    except errors.InputError:
        return
    assert np.all(np.isfinite(series.values))
    assert np.all(series.values >= 0)


def test_calibrate_k_computes_rates_once_per_year(world, monkeypatch):
    """The K levels of a year share one rate array, and the years are
    evaluated together: 16 curve evaluations over the days of every
    complete year once, not 16 per year x level x pulse half."""
    from spillcast import epimodel
    from spillcast.thermal import eval_thermal_array

    calls = []

    def counting(curve, temps):
        calls.append(len(temps))
        return eval_thermal_array(curve, temps)

    monkeypatch.setattr(epimodel, "eval_thermal_array", counting)
    cfg = world.cfg
    history = world.weather.slice(0, world.weather.dates.index(date(2022, 1, 1)))
    calibrate_K(history, world.cases, ModelParams.from_config(cfg),
                [2500.0, 5000.0, 7500.0], default_init_state(cfg),
                steps_per_day=cfg.steps_per_day)
    assert calls == [len(history)] * len(epimodel._RATE_KEYS)

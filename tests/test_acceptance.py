"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them)."""

import json
import math
import time

import numpy as np
import pytest
from datetime import date, timedelta

from spillcast.cli import main
from spillcast.config import Config
from spillcast.epimodel import (
    COMPARTMENTS,
    ModelParams,
    default_init_state,
    simulate,
)
from spillcast.onset import (
    OnsetSample,
    RiskLevel,
    collect_onset_samples,
    fit_onset_pdf,
    hdr_thresholds,
)
from spillcast.pipeline import predict_onset_risk, weather_feature
from spillcast.r0 import R0Inputs, exposed_survival, r0, r0_bird, r0_mosquito
from spillcast.severity import (
    PriorGrid,
    build_posteriors,
    build_prior,
    collect_severity_samples,
    estimate_severity,
    fit_rate_surface,
    mpp_predict,
    poisson_pmf,
)
from spillcast.evaluate import (
    PredictiveDist,
    fit_negbin,
    log_score,
    negbin_loglik,
    score_run,
)
from spillcast.ingest import CaseSeries
from spillcast.synth import seasonal_weather, write_fixture
from spillcast.trend import ols_trend, trend_report

from tests.conftest import sinusoid_weather
from tests.test_severity import square_grid, surface_with


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.1f}s"
            )
        return False


def test_criterion_1_r0_correctness():
    with Budget("1 R0 correctness", 10.0):
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            v = R0Inputs(
                beta_b_to_m=rng.uniform(0.001, 2.0),
                delta_b=rng.uniform(0.01, 2.0),
                mu_b=rng.uniform(0.001, 1.0),
                lambda_b=rng.uniform(0.0, 1.0),
                mu_wnd_b=rng.uniform(0.0, 1.0),
                beta_m_to_b=rng.uniform(0.001, 2.0),
                pdr=rng.uniform(0.01, 2.0),
                mu_m=rng.uniform(0.01, 1.0),
                m_s=rng.uniform(0.0, 1e5),
                b_s=rng.uniform(0.0, 1e4),
            )
            bird = (v.beta_b_to_m * v.m_s * v.delta_b
                    / ((v.delta_b + v.mu_b)
                       * (v.lambda_b + v.mu_wnd_b + v.mu_b)))
            mosquito = (v.beta_m_to_b * v.b_s * v.pdr
                        / (v.mu_m * (v.pdr + v.mu_m)))
            assert abs(r0_bird(v) - bird) <= 1e-12 * abs(bird)
            assert abs(r0_mosquito(v) - mosquito) <= 1e-12 * abs(mosquito)
            expected = math.sqrt(bird * mosquito)
            assert abs(r0(v) - expected) <= 1e-12 * abs(expected)

        mc = np.random.default_rng(42)
        n = 10**6
        for _ in range(10):
            progress = mc.uniform(0.05, 3.0)
            death = mc.uniform(0.05, 3.0)
            races = (mc.exponential(1.0 / progress, n)
                     < mc.exponential(1.0 / death, n))
            p = exposed_survival(progress, death)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(float(np.mean(races)) - p) < 3.0 * se


def test_criterion_2_ode_integrity():
    with Budget("2 ODE integrity", 20.0):
        cfg = Config()
        params = ModelParams.from_config(cfg)
        init = default_init_state(cfg)
        wx = sinusoid_weather(365)
        k = np.full(365, 5000.0)

        traj = simulate(params, wx, k, init)
        human_sum = traj.states[:, :4].sum(axis=1)
        assert np.max(np.abs(human_sum - human_sum[0])) < 1e-9 * human_sum[0]

        clean = Config(init_infected_birds=0.0)
        free = simulate(ModelParams.from_config(clean), wx, k,
                        default_init_state(clean))
        infected_cols = [COMPARTMENTS.index(c) for c in
                         ("H_E", "H_I", "H_R", "M_E", "M_I", "B_E", "B_I", "B_R")]
        assert np.all(free.states[:, infected_cols] == 0.0)

        halved = simulate(params, wx, k, init, steps_per_day=48)
        rel = np.abs(traj.states - halved.states) / np.maximum(
            np.abs(halved.states), 1.0)
        assert np.max(rel) < 1e-5


def test_criterion_3_kde_hdr():
    with Budget("3 KDE/HDR", 15.0):
        rng = np.random.default_rng(33)
        pts = rng.uniform(0.0, 10.0, (6, 2)).tolist()
        weights = rng.integers(1, 8, 6).astype(float).tolist()
        samples = [OnsetSample(m, r, w) for (m, r), w in zip(pts, weights)]
        pdf = fit_onset_pdf(samples, grid_size=128, levels=(0.88, 0.90, 0.95))
        assert 0.99 <= float(np.sum(pdf.density) * pdf.cell_area) <= 1.01

        t88, t90, t95 = pdf.thresholds
        assert t95 <= t90 <= t88
        cells88 = pdf.density >= t88
        cells90 = pdf.density >= t90
        cells95 = pdf.density >= t95
        assert np.all(cells88 <= cells90)
        assert np.all(cells90 <= cells95)

        single = fit_onset_pdf([OnsetSample(0.0, 0.0, 1.0)],
                               bandwidth=(1.0, 1.0), grid_size=200)
        level = 1.0 - math.exp(-0.5)
        threshold = hdr_thresholds(single, [level])[0]
        mass = float(np.sum(single.density[single.density >= threshold])
                     * single.cell_area)
        assert abs(mass - level) < 0.01


def test_criterion_4_severity_engine():
    with Budget("4 severity engine", 60.0):
        rng = np.random.default_rng(44)

        # posterior normalization
        grid = square_grid(32)
        lam = rng.uniform(0.0, 12.0, grid.shape)
        prior = build_prior("uniform", None, grid)
        surface = surface_with(grid, lam)
        posteriors = build_posteriors(prior, surface, 10)
        for post in posteriors:
            mass = float(np.sum(post.density) * grid.cell_area)
            assert abs(mass - 1.0) <= 1e-6

        # brute-force equivalence on the 32x32 grid, X_max = 10
        def brute(point):
            i, j, _ = grid.nearest_cell(*point)
            best_x, best_d = None, -1.0
            for x in range(1, 11):
                d = prior.density[i, j] * poisson_pmf(x, float(lam[i, j]))
                if d > best_d:
                    best_x, best_d = x, d
            return best_x

        for _ in range(50):
            point = tuple(rng.uniform(0.0, 1.0, 2))
            assert mpp_predict(point, posteriors)[0] == brute(point)

        # prior-scale invariance (power-of-two scale cancels bit-exactly)
        scaled = object.__new__(PriorGrid)
        object.__setattr__(scaled, "kind", prior.kind)
        object.__setattr__(scaled, "grid", prior.grid)
        object.__setattr__(scaled, "density", prior.density * 4.0)
        scaled_posteriors = build_posteriors(scaled, surface, 10)
        for _ in range(20):
            point = tuple(rng.uniform(0.0, 1.0, 2))
            assert (mpp_predict(point, posteriors)[0]
                    == mpp_predict(point, scaled_posteriors)[0])

        # synthetic recovery from a known rate surface with peak 10
        cfg = Config(init_infected_birds=0.0, k_default=5000.0)
        params = ModelParams.from_config(cfg)
        init = default_init_state(cfg)
        years = {}
        for offset, year in ((0.0, 2018), (0.15, 2019), (-0.1, 2020),
                             (0.05, 2021)):
            wx = sinusoid_weather(365, start=date(year, 1, 1),
                                  base=17.0 + offset)
            years[year] = simulate(params, wx, np.full(365, 5000.0), init)
        m_all = np.concatenate([t.m for t in years.values()])
        w_all = np.concatenate([weather_feature(t.weather)
                                for t in years.values()])
        m_peak, w_peak = m_all.max(), w_all.max()
        sig_m, sig_w = 0.25 * m_all.std(), 0.6 * w_all.std()

        def lam_true(m, w):
            z = ((m - m_peak) / sig_m) ** 2 + ((w - w_peak) / sig_w) ** 2
            return 10.0 * math.exp(-0.5 * z)

        draw = np.random.default_rng(77)
        trajectories, case_series = {}, {}
        for year, traj in years.items():
            w_series = weather_feature(traj.weather)
            week_starts, counts = [], []
            wk = traj.dates[0]
            while wk + timedelta(days=6) <= traj.dates[-1]:
                mid = traj.dates.index(wk + timedelta(days=3))
                week_starts.append(wk)
                counts.append(int(draw.poisson(
                    lam_true(float(traj.m[mid]), float(w_series[mid])))))
                wk += timedelta(days=7)
            trajectories[year] = traj
            case_series[year] = CaseSeries(tuple(week_starts),
                                           np.array(counts, dtype=int))
        fit_samples = collect_severity_samples(trajectories, case_series)
        fitted = fit_rate_surface(fit_samples, grid_size=64)
        uniform = build_prior("uniform", None, fitted.grid)
        candidates = build_posteriors(uniform, fitted, 30)
        target = trajectories[2021]
        result = estimate_severity(target, candidates)
        w_series = weather_feature(target.weather)
        lam_daily = np.array([
            lam_true(float(target.m[i]), float(w_series[i]))
            for i in range(len(target))
        ])
        peak_day = int(np.argmax(lam_daily))
        assert abs(int(result.predicted[peak_day]) - 10) <= 3


def test_criterion_5_scoring():
    with Budget("5 scoring", 30.0):
        # exact log-score examples
        certain = np.zeros(101)
        certain[4] = 1.0
        assert log_score(PredictiveDist(week=None, probs=certain), 4) == 0.0
        probs = np.zeros(101)
        probs[6] = math.exp(-2.0)
        probs[0] = 1.0 - math.exp(-2.0)
        assert log_score(PredictiveDist(week=None, probs=probs), 6) == \
            pytest.approx(-2.0, rel=1e-12)
        assert log_score(PredictiveDist(week=None, probs=certain), 9) == -10.0

        # partition identity on 100 random runs
        rng = np.random.default_rng(55)
        start = date(2022, 1, 3)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            weeks = tuple(start + timedelta(days=7 * i) for i in range(n))
            observed = CaseSeries(weeks, rng.integers(0, 7, n))
            dists = []
            for i in range(n):
                raw = rng.uniform(0.0, 1.0, 101)
                dists.append(PredictiveDist(week=weeks[i],
                                            probs=raw / raw.sum()))
            report = score_run(dists, observed)
            assert report.ts == pytest.approx(report.zs + report.nzs,
                                              abs=1e-9)

        # NB recovery from n = 5000 synthetic draws
        gen = np.random.default_rng(2024)
        lam = gen.gamma(2.0, (1.0 - 0.4) / 0.4, 5000)
        counts = gen.poisson(lam)
        model = fit_negbin(counts)
        assert 1.7 <= model.r <= 2.3
        assert 0.36 <= model.p <= 0.44
        best_grid = max(
            negbin_loglik(counts, r, p)
            for r in np.linspace(0.5, 5.0, 24)
            for p in np.linspace(0.05, 0.95, 37)
        )
        assert negbin_loglik(counts, model.r, model.p) >= best_grid - 1e-6


def test_criterion_6_trend(world, pipeline_trajectories):
    with Budget("6 trend", 120.0):
        # closed-form OLS agreement
        rng = np.random.default_rng(66)
        years = np.arange(1991, 2024)
        values = 0.002 * years + 0.22 + rng.normal(0.0, 0.01, len(years))
        result = ols_trend(years, values)
        design = np.column_stack([np.ones(len(years)), years])
        beta = np.linalg.solve(design.T @ design, design.T @ values)
        assert abs(result.slope - beta[1]) < 1e-10
        assert abs(result.intercept - beta[0]) < 1e-10

        cases = world.cases.year_slices()
        train = {y: pipeline_trajectories[y] for y in (2019, 2020, 2021)}
        samples, _ = collect_onset_samples(train,
                                           {y: cases[y] for y in train})
        cfg = world.cfg
        pdf = fit_onset_pdf(samples,
                            bandwidth=(cfg.onset_bandwidth_m,
                                       cfg.onset_bandwidth_r0),
                            grid_size=cfg.onset_grid,
                            levels=cfg.contour_levels)
        params = ModelParams.from_config(cfg)

        from spillcast.carrycap import KSeries

        def constant_k(wx):
            return KSeries(wx.dates, np.full(len(wx), world.k_star))

        stationary = seasonal_weather(2000, 12, noise_sigma=0.0)
        flat = trend_report(stationary, pdf, params, constant_k, cfg)
        assert flat.trend_r_year.p_value > 0.1

        warming = seasonal_weather(1994, 30, warming_per_year=0.05,
                                   temp_base=16.2, noise_sigma=0.35, seed=60)
        warm = trend_report(warming, pdf, params, constant_k, cfg)
        assert warm.trend_r_year.slope > 0.0
        assert warm.trend_r_year.p_value < 0.05


def test_criterion_7_structural(tmp_path, world, pipeline_trajectories):
    with Budget("7 structural reproduction", 60.0):
        cfg = world.cfg
        params = ModelParams.from_config(cfg)
        cases = world.cases.year_slices()
        train = {y: pipeline_trajectories[y] for y in (2019, 2020, 2021)}
        samples, _ = collect_onset_samples(train,
                                           {y: cases[y] for y in train})
        pdf = fit_onset_pdf(samples,
                            bandwidth=(cfg.onset_bandwidth_m,
                                       cfg.onset_bandwidth_r0),
                            grid_size=cfg.onset_grid,
                            levels=cfg.contour_levels)

        long = predict_onset_risk(world.weather, "long_term", 365, pdf,
                                  params, cfg)
        short = predict_onset_risk(world.weather, "short_term",
                                   cfg.short_lead, pdf, params, cfg)

        target = cases[2022]
        nonzero = [i for i, c in enumerate(target.counts) if c > 0]
        first_day = target.week_starts[nonzero[0]] + timedelta(days=3)
        by_date = dict(zip(long.dates, long.levels))
        assert by_date[first_day] in (RiskLevel.HIGH, RiskLevel.RISKY)

        long_high = long.counts()[RiskLevel.HIGH]
        short_high = short.counts()[RiskLevel.HIGH]
        assert short_high <= long_high


def test_criterion_8_determinism(tmp_path, world):
    with Budget("8 determinism", 120.0):
        fixture = write_fixture(tmp_path / "fixture", world)
        w, c, cfg = (str(fixture["weather"]), str(fixture["cases"]),
                     str(fixture["config"]))
        for name in ("a", "b"):
            base = tmp_path / name
            assert main(["simulate", "--weather", w, "--config", cfg,
                         "--seed", "11", "--out", str(base / "sim")]) == 0
            assert main(["fit-onset", "--weather", w, "--cases", c,
                         "--config", cfg, "--seed", "11",
                         "--out", str(base / "onset")]) == 0
            assert main(["predict-onset", "--weather", w,
                         "--model", str(base / "onset"), "--config", cfg,
                         "--seed", "11",
                         "--mode", "long", "--out", str(base / "po")]) == 0
            assert main(["fit-severity", "--weather", w, "--cases", c,
                         "--config", cfg, "--seed", "11",
                         "--out", str(base / "sev")]) == 0
            assert main(["estimate-severity", "--weather", w,
                         "--model", str(base / "sev"), "--config", cfg,
                         "--seed", "11", "--out", str(base / "est")]) == 0
            assert main(["evaluate", "--cases", c, "--severity-csv",
                         str(base / "est" / "severity.csv"),
                         "--config", cfg, "--seed", "11", "--model", "both",
                         "--out", str(base / "eval")]) == 0
        for sub in ("sim", "onset", "po", "sev", "est", "eval"):
            a_dir = tmp_path / "a" / sub
            b_dir = tmp_path / "b" / sub
            for path in sorted(a_dir.iterdir()):
                other = b_dir / path.name
                if path.name == "manifest.json":
                    ma = json.loads(path.read_text())
                    mb = json.loads(other.read_text())
                    ma.pop("created_at")
                    mb.pop("created_at")
                    # the model-dir input paths differ between a/ and b/;
                    # their hashes must not
                    assert sorted(ma.pop("inputs").values()) == \
                        sorted(mb.pop("inputs").values())
                    assert ma == mb
                else:
                    assert path.read_bytes() == other.read_bytes(), path.name

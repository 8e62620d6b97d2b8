import math

import numpy as np
import pytest
from datetime import date, timedelta

from scipy.special import gammaln
from scipy.stats import poisson as scipy_poisson

from spillcast import errors, severity
from spillcast.config import Config
from spillcast.epimodel import ModelParams, default_init_state, simulate
from spillcast.ingest import CaseSeries
from spillcast.severity import (
    Grid2D,
    PriorGrid,
    RateSurface,
    SeveritySample,
    build_posteriors,
    build_prior,
    collect_severity_samples,
    estimate_severity,
    fit_rate_surface,
    mpp_predict,
    poisson_pmf,
    posterior,
    predict_severity,
    save_severity,
)
from spillcast.pipeline import weather_feature
from spillcast.special import lgam

from tests.conftest import constant_weather, sinusoid_weather


def square_grid(n=32, lo=0.0, hi=1.0):
    step = (hi - lo) / n
    centers = lo + step * (np.arange(n) + 0.5)
    return Grid2D(centers.copy(), centers.copy())


def surface_with(grid, lam):
    return RateSurface(grid=grid, lam=lam, bandwidth=(1.0, 1.0),
                       sample_m=np.array([0.0]), sample_w=np.array([0.0]),
                       sample_x=np.array([1.0]))


class TestPoissonPmf:
    def test_reference_values(self):
        assert poisson_pmf(0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert poisson_pmf(2, 2.0) == pytest.approx(2.0 * math.exp(-2.0),
                                                    rel=1e-12)
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(5, 0.0) == 0.0

    def test_log_space_branch_matches_scipy(self):
        for x in (21, 50, 150):
            for lam in (0.5, 10.0, 50.0):
                assert poisson_pmf(x, lam) == pytest.approx(
                    float(scipy_poisson.pmf(x, lam)), rel=1e-10)

    def test_log_gamma_equals_scipy_gammaln_exactly(self):
        # every argument poisson_pmf can pass (x + 1 >= 22) up to 300000,
        # then a sparse sweep across the three Stirling regimes
        args = np.concatenate([np.arange(22.0, 300001.0),
                               np.unique(np.logspace(5.5, 12.0, 2000).round())])
        want = gammaln(args).tolist()
        got = [lgam(a) for a in args.tolist()]
        assert got == want

    def test_grid_equals_scalar_pmf_cellwise(self):
        rng = np.random.default_rng(8)
        lam = rng.gamma(1.0, 20.0, (16, 16))
        lam[:3, :5] = 0.0
        lam[5, 5] = -0.0
        xs = [0, 1, 2, 7, 20, 21, 22, 60, 150]
        for x, grid in zip(xs, severity._poisson_pmf_grids(xs, lam)):
            want = [[poisson_pmf(x, float(v)) for v in row] for row in lam]
            assert grid.tolist() == want, x

    def test_grid_rejects_negative_rate(self):
        lam = np.ones((4, 4))
        lam[2, 1] = -1e-9
        with pytest.raises(ValueError, match="negative rate"):
            next(severity._poisson_pmf_grids([3], lam))

    def test_log_space_branch_is_scipys_formula(self):
        for x in (21, 22, 26, 99, 1000, 5000):
            for lam in (0.5, 10.0, 50.0, 3000.0):
                want = math.exp(x * math.log(lam) - lam - gammaln(x + 1))
                assert poisson_pmf(x, lam) == want

    def test_mass_sums_to_one(self):
        for lam in (0.1, 1.0, 10.0, 50.0):
            total = sum(poisson_pmf(x, lam) for x in range(201))
            assert total > 1.0 - 1e-9


class TestFitRateSurface:
    def test_huge_feature_raises_non_finite_fit(self):
        # W features that overflowed to inf, as a 1e308 weight made them
        samples = [SeveritySample(1.0, float("inf"), 3),
                   SeveritySample(2.0, float("inf"), 4)]
        with np.errstate(all="ignore"), pytest.raises(errors.NonFiniteFit):
            fit_rate_surface(samples, bandwidths=(1.0, 1.0))

    def test_constant_counts_give_constant_lambda(self):
        samples = [SeveritySample(m, w, 5) for m, w in
                   [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5), (0.5, 2.0)]]
        surface = fit_rate_surface(samples, bandwidths=(1.0, 1.0))
        supported = surface.lam[surface.lam > 0]
        assert np.allclose(supported, 5.0, rtol=1e-9)

    def test_single_sample_value_at_location(self):
        surface = fit_rate_surface([SeveritySample(3.0, 4.0, 7)],
                                   bandwidths=(1.0, 1.0), grid_size=64)
        i, j, _ = surface.grid.nearest_cell(3.0, 4.0)
        assert surface.lam[i, j] == pytest.approx(7.0, rel=1e-6)

    def test_two_distant_clusters(self):
        """Oracle: the Nadaraya-Watson formula evaluated directly at the
        cluster centers."""
        rng = np.random.default_rng(31)
        a = [(float(5.0 + rng.normal(0, 0.05)), float(5.0 + rng.normal(0, 0.05)), 1)
             for _ in range(10)]
        b = [(float(35.0 + rng.normal(0, 0.05)), float(5.0 + rng.normal(0, 0.05)), 9)
             for _ in range(10)]
        samples = [SeveritySample(m, w, x) for m, w, x in a + b]
        surface = fit_rate_surface(samples, bandwidths=(1.0, 1.0))

        def nw(m, w):
            num = den = 0.0
            for s in samples:
                k = math.exp(-0.5 * ((m - s.m) ** 2 + (w - s.w) ** 2))
                num += k * s.x
                den += k
            return num / den

        for m0, x0 in ((5.0, 1.0), (35.0, 9.0)):
            i, j, _ = surface.grid.nearest_cell(m0, 5.0)
            g_m = float(surface.grid.m_centers[i])
            g_w = float(surface.grid.w_centers[j])
            assert surface.lam[i, j] == pytest.approx(nw(g_m, g_w), rel=1e-9)
            assert abs(surface.lam[i, j] - x0) < 0.05

    def test_lambda_bounded_by_count_range(self):
        rng = np.random.default_rng(5)
        samples = [SeveritySample(float(rng.uniform(0, 10)),
                                  float(rng.uniform(0, 10)),
                                  int(rng.integers(2, 17)))
                   for _ in range(25)]
        surface = fit_rate_surface(samples, bandwidths=(2.0, 2.0))
        xs = [s.x for s in samples]
        supported = surface.lam[surface.lam > 0]
        assert np.all(supported >= min(xs) - 1e-9)
        assert np.all(supported <= max(xs) + 1e-9)

    def test_vanishing_weight_cells_zero(self):
        # two tight clusters far apart: midfield cells lose all support
        samples = [SeveritySample(0.0, 0.0, 5), SeveritySample(10.0, 10.0, 7)]
        surface = fit_rate_surface(samples, bandwidths=(0.05, 0.05),
                                   grid_size=64)
        assert np.any(surface.lam == 0.0)
        i, j, _ = surface.grid.nearest_cell(5.0, 5.0)
        assert surface.lam[i, j] == 0.0

    def test_too_few(self):
        with pytest.raises(errors.TooFewSamples):
            fit_rate_surface([])


class TestPriors:
    def test_uniform_box_density(self):
        grid = square_grid(32, 0.0, 2.0)  # extent 2 x 2
        prior = build_prior("uniform_box", None, grid)
        assert np.allclose(prior.density, 1.0 / 4.0)
        mass = float(np.sum(prior.density) * grid.cell_area)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_ridge_single_point(self):
        grid = square_grid(64, -3.0, 3.0)
        prior = build_prior("gaussian_ridge", [(0.0, 0.0)], grid, sigma=0.5)
        mass = float(np.sum(prior.density) * grid.cell_area)
        assert mass == pytest.approx(1.0, abs=1e-6)
        center = prior.density[32, 32]
        assert center == prior.density.max()

    def test_uniform_band_small_halfwidth_concentrates(self):
        grid = square_grid(32, 0.0, 1.0)
        curve = [(0.25, 0.25), (0.75, 0.75)]
        prior = build_prior("uniform_band", curve, grid, halfwidth=1e-9)
        occupied = np.count_nonzero(prior.density)
        assert occupied <= 4
        mass = float(np.sum(prior.density) * grid.cell_area)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_empty_curve(self):
        grid = square_grid()
        with pytest.raises(errors.EmptyCurve):
            build_prior("gaussian_ridge", [], grid)


class TestPosterior:
    def test_uniform_prior_constant_lambda_stays_uniform(self):
        grid = square_grid()
        prior = build_prior("uniform_box", None, grid)
        surface = surface_with(grid, np.full(grid.shape, 3.0))
        for x in (1, 3, 8):
            post = posterior(x, prior, surface)
            assert np.allclose(post.density, prior.density, rtol=1e-12)

    def test_zero_count_concentrates_on_zero_rate_half(self):
        grid = square_grid(32)
        lam = np.zeros(grid.shape)
        lam[16:, :] = 40.0
        prior = build_prior("uniform_box", None, grid)
        post = posterior(0, prior, surface_with(grid, lam))
        mass_zero_half = float(np.sum(post.density[:16, :]) * grid.cell_area)
        assert mass_zero_half == pytest.approx(1.0, abs=1e-12)

    def test_two_valued_lambda_cell_ratio(self):
        """Oracle: hand-computed pmf ratio between regions."""
        grid = square_grid(32)
        lam = np.full(grid.shape, 1.0)
        lam[16:, :] = 9.0
        prior = build_prior("uniform_box", None, grid)
        post = posterior(9, prior, surface_with(grid, lam))
        ratio = post.density[20, 5] / post.density[5, 5]
        expected = (math.exp(-9.0) * 9.0**9 / math.factorial(9)) / \
                   (math.exp(-1.0) * 1.0**9 / math.factorial(9))
        assert ratio == pytest.approx(expected, rel=1e-9)

    def test_normalized(self):
        grid = square_grid(24)
        rng = np.random.default_rng(6)
        lam = rng.uniform(0.0, 12.0, grid.shape)
        prior = build_prior("uniform_box", None, grid)
        for x in range(1, 11):
            post = posterior(x, prior, surface_with(grid, lam))
            mass = float(np.sum(post.density) * grid.cell_area)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_zero_evidence(self):
        grid = square_grid(16)
        surface = surface_with(grid, np.zeros(grid.shape))
        prior = build_prior("uniform_box", None, grid)
        with pytest.raises(errors.ZeroEvidence):
            posterior(3, prior, surface)


class TestMpp:
    def test_constant_surface_picks_poisson_mode(self):
        # on the shared evidence scale a flat rate surface reduces MPP to
        # the Poisson mode; the integer rate ties its two modes and the
        # smaller one wins
        grid = square_grid(16)
        prior = build_prior("uniform_box", None, grid)
        surface = surface_with(grid, np.full(grid.shape, 4.0))
        posteriors = build_posteriors(prior, surface, 10)
        x, off = mpp_predict((0.5, 0.5), posteriors)
        assert x == 3
        assert off is False

    def test_brute_force_equivalence(self):
        """Oracle: exhaustive recomputation of prior x likelihood."""
        rng = np.random.default_rng(14)
        grid = square_grid(32)
        lam = rng.uniform(0.0, 12.0, grid.shape)
        prior = build_prior("uniform_box", None, grid)
        surface = surface_with(grid, lam)
        posteriors = build_posteriors(prior, surface, 10)

        def brute(point):
            i, j, _ = grid.nearest_cell(*point)
            best_x, best_d = None, -1.0
            for x in range(1, 11):
                d = prior.density[i, j] * poisson_pmf(x, float(lam[i, j]))
                if d > best_d:
                    best_x, best_d = x, d
            return best_x

        for _ in range(25):
            point = tuple(rng.uniform(0.0, 1.0, 2))
            assert mpp_predict(point, posteriors)[0] == brute(point)

    def test_two_region_prediction(self):
        """Oracle: brute force over candidates at a point in the high-rate
        region; Poisson(9) ties its modes 8 and 9."""
        grid = square_grid(32)
        lam = np.full(grid.shape, 1.0)
        lam[16:, :] = 9.0
        prior = build_prior("uniform_box", None, grid)
        surface = surface_with(grid, lam)
        posteriors = build_posteriors(prior, surface, 30)
        point = (0.8, 0.5)

        i, j, _ = grid.nearest_cell(*point)
        best_x, best_d = None, -1.0
        for x in range(1, 31):
            d = prior.density[i, j] * poisson_pmf(x, 9.0)
            if d > best_d:
                best_x, best_d = x, d
        x, _ = mpp_predict(point, posteriors)
        assert x == best_x
        assert x in (8, 9)

    def test_prior_scale_invariance(self):
        """Scaling the prior density by a power of two cancels bit-exactly
        in the posterior normalization."""
        grid = square_grid(16)
        rng = np.random.default_rng(8)
        lam = rng.uniform(0.0, 9.0, grid.shape)
        surface = surface_with(grid, lam)
        prior = build_prior("uniform_box", None, grid)
        scaled = object.__new__(PriorGrid)
        object.__setattr__(scaled, "kind", prior.kind)
        object.__setattr__(scaled, "grid", prior.grid)
        object.__setattr__(scaled, "density", prior.density * 4.0)
        for x in (1, 4, 9):
            a = posterior(x, prior, surface)
            b = posterior(x, scaled, surface)
            assert np.array_equal(a.density, b.density)
        pa = build_posteriors(prior, surface, 10)
        pb = build_posteriors(scaled, surface, 10)
        for _ in range(10):
            point = tuple(rng.uniform(0.0, 1.0, 2))
            assert mpp_predict(point, pa)[0] == mpp_predict(point, pb)[0]

    def test_off_grid_flagged_nearest_cell(self):
        grid = square_grid(16)
        prior = build_prior("uniform_box", None, grid)
        lam = np.linspace(1.0, 9.0, 16)[:, None] * np.ones((1, 16))
        posteriors = build_posteriors(prior, surface_with(grid, lam), 10)
        x_in, off_in = mpp_predict((0.97, 0.5), posteriors)
        x_out, off_out = mpp_predict((5.0, 0.5), posteriors)
        assert off_in is False and off_out is True
        assert x_out == x_in    # clamps to the same boundary cell


@pytest.fixture(scope="module")
def lambda_world():
    """Synthetic severity world: weekly counts drawn from a known rate
    surface with peak 10 over the (M, W) seasonal curve."""
    cfg = Config(init_infected_birds=0.0, k_default=5000.0)
    params = ModelParams.from_config(cfg)
    init = default_init_state(cfg)
    rng = np.random.default_rng(77)

    years = {}
    for offset, year in ((0.0, 2018), (0.15, 2019), (-0.1, 2020), (0.05, 2021)):
        wx = sinusoid_weather(365, start=date(year, 1, 1), base=17.0 + offset)
        years[year] = simulate(params, wx, np.full(365, cfg.k_default), init)

    m_all = np.concatenate([t.m for t in years.values()])
    w_all = np.concatenate([weather_feature(t.weather) for t in years.values()])
    m_peak, w_peak = m_all.max(), w_all.max()
    sig_m, sig_w = 0.25 * m_all.std(), 0.6 * w_all.std()

    def lam_true(m, w):
        z = ((m - m_peak) / sig_m) ** 2 + ((w - w_peak) / sig_w) ** 2
        return 10.0 * math.exp(-0.5 * z)

    trajectories, case_series = {}, {}
    for year, traj in years.items():
        w_series = weather_feature(traj.weather)
        week_starts, counts = [], []
        wk = traj.dates[0]
        while wk + timedelta(days=6) <= traj.dates[-1]:
            mid = traj.dates.index(wk + timedelta(days=3))
            lam = lam_true(float(traj.m[mid]), float(w_series[mid]))
            week_starts.append(wk)
            counts.append(int(rng.poisson(lam)))
            wk += timedelta(days=7)
        trajectories[year] = traj
        case_series[year] = CaseSeries(tuple(week_starts),
                                       np.array(counts, dtype=int))
    return cfg, params, trajectories, case_series, lam_true


class TestEndToEnd:
    def test_collect_severity_samples(self, lambda_world):
        cfg, params, trajectories, case_series, _ = lambda_world
        samples = collect_severity_samples(trajectories, case_series)
        total_nonzero = sum(int(np.count_nonzero(c.counts))
                            for c in case_series.values())
        assert len(samples) == total_nonzero
        assert all(s.x >= 1 for s in samples)

    def test_peak_day_recovery(self, lambda_world):
        cfg, params, trajectories, case_series, lam_true = lambda_world
        samples = collect_severity_samples(trajectories, case_series)
        surface = fit_rate_surface(samples, grid_size=64)
        prior = build_prior("uniform_box", None, surface.grid)
        posteriors = build_posteriors(prior, surface, 30)

        traj = trajectories[2021]
        result = estimate_severity(traj, posteriors)
        w_series = weather_feature(traj.weather)
        lam_daily = np.array([lam_true(float(traj.m[i]), float(w_series[i]))
                              for i in range(len(traj))])
        peak_day = int(np.argmax(lam_daily))
        assert abs(int(result.predicted[peak_day]) - 10) <= 3

    def test_estimate_constant_trajectory(self, lambda_world):
        cfg, params, trajectories, case_series, _ = lambda_world
        samples = collect_severity_samples(trajectories, case_series)
        surface = fit_rate_surface(samples, grid_size=64)
        prior = build_prior("uniform_box", None, surface.grid)
        posteriors = build_posteriors(prior, surface, 30)
        from spillcast.epimodel import Trajectory
        wx = constant_weather(20, temp=25.0, start=date(2022, 1, 1))
        m0 = float(np.mean(surface.sample_m))
        traj = Trajectory(
            dates=wx.dates, states=np.zeros((20, 15)),
            m=np.full(20, m0), r0=np.zeros(20),
            new_infections=np.zeros(20), weather=wx,
        )
        result = estimate_severity(traj, posteriors)
        assert len(set(result.predicted.tolist())) == 1

    def test_empty_trajectory_empty_output(self, lambda_world):
        cfg, params, trajectories, case_series, _ = lambda_world
        samples = collect_severity_samples(trajectories, case_series)
        surface = fit_rate_surface(samples, grid_size=32)
        prior = build_prior("uniform_box", None, surface.grid)
        posteriors = build_posteriors(prior, surface, 10)
        empty = trajectories[2021]
        from spillcast.epimodel import Trajectory
        from spillcast.ingest import WeatherSeries
        wx0 = WeatherSeries((), np.array([]), np.array([]), np.array([]))
        t0 = Trajectory(dates=(), states=np.empty((0, 15)), m=np.array([]),
                        r0=np.array([]), new_infections=np.array([]),
                        weather=wx0)
        out = estimate_severity(t0, posteriors)
        assert len(out) == 0

    def test_weekly_correlation_with_generator(self, lambda_world):
        """Oracle: the generator's expected weekly counts."""
        cfg, params, trajectories, case_series, lam_true = lambda_world
        train = {y: trajectories[y] for y in (2018, 2019, 2020)}
        train_cases = {y: case_series[y] for y in train}
        samples = collect_severity_samples(train, train_cases)
        surface = fit_rate_surface(samples, grid_size=64)
        prior = build_prior("uniform_box", None, surface.grid)
        posteriors = build_posteriors(prior, surface, 30)

        traj = trajectories[2021]
        result = estimate_severity(traj, posteriors)
        w_series = weather_feature(traj.weather)
        weeks = case_series[2021].week_starts
        idx = {d: i for i, d in enumerate(traj.dates)}
        pred_weekly, expected_weekly = [], []
        for wk in weeks:
            mid = idx[wk + timedelta(days=3)]
            days = [idx[wk + timedelta(days=i)] for i in range(7)]
            pred_weekly.append(sum(int(result.predicted[i]) for i in days))
            expected_weekly.append(
                lam_true(float(traj.m[mid]), float(w_series[mid])))
        r = np.corrcoef(pred_weekly, expected_weekly)[0, 1]
        assert r > 0.7


class TestPredictSeverity:
    def test_zero_lead_short_mode_empty(self, lambda_world):
        cfg, params, trajectories, case_series, _ = lambda_world
        samples = collect_severity_samples(trajectories, case_series)
        surface = fit_rate_surface(samples, grid_size=32)
        wx = constant_weather(900, temp=22.0, start=date(2019, 1, 1))
        out = predict_severity(wx, case_series[2021], "short_term", 0,
                               surface, params, cfg)
        assert len(out) == 0

    def test_long_and_short_agree_on_constant_world(self, lambda_world):
        cfg, params, trajectories, case_series, _ = lambda_world
        samples = collect_severity_samples(trajectories, case_series)
        surface = fit_rate_surface(samples, grid_size=64)
        wx = constant_weather(365 * 3, temp=24.0, start=date(2019, 1, 1))
        long = predict_severity(wx, case_series[2021], "long_term", 365,
                                surface, params, cfg)
        short = predict_severity(wx, case_series[2021], "short_term", 14,
                                 surface, params, cfg)
        by_date_long = dict(zip(long.dates, long.predicted))
        for d, x in zip(short.dates, short.predicted):
            assert abs(int(x) - int(by_date_long[d])) <= 1

    def test_csv_exports(self, tmp_path, lambda_world):
        cfg, params, trajectories, case_series, _ = lambda_world
        samples = collect_severity_samples(trajectories, case_series)
        surface = fit_rate_surface(samples, grid_size=32)
        prior = build_prior("uniform_box", None, surface.grid)
        posteriors = build_posteriors(prior, surface, 5)
        result = estimate_severity(trajectories[2021], posteriors)
        sev_path = tmp_path / "severity.csv"
        save_severity(result, sev_path)
        lines = sev_path.read_text().splitlines()
        assert lines[0] == "date,M,W,predicted_cases"
        assert len(lines) == 1 + len(result)

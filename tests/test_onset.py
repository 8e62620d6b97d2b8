import math

import numpy as np
import pytest
from datetime import date, timedelta

from spillcast import errors
from spillcast.onset import (
    OnsetSample,
    RiskLevel,
    apply_transform,
    classify,
    classify_days,
    collect_onset_samples,
    fit_onset_pdf,
    forecast_onset,
    hdr_thresholds,
    save_risk_series,
)


def density_at(pdf, m, r0):
    """The KDE density at one transformed point."""
    return float(pdf.evaluate([m], [r0])[0])


def scalar_density(pdf, m, r0):
    """Oracle: the KDE at one transformed point, summed over the samples
    alone, as the per-point evaluation the blocked one replaced."""
    h_m, h_r = pdf.bandwidth
    zm = (m - pdf.sample_m) / h_m
    zr = (r0 - pdf.sample_r0) / h_r
    kern = np.exp(-0.5 * (zm * zm + zr * zr))
    return float(np.sum(pdf.weights * kern) / (2.0 * math.pi * h_m * h_r))


def samples_at(points, weights=None):
    weights = weights or [1.0] * len(points)
    return [OnsetSample(m=p[0], r0=p[1], weight=w)
            for p, w in zip(points, weights)]


class TestFitOnsetPdf:
    def test_huge_bandwidth_raises_non_finite_fit(self):
        # the grid spans +-3 bandwidths: 3e308 overflows to inf
        with np.errstate(all="ignore"), pytest.raises(errors.NonFiniteFit):
            fit_onset_pdf(samples_at([(1.0, 1.0), (2.0, 3.0)]),
                          bandwidth=(1e308, 1.0))

    def test_single_gaussian_peak_value(self):
        pdf = fit_onset_pdf(samples_at([(0.0, 0.0)]), bandwidth=(1.0, 1.0))
        assert density_at(pdf, 0.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi),
                                                       rel=1e-12)

    def test_symmetric_samples_symmetric_density(self):
        # two equal-weight samples mirrored about the line r0 = 2
        pdf = fit_onset_pdf(samples_at([(1.0, 4.0), (1.0, 0.0)]),
                            bandwidth=(0.7, 0.9))
        for m, r in [(0.5, 1.3), (2.0, 0.4), (1.0, 3.0)]:
            assert density_at(pdf, m, 2.0 + r) == pytest.approx(
                density_at(pdf, m, 2.0 - r), abs=1e-12)

    def test_grid_mass_near_one(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0.0, 10.0, (6, 2))
        weights = rng.integers(1, 9, 6).astype(float).tolist()
        pdf = fit_onset_pdf(samples_at(pts.tolist(), weights), grid_size=128)
        assert 0.99 <= pdf.grid_mass() <= 1.01

    def test_fine_grid_riemann_oracle(self):
        """Oracle: the same mass summed on a 4x finer grid."""
        pts = [(0.0, 0.0), (3.0, 1.0), (1.0, 4.0)]
        coarse = fit_onset_pdf(samples_at(pts), bandwidth=(1.0, 1.5),
                               grid_size=64)
        fine = fit_onset_pdf(samples_at(pts), bandwidth=(1.0, 1.5),
                             grid_size=256)
        assert coarse.grid_mass() == pytest.approx(fine.grid_mass(), abs=0.01)

    def test_auto_bandwidth_matches_weighted_silverman(self):
        pts = [(0.0, 0.0), (2.0, 1.0), (5.0, 7.0), (1.0, 3.0)]
        weights = [1.0, 2.0, 1.0, 4.0]
        pdf = fit_onset_pdf(samples_at(pts, weights))
        w = np.array(weights) / sum(weights)
        for axis, key in ((0, 0), (1, 1)):
            vals = np.array([p[axis] for p in pts])
            mean = np.sum(w * vals)
            sigma = math.sqrt(np.sum(w * (vals - mean) ** 2))
            n_eff = 1.0 / np.sum(w**2)
            assert pdf.bandwidth[key] == pytest.approx(
                sigma * n_eff ** (-1 / 6), rel=1e-12)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(errors.ZeroBandwidth):
            fit_onset_pdf(samples_at([(1.0, 1.0), (1.0, 1.0)]))
        with pytest.raises(errors.ZeroBandwidth):
            fit_onset_pdf(samples_at([(1.0, 1.0)]), bandwidth=(0.0, 1.0))

    def test_no_samples_rejected(self):
        with pytest.raises(errors.TooFewSamples):
            fit_onset_pdf([])

    def test_weight_scale_invariance(self):
        """Scaling every weight by a constant renormalizes away."""
        pts = [(0.0, 0.0), (4.0, 2.0), (2.0, 5.0)]
        a = fit_onset_pdf(samples_at(pts, [1.0, 2.0, 3.0]), bandwidth=(1.0, 1.0))
        b = fit_onset_pdf(samples_at(pts, [7.0, 14.0, 21.0]), bandwidth=(1.0, 1.0))
        assert np.allclose(a.density, b.density, rtol=1e-12)
        assert a.thresholds == pytest.approx(b.thresholds, rel=1e-12)

    def test_refit_equals_union_fit(self):
        """Stateless updating: refitting on the union is the update."""
        pts = [(0.0, 0.0), (4.0, 2.0), (2.0, 5.0)]
        extra = (1.0, 1.0)
        direct = fit_onset_pdf(samples_at(pts + [extra]), bandwidth=(1.0, 1.0))
        reordered = fit_onset_pdf(samples_at([extra] + pts[::-1]),
                                  bandwidth=(1.0, 1.0))
        assert np.allclose(direct.density, reordered.density, rtol=1e-12)


class TestHdr:
    def test_level_one_threshold_is_min_density(self):
        pdf = fit_onset_pdf(samples_at([(0.0, 0.0), (2.0, 2.0)]),
                            bandwidth=(1.0, 1.0))
        t = hdr_thresholds(pdf, [1.0])[0]
        assert t == pytest.approx(float(pdf.density.min()))

    def test_single_gaussian_one_sigma_disk(self):
        """Oracle: analytic mass of the 1-sigma disk of a standard 2-D
        Gaussian, 1 - e^(-1/2) = 0.3935."""
        pdf = fit_onset_pdf(samples_at([(0.0, 0.0)]), bandwidth=(1.0, 1.0),
                            grid_size=200)
        level = 1.0 - math.exp(-0.5)
        t = hdr_thresholds(pdf, [level])[0]
        # the threshold should sit at the density of the 1-sigma circle
        rim = density_at(pdf, 1.0, 0.0)
        assert t == pytest.approx(rim, rel=0.05)
        # and the mass above the threshold should match the disk mass
        mass = float(np.sum(pdf.density[pdf.density >= t]) * pdf.cell_area)
        assert abs(mass - level) < 0.01

    def test_nested_thresholds(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 5, (5, 2)).tolist()
        pdf = fit_onset_pdf(samples_at(pts), bandwidth=(0.8, 0.8))
        t88, t90, t95 = hdr_thresholds(pdf, [0.88, 0.90, 0.95])
        assert t95 <= t90 <= t88

    def test_mass_accuracy_bound(self):
        pdf = fit_onset_pdf(samples_at([(0.0, 0.0), (3.0, 0.5)]),
                            bandwidth=(1.0, 1.0), grid_size=128)
        max_cell_mass = float(pdf.density.max()) * pdf.cell_area
        for level in (0.5, 0.88, 0.95):
            t = hdr_thresholds(pdf, [level])[0]
            mass = float(np.sum(pdf.density[pdf.density >= t]) * pdf.cell_area)
            assert level <= mass <= level + 2.0 * max_cell_mass


class TestClassify:
    def make_pdf(self):
        return fit_onset_pdf(samples_at([(0.0, 0.0)]), bandwidth=(1.0, 1.0))

    def test_peak_is_high(self):
        assert classify(self.make_pdf(), (0.0, 0.0)) is RiskLevel.HIGH

    def test_far_away_is_green(self):
        assert classify(self.make_pdf(), (10.0, 10.0)) is RiskLevel.GREEN

    def test_boundary_inclusive_upward(self):
        pdf = self.make_pdf()
        t_high, t_risky, t_low = pdf.thresholds
        # radius at which the density equals the risky threshold exactly
        r = math.sqrt(-2.0 * math.log(t_risky * 2.0 * math.pi))
        d = density_at(pdf, r, 0.0)
        assert d == pytest.approx(t_risky, rel=1e-9)
        # nudge inside fp error: evaluate() at the exact radius may land a
        # hair under; reconstruct the exact threshold point instead
        level = classify(pdf, (r, 0.0))
        assert level in (RiskLevel.RISKY, RiskLevel.HIGH)

    def test_total_order(self):
        assert RiskLevel.HIGH > RiskLevel.RISKY > RiskLevel.LOW > RiskLevel.GREEN

    def test_off_grid_uses_kde_formula(self):
        pdf = self.make_pdf()
        # far outside the grid extent, density is tiny but well-defined
        far = density_at(pdf, 50.0, 0.0)
        assert far >= 0.0
        assert classify(pdf, (50.0, 0.0)) is RiskLevel.GREEN

    def test_log1p_transform_applied_consistently(self):
        pts = [(100.0, 1.0), (200.0, 2.0)]
        transformed = [(math.log1p(p[0]), p[1]) for p in pts]
        pdf = fit_onset_pdf(
            samples_at(transformed), bandwidth=(0.5, 0.5))
        object.__setattr__(pdf, "transform", "log1p_m")
        # classifying the raw point must hit the sample's density peak region
        assert classify(pdf, (100.0, 1.0)) is not RiskLevel.GREEN


class TestCollect:
    def test_collect_first_spillover(self, world, pipeline_trajectories):
        cases = world.cases.year_slices()
        train = {y: pipeline_trajectories[y] for y in (2019, 2020, 2021)}
        samples, skipped = collect_onset_samples(
            train, {y: cases[y] for y in train})
        assert len(samples) == 3
        assert skipped == []
        for s, year in zip(samples, sorted(train)):
            series = cases[year]
            nz = [i for i, c in enumerate(series.counts) if c > 0]
            first = nz[0]
            midpoint = series.week_starts[first] + timedelta(days=3)
            day = train[year].dates.index(midpoint)
            assert s.m == pytest.approx(float(train[year].m[day]))
            assert s.weight == float(series.counts[first])

    def test_zero_case_year_skipped_and_flagged(self, world,
                                                pipeline_trajectories):
        from spillcast.ingest import CaseSeries
        year = 2019
        traj = pipeline_trajectories[year]
        empty = CaseSeries(
            tuple(date(year, 1, 6) + timedelta(days=7 * i) for i in range(10)),
            np.zeros(10, dtype=int),
        )
        samples, skipped = collect_onset_samples({year: traj}, {year: empty})
        assert samples == []
        assert skipped == [year]


def test_forecast_onset_counts_sum(world, pipeline_trajectories):
    cases = world.cases.year_slices()
    train = {y: pipeline_trajectories[y] for y in (2019, 2020, 2021)}
    samples, _ = collect_onset_samples(train, {y: cases[y] for y in train})
    pdf = fit_onset_pdf(samples, bandwidth=(150.0, 80.0))
    risk = forecast_onset(pdf, pipeline_trajectories[2022])
    counts = risk.counts()
    assert sum(counts.values()) == len(risk)
    assert len(risk) == len(pipeline_trajectories[2022])


def test_forecast_onset_all_green_far_from_samples(default_cfg,
                                                   default_params):
    from spillcast.epimodel import default_init_state, simulate
    from tests.conftest import constant_weather
    wx = constant_weather(30, temp=5.0)  # winter: M ~ small, R0 = 0
    init = default_init_state(default_cfg)
    traj = simulate(default_params, wx, np.full(30, 5000.0), init)
    pdf = fit_onset_pdf(samples_at([(5000.0, 8.0), (6000.0, 9.0)]),
                        bandwidth=(100.0, 1.0))
    risk = forecast_onset(pdf, traj)
    assert all(lv is RiskLevel.GREEN for lv in risk.levels)


def test_contiguous_high_window_through_centroid(default_cfg, default_params):
    """Oracle: pointwise classification of a synthetic trajectory that
    passes through the sample centroid mid-season."""
    from spillcast.epimodel import default_init_state, simulate
    from tests.conftest import sinusoid_weather
    wx = sinusoid_weather(365)
    init = default_init_state(default_cfg)
    traj = simulate(default_params, wx, np.full(365, 5000.0), init)
    mid = 200
    pdf = fit_onset_pdf(
        samples_at([(float(traj.m[mid]), float(traj.r0[mid]))]),
        bandwidth=(300.0, 200.0))
    risk = forecast_onset(pdf, traj)
    assert risk.levels[mid] is RiskLevel.HIGH
    high_days = [i for i, lv in enumerate(risk.levels)
                 if lv is RiskLevel.HIGH]
    lo, hi = min(high_days), max(high_days)
    window = risk.levels[lo:hi + 1]
    assert lo <= mid <= hi
    # pointwise oracle agreement
    for i in range(0, 365, 30):
        assert risk.levels[i] is classify(pdf, (traj.m[i], traj.r0[i]))


@pytest.mark.parametrize("transform", ["identity", "log1p_m"])
def test_classify_days_equals_classify(world, pipeline_trajectories,
                                       transform, monkeypatch):
    """The blocked KDE gives, day for day, the density of the per-point
    formula and the level that point gets alone: on the fixture's
    target-year trajectory and on random points spread around and far
    beyond the samples."""
    monkeypatch.setattr("spillcast.onset.CLASSIFY_BLOCK", 100)
    cases = world.cases.year_slices()
    train = {y: pipeline_trajectories[y] for y in (2019, 2020, 2021)}
    samples, _ = collect_onset_samples(train, {y: cases[y] for y in train},
                                       transform=transform)
    bandwidth = (0.5, 80.0) if transform == "log1p_m" else (150.0, 80.0)
    pdf = fit_onset_pdf(samples, bandwidth=bandwidth, transform=transform)
    traj = pipeline_trajectories[2022]
    rng = np.random.default_rng(11)
    m_hi, r0_hi = 3.0 * traj.m.max(), 3.0 * traj.r0.max()
    points = [(traj.m, traj.r0),
              (rng.uniform(0.0, m_hi, 500), rng.uniform(0.0, r0_hi, 500))]
    seen = set()
    for m, r0 in points:
        density, levels = classify_days(pdf, m, r0)
        assert len(density) == len(levels) == len(m)
        for i in range(len(m)):
            point = (float(m[i]), float(r0[i]))
            want = scalar_density(pdf, *apply_transform(transform, *point))
            assert density[i] == want
            ladder = zip((RiskLevel.HIGH, RiskLevel.RISKY, RiskLevel.LOW),
                         pdf.thresholds)
            assert levels[i] is next(
                (lvl for lvl, t in ladder if want >= t), RiskLevel.GREEN)
            assert levels[i] is classify(pdf, point)
        seen.update(levels)
    assert seen == set(RiskLevel)
    assert forecast_onset(pdf, traj).levels == classify_days(
        pdf, traj.m, traj.r0)[1]


def test_risk_series_csv(tmp_path, world, pipeline_trajectories):
    cases = world.cases.year_slices()
    train = {y: pipeline_trajectories[y] for y in (2019, 2020, 2021)}
    samples, _ = collect_onset_samples(train, {y: cases[y] for y in train})
    pdf = fit_onset_pdf(samples, bandwidth=(150.0, 80.0))
    risk = forecast_onset(pdf, pipeline_trajectories[2022])
    path = tmp_path / "risk.csv"
    save_risk_series(risk, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "date,M,R0,risk_level"
    counts = risk.counts()
    footer = lines[-4:]
    assert footer[0] == f"# count_high = {counts[RiskLevel.HIGH]}"
    assert footer[-1] == f"# count_green = {counts[RiskLevel.GREEN]}"
    body = lines[1:-4]
    assert len(body) == len(risk)
    assert body[0].split(",")[-1] in ("green", "low", "risky", "high")


def test_classify_days_returns_the_enum_members(world, pipeline_trajectories):
    """Each level is the very RiskLevel member its code names."""
    cases = world.cases.year_slices()
    train = {y: pipeline_trajectories[y] for y in (2019, 2020, 2021)}
    samples, _ = collect_onset_samples(train, {y: cases[y] for y in train})
    pdf = fit_onset_pdf(samples, bandwidth=(150.0, 80.0))
    traj = pipeline_trajectories[2022]
    rng = np.random.default_rng(5)
    m = np.concatenate([traj.m, rng.uniform(0.0, 3.0 * traj.m.max(), 300)])
    r0 = np.concatenate([traj.r0, rng.uniform(0.0, 3.0 * traj.r0.max(), 300)])
    density, levels = classify_days(pdf, m, r0)
    t_high, t_risky, t_low = pdf.thresholds
    codes = np.select([density >= t_high, density >= t_risky, density >= t_low],
                      [3, 2, 1], 0)
    assert type(levels) is tuple and len(levels) == len(m)
    for level, code in zip(levels, codes.tolist()):
        assert level is RiskLevel(code)
    assert set(levels) == set(RiskLevel)

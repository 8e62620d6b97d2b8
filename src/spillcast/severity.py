"""Severity of spillover after onset: Poisson rate surface over (M, W),
grid posteriors per candidate case count, and maximum-posterior-predictive
(MPP) estimation.

The rate surface is a Nadaraya-Watson kernel regression of weekly case
counts on (mosquito profile, scalar weather feature); the posterior for a
candidate count x is the Poisson likelihood of x at each cell times a
prior, renormalized on the grid.  Prediction picks the candidate whose
posterior assigns the highest density to the observed coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from datetime import date

import numpy as np

from .config import Config
from .epimodel import ModelParams, Trajectory
from .errors import EmptyCurve, NonFiniteFit, TooFewSamples, ZeroEvidence
from .ingest import SEVERITY_HEADER, CaseSeries, WeatherSeries, write_table
from .onset import (
    WEEK_MIDPOINT,
    OnsetPdf,
    RiskLevel,
    apply_transform,
    classify_days,
    padded_cell_centers,
)
from .pipeline import forecast_points, weather_feature
from .special import lgam

MIN_KERNEL_WEIGHT = 1e-12
AUTO_SIGMA_FRACTION = 0.05


@dataclass(frozen=True)
class SeveritySample:
    m: float
    w: float
    x: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("negative mosquito profile")
        if self.x < 1:
            raise ValueError("case count must be >= 1")


def collect_severity_samples(trajectories: dict, cases: dict,
                             w_weights=(1.0, 0.0, 0.0),
                             transform: str = "identity"):
    """One sample per nonzero case week: (M, W) at the week midpoint with
    the week's count."""
    samples = []
    for year in sorted(cases):
        series = cases[year]
        traj = trajectories.get(year)
        if traj is None:
            raise KeyError(f"no trajectory for year {year}")
        w_series = weather_feature(traj.weather, w_weights)
        index = {d: i for i, d in enumerate(traj.dates)}
        for wk, count in zip(series.week_starts, series.counts):
            if count < 1:
                continue
            day = index.get(wk + WEEK_MIDPOINT)
            if day is None:
                continue
            m, _ = apply_transform(transform, float(traj.m[day]), 0.0)
            samples.append(SeveritySample(m=m, w=float(w_series[day]), x=int(count)))
    return samples


@dataclass(frozen=True)
class Grid2D:
    """Cell-centered evaluation grid over (m, w)."""

    m_centers: np.ndarray
    w_centers: np.ndarray

    @property
    def cell_area(self) -> float:
        return float(
            (self.m_centers[1] - self.m_centers[0])
            * (self.w_centers[1] - self.w_centers[0])
        )

    @property
    def shape(self) -> tuple:
        return (len(self.m_centers), len(self.w_centers))

    @cached_property
    def extent(self) -> tuple:
        dm = self.m_centers[1] - self.m_centers[0]
        dw = self.w_centers[1] - self.w_centers[0]
        return (
            float(self.m_centers[0] - dm / 2), float(self.m_centers[-1] + dm / 2),
            float(self.w_centers[0] - dw / 2), float(self.w_centers[-1] + dw / 2),
        )

    def nearest_cell(self, m: float, w: float):
        """Indices of the cell whose center is closest; True when the point
        lies outside the grid extent."""
        lo_m, hi_m, lo_w, hi_w = self.extent
        outside = not (lo_m <= m <= hi_m and lo_w <= w <= hi_w)
        i = int(np.argmin(np.abs(self.m_centers - m)))
        j = int(np.argmin(np.abs(self.w_centers - w)))
        return i, j, outside


@dataclass(frozen=True)
class RateSurface:
    """Poisson rate lambda(m, w) on a grid, with the fitted samples kept
    for artifact round-trips."""

    grid: Grid2D
    lam: np.ndarray              # (n_m, n_w), >= 0
    bandwidth: tuple
    sample_m: np.ndarray
    sample_w: np.ndarray
    sample_x: np.ndarray


def fit_rate_surface(samples, bandwidths=None, grid_size: int = 64) -> RateSurface:
    """Nadaraya-Watson regression of counts on (m, w).

    lambda(g) = sum_i K_h(g - s_i) x_i / sum_i K_h(g - s_i); cells whose
    total kernel weight is below 1e-12 get lambda = 0.
    """
    samples = list(samples)
    if len(samples) < 1:
        raise TooFewSamples("need at least one severity sample")
    sm = np.array([s.m for s in samples], dtype=float)
    sw = np.array([s.w for s in samples], dtype=float)
    sx = np.array([s.x for s in samples], dtype=float)

    if bandwidths is None:
        n = len(samples)
        h_m = float(np.std(sm) * n ** (-1.0 / 6.0))
        h_w = float(np.std(sw) * n ** (-1.0 / 6.0))
    else:
        h_m, h_w = float(bandwidths[0]), float(bandwidths[1])
    if h_m <= 0 or h_w <= 0:
        raise TooFewSamples(
            f"degenerate bandwidth ({h_m:g}, {h_w:g}); supply explicit bandwidths"
        )

    grid = Grid2D(padded_cell_centers(sm, h_m, grid_size),
                  padded_cell_centers(sw, h_w, grid_size))
    zm = (grid.m_centers[:, None] - sm[None, :]) / h_m
    zw = (grid.w_centers[:, None] - sw[None, :]) / h_w
    km = np.exp(-0.5 * zm * zm)
    kw = np.exp(-0.5 * zw * zw)
    weight = np.einsum("ik,jk->ij", km, kw)
    weighted_x = np.einsum("ik,k,jk->ij", km, sx, kw)
    lam = np.where(weight >= MIN_KERNEL_WEIGHT, weighted_x / np.maximum(weight, 1e-300), 0.0)
    if not all(np.isfinite(a).all()
               for a in (grid.m_centers, grid.w_centers, lam)):
        raise NonFiniteFit(f"non-finite rate surface with bandwidth "
                           f"({h_m:g}, {h_w:g})")
    return RateSurface(grid=grid, lam=lam, bandwidth=(h_m, h_w),
                       sample_m=sm, sample_w=sw, sample_x=sx)


def poisson_pmf(x: int, lam: float) -> float:
    """e^-lam lam^x / x!, in log space for x > 20; lam = 0 is a point mass
    at zero."""
    if x < 0:
        raise ValueError("negative count")
    if lam < 0:
        raise ValueError("negative rate")
    if lam == 0.0:
        return 1.0 if x == 0 else 0.0
    if x > 20:
        log_pmf = x * math.log(lam) - lam - lgam(float(x + 1))
        return float(math.exp(log_pmf))
    return float(math.exp(-lam) * lam**x / math.factorial(x))


def _poisson_pmf_grids(xs, lam: np.ndarray):
    """Yield poisson_pmf(x, cell) over the rate grid for each x in xs.

    Each cell's exp(-lam) and log(lam), and each x's x! or lgam(x + 1),
    are computed once; every value is the same double poisson_pmf
    returns, so grid posteriors and pointwise recomputation agree
    bit-for-bit."""
    if np.any(lam < 0):
        raise ValueError("negative rate")
    flat = lam.reshape(-1).tolist()
    zero = lam == 0.0
    exp_neg = [math.exp(-v) for v in flat]
    log_lam = [math.log(v) if v != 0.0 else 0.0 for v in flat]
    for x in xs:
        if x < 0:
            raise ValueError("negative count")
        if x > 20:
            lg = lgam(float(x + 1))
            vals = [math.exp(x * ll - v - lg) for ll, v in zip(log_lam, flat)]
        else:
            fact = float(math.factorial(x))
            vals = [e * v**x / fact for e, v in zip(exp_neg, flat)]
        out = np.array(vals).reshape(lam.shape)
        out[zero] = 1.0 if x == 0 else 0.0
        yield out


@dataclass(frozen=True)
class PriorGrid:
    kind: str                    # one of config.PRIORS
    grid: Grid2D
    density: np.ndarray

    def __post_init__(self):
        mass = float(np.sum(self.density) * self.grid.cell_area)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"prior mass {mass} != 1")


def build_prior(kind: str, curve, grid: Grid2D, sigma: float = 0.0,
                halfwidth: float = 0.0) -> PriorGrid:
    """Prior density over (m, w), normalized to grid mass 1.

    uniform ignores the curve; gaussian is a mixture of isotropic
    Gaussians centered on the forecast (m, w) curve points; band is an
    indicator of distance <= halfwidth from the curve.  sigma/halfwidth
    of 0 default to 5% of the larger grid extent.
    """
    lo_m, hi_m, lo_w, hi_w = grid.extent
    scale = max(hi_m - lo_m, hi_w - lo_w)
    if kind == "uniform":
        density = np.full(grid.shape, 1.0 / ((hi_m - lo_m) * (hi_w - lo_w)))
        return PriorGrid(kind=kind, grid=grid, density=density)

    pts = np.asarray(list(curve), dtype=float).reshape(-1, 2) if curve is not None \
        else np.empty((0, 2))
    if len(pts) == 0:
        raise EmptyCurve(f"{kind} prior requires a nonempty (m, w) curve")
    dm = grid.m_centers[:, None] - pts[None, :, 0]
    dw = grid.w_centers[:, None] - pts[None, :, 1]

    if kind == "gaussian":
        sigma = sigma if sigma > 0 else AUTO_SIGMA_FRACTION * scale
        km = np.exp(-0.5 * (dm / sigma) ** 2)
        kw = np.exp(-0.5 * (dw / sigma) ** 2)
        density = np.einsum("ik,jk->ij", km, kw)
    elif kind == "band":
        halfwidth = halfwidth if halfwidth > 0 else AUTO_SIGMA_FRACTION * scale
        dist2 = dm[:, None, :] ** 2 + dw[None, :, :] ** 2
        density = (np.min(dist2, axis=2) <= halfwidth**2).astype(float)
        if not density.any():
            # degenerate halfwidth: keep the nearest cell per curve point
            density = np.zeros(grid.shape)
            for m, w in pts:
                i, j, _ = grid.nearest_cell(m, w)
                density[i, j] = 1.0
    else:
        raise ValueError(f"unknown prior kind {kind!r}")

    mass = float(np.sum(density) * grid.cell_area)
    if mass <= 0:
        raise ZeroEvidence("prior has zero mass on the grid")
    return PriorGrid(kind=kind, grid=grid, density=density / mass)


@dataclass(frozen=True)
class PosteriorGrid:
    x: int
    grid: Grid2D
    density: np.ndarray          # renormalized to grid mass 1
    raw: np.ndarray              # prior x likelihood, unnormalized
    evidence: float              # grid mass of raw

    def __post_init__(self):
        mass = float(np.sum(self.density) * self.grid.cell_area)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"posterior mass {mass} != 1")
        if np.any(self.density < 0):
            raise ValueError("negative posterior density")

    def joint(self, i: int, j: int) -> float:
        """Unnormalized prior x likelihood at a cell."""
        return float(self.raw[i, j])


def posterior(x: int, prior: PriorGrid, surface: RateSurface) -> PosteriorGrid:
    """Cellwise prior times Poisson likelihood of x, renormalized; the
    unnormalized product is retained for candidate comparison."""
    if prior.grid.shape != surface.grid.shape:
        raise ValueError("prior and rate surface grids differ")
    return _posterior(x, prior, next(_poisson_pmf_grids((x,), surface.lam)))


def _posterior(x: int, prior: PriorGrid, likelihood: np.ndarray) -> PosteriorGrid:
    raw = prior.density * likelihood
    mass = float(np.sum(raw) * prior.grid.cell_area)
    if mass <= 0.0:
        raise ZeroEvidence(f"likelihood of x={x} annihilates the prior")
    return PosteriorGrid(x=x, grid=prior.grid, density=raw / mass,
                         raw=raw, evidence=mass)


def build_posteriors(prior: PriorGrid, surface: RateSurface,
                     x_max: int) -> list:
    """Posteriors for every candidate count x = 1..x_max.

    Candidates whose likelihood annihilates the prior everywhere are
    dropped (they can never win the MPP argmax)."""
    if prior.grid.shape != surface.grid.shape:
        raise ValueError("prior and rate surface grids differ")
    xs = range(1, x_max + 1)
    out = []
    for x, likelihood in zip(xs, _poisson_pmf_grids(xs, surface.lam)):
        try:
            out.append(_posterior(x, prior, likelihood))
        except ZeroEvidence:
            continue
    if not out:
        raise ZeroEvidence("no candidate count has posterior support")
    return out


def curve_posteriors(curve, surface: RateSurface, cfg: Config) -> list:
    """Posteriors for x = 1..cfg.x_max under the configured prior
    (``cfg.prior``) built on the (m, w) curve."""
    prior = build_prior(cfg.prior, curve, surface.grid,
                        sigma=cfg.prior_sigma, halfwidth=cfg.band_halfwidth)
    return build_posteriors(prior, surface, cfg.x_max)


def mpp_predict(point, posteriors) -> tuple:
    """Candidate count whose posterior assigns the most support to the
    point (nearest grid cell; ties break to the smaller count).

    Candidates are compared on the common evidence scale (posterior
    density times its evidence, i.e. prior x likelihood at the cell):
    comparing per-candidate renormalized densities directly degenerates at
    the rate surface's peak, where every large candidate concentrates on
    the same cells and the argmax escapes to the largest candidate.

    Returns (count, off_grid_flag)."""
    m, w = float(point[0]), float(point[1])
    grid = posteriors[0].grid
    i, j, outside = grid.nearest_cell(m, w)
    best_x, best_d = None, -1.0
    for post in posteriors:
        d = post.joint(i, j)
        if d > best_d:
            best_x, best_d = post.x, d
    return best_x, outside


@dataclass(frozen=True)
class SeverityForecast:
    dates: tuple
    m: np.ndarray
    w: np.ndarray
    predicted: np.ndarray        # per-day predicted counts
    off_grid: tuple = ()         # dates evaluated at the nearest cell

    def __len__(self):
        return len(self.dates)


def _nearest(centers, values):
    """``argmin(abs(centers - v))`` for each v in ``values``: the first
    center at the least distance."""
    best = np.abs(centers[0] - values)
    index = np.zeros(len(values), dtype=int)
    for k in range(1, len(centers)):
        dist = np.abs(centers[k] - values)
        closer = dist < best
        index[closer] = k
        best[closer] = dist[closer]
    return index


def _mpp_days(dates, m, w, r0, posteriors,
              onset_pdf: OnsetPdf | None) -> SeverityForecast:
    """MPP count of every day's (m, w) point, or 0 on a day the onset
    density (when given) classifies Green from its (m, r0).

    ``mpp_predict`` for all days at once, its loops turned inside out:
    one pass over the grid centers finds every day's nearest cell, and
    one over the candidates keeps every day's first strict maximum."""
    pm = np.asarray(m, dtype=float)
    pw = np.asarray(w, dtype=float)
    grid = posteriors[0].grid
    i = _nearest(grid.m_centers, pm)
    j = _nearest(grid.w_centers, pw)
    lo_m, hi_m, lo_w, hi_w = grid.extent
    outside = ~((lo_m <= pm) & (pm <= hi_m) & (lo_w <= pw) & (pw <= hi_w))
    predicted = np.zeros(len(pm), dtype=int)
    best = np.full(len(pm), -1.0)
    for post in posteriors:
        joint = post.raw[i, j]
        better = joint > best
        predicted[better] = post.x
        best[better] = joint[better]
    if onset_pdf is not None:
        green = np.array([lvl is RiskLevel.GREEN
                          for lvl in classify_days(onset_pdf, m, r0)[1]],
                         dtype=bool)
        predicted[green] = 0
        outside &= ~green
    off_grid = tuple(day for day, out in zip(dates, outside.tolist()) if out)
    return SeverityForecast(dates=dates, m=m, w=w, predicted=predicted,
                            off_grid=off_grid)


def estimate_severity(traj: Trajectory, posteriors,
                      w_weights=(1.0, 0.0, 0.0),
                      onset_pdf: OnsetPdf | None = None) -> SeverityForecast:
    """MPP prediction per trajectory day.

    With an onset density supplied, days it classifies Green report 0.
    """
    return _mpp_days(traj.dates, traj.m.copy(),
                     weather_feature(traj.weather, w_weights), traj.r0,
                     posteriors, onset_pdf)


def predict_severity(weather: WeatherSeries, cases: CaseSeries, mode: str,
                     lead: int, surface: RateSurface, params: ModelParams,
                     cfg: Config, forecast_start: date | None = None,
                     k_series=None,
                     onset_pdf: OnsetPdf | None = None) -> SeverityForecast:
    """Forecast daily severity over the target period.

    Weather forecasting, K handling and simulation follow the shared
    pipeline (long-term: one annual-cycle AR rollout; short-term: iterated
    lead-day windows with actual data appended in between).  The prior is
    built from the forecast (M, W) curve and the MPP rule is applied to
    every forecast day; with an onset density supplied, Green days report
    zero.  ``cases`` completes the history interface; the fitted surface
    already encodes the observed counts.
    """
    if mode == "short_term" and lead < 1:
        return SeverityForecast((), np.array([]), np.array([]),
                                np.array([], dtype=int))
    points = forecast_points(weather, mode, lead, params, cfg,
                             forecast_start=forecast_start, k_series=k_series)
    posteriors = curve_posteriors([(p.m, p.w) for p in points], surface, cfg)
    return _mpp_days(tuple(p.date for p in points),
                     np.array([p.m for p in points]),
                     np.array([p.w for p in points]), [p.r0 for p in points],
                     posteriors, onset_pdf)


def save_severity(forecast: SeverityForecast, path) -> None:
    """Severity CSV ``date,M,W,predicted_cases``."""
    write_table(path, SEVERITY_HEADER, [forecast.dates, forecast.m, forecast.w,
                                        forecast.predicted])

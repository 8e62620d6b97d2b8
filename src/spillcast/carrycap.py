"""Estimation and prediction of the aquatic carrying capacity K.

Historical K is calibrated per calendar year with observed cases by grid
search: the level whose simulated weekly reported cases best match the
observed counts (squared error) wins, ties going to the smaller K; the
other years take the nearest calibrated year's level.  Prediction offers
day-of-year averaging across years (CLI ``--k mean``) and per-
precipitation-bin planes K = a*T + b*H + c fitted to history
(``--k plane``).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .config import STEPS_PER_DAY
from .epimodel import (
    SEED_BIRDS,
    SEED_DAY,
    CompartmentState,
    ModelParams,
    Run,
    simulate_runs,
    weekly_expected_cases_runs,
)
from .errors import (
    DegenerateBin,
    EmptyHistory,
    InsufficientData,
    NoUsableBin,
    ParseError,
)
from .ingest import (
    CaseSeries,
    WeatherSeries,
    parse_date,
    parse_float,
    read_table,
    write_table,
)

K_HEADER = ["date", "K"]


@dataclass(frozen=True)
class KSeries:
    """Per-day carrying capacity; aligned to a weather series by date."""

    dates: tuple
    values: np.ndarray
    flagged: tuple = ()   # dates where a fallback or clamp was applied

    def __post_init__(self):
        if len(self.dates) != len(self.values):
            raise ValueError("length mismatch")
        if len(self.values) and np.any(self.values < 0):
            raise ValueError("negative carrying capacity")

    def __len__(self):
        return len(self.dates)


def _complete_years(weather: WeatherSeries) -> list[int]:
    have = set(weather.dates)
    years = sorted({d.year for d in weather.dates})
    return [
        y for y in years
        if date(y, 1, 1) in have and date(y, 12, 31) in have
    ]


def calibrate_K(weather: WeatherSeries, cases: CaseSeries, params: ModelParams,
                grid, init: CompartmentState,
                steps_per_day: int = STEPS_PER_DAY,
                seed_day: int = SEED_DAY,
                seed_birds: float = SEED_BIRDS) -> KSeries:
    """Grid-search a piecewise-constant (per calendar year) K.

    Each complete calendar year with at least one observed case week is
    simulated once per candidate level from the given initial state (with
    the season-start infected-bird pulse, so the forward model actually
    produces cases); the level minimizing the squared error between
    simulated and observed weekly reported cases is selected (ties break
    to the smaller K).  Every other year, a partial edge year or a
    complete year without case weeks, inherits the nearest calibrated
    year's level (the earlier one on a tie).  A weather span with no
    complete year that has case weeks raises ``InsufficientData``.

    All years x levels go to ``simulate_runs`` as one set of runs; each
    run's trajectory is bit-identical to ``seeded_year_trajectory`` on its
    own.
    """
    grid = sorted(float(k) for k in grid)
    if not grid:
        raise InsufficientData("empty K grid")
    complete = _complete_years(weather)
    if not complete:
        raise InsufficientData("need at least one complete calendar year")
    weeks_by_year = {}
    for wk, count in zip(cases.week_starts, cases.counts):
        weeks_by_year.setdefault(wk.year, []).append((wk, int(count)))
    years = [year for year in complete if year in weeks_by_year]
    if not years:
        raise InsufficientData(
            f"no case week in the complete years {complete[0]}-{complete[-1]} "
            "of the weather to calibrate K on")

    weather_by_year = weather.year_slices()
    runs = [Run(weather_by_year[year], k, init, seed_day, seed_birds)
            for year in years for k in grid]
    predictions = iter(weekly_expected_cases_runs(
        simulate_runs(params, runs, steps_per_day=steps_per_day),
        [[w for w, _ in weeks_by_year[year]] for year in years for _ in grid]))
    chosen: dict[int, float] = {}
    for year in years:
        observed = np.array([c for _, c in weeks_by_year[year]], dtype=float)
        best_k, best_err = None, None
        for k in grid:
            predicted = next(predictions)
            err = float(np.sum((predicted - observed) ** 2))
            if best_err is None or err < best_err:
                best_k, best_err = k, err
        chosen[year] = best_k

    values = np.empty(len(weather))
    for i, d in enumerate(weather.dates):
        year = d.year
        if year not in chosen:
            year = min(chosen, key=lambda y: abs(y - d.year))
        values[i] = chosen[year]
    return KSeries(weather.dates, values)


def predict_K_mean(history: KSeries, target_year: int | None = None) -> KSeries:
    """Day-of-year pointwise mean across the historical years.

    Feb 29 averages whatever years provide it.  The output covers
    ``target_year`` (default: the year after the history ends).
    """
    if len(history) == 0:
        raise EmptyHistory("no historical K values")
    if target_year is None:
        target_year = history.dates[-1].year + 1

    by_doy: dict[tuple[int, int], list[float]] = {}
    for d, v in zip(history.dates, history.values):
        by_doy.setdefault((d.month, d.day), []).append(float(v))

    start = date(target_year, 1, 1)
    n_days = (date(target_year + 1, 1, 1) - start).days
    dates = tuple(start + timedelta(days=i) for i in range(n_days))
    values = np.empty(n_days)
    for i, d in enumerate(dates):
        vals = by_doy.get((d.month, d.day))
        if vals is None:
            # day-of-year absent from history (e.g. Feb 29): use Feb 28
            vals = by_doy.get((2, 28), [float(np.mean(history.values))])
        values[i] = np.mean(vals)
    return KSeries(dates, values)


@dataclass(frozen=True)
class PlaneModel:
    """Per-precipitation-bin planes K = a*T + b*H + c.

    Bin i covers precipitation in [edges[i], edges[i+1]); coefficient rows
    are NaN where a bin has fewer than three samples (unusable).
    """

    edges: np.ndarray            # len n_bins + 1
    coeffs: np.ndarray           # (n_bins, 3) rows (a, b, c)
    counts: np.ndarray           # samples per bin

    @property
    def usable(self) -> np.ndarray:
        return ~np.isnan(self.coeffs[:, 0])


def quantile_edges(precip, n_bins: int = 4) -> np.ndarray:
    """Default precipitation binning: quantile edges over the data."""
    p = np.asarray(precip, dtype=float)
    edges = np.quantile(p, np.linspace(0.0, 1.0, n_bins + 1))
    # widen the outer edges so every sample falls inside a bin
    edges[0] -= 1e-9
    edges[-1] += 1e-9
    return edges


def fit_plane(samples, bins) -> PlaneModel:
    """Least-squares plane fit per precipitation bin.

    ``samples`` is an iterable of (T, H, P, K) tuples.  Bins with fewer
    than 3 samples are marked unusable; a bin whose (T, H) design is rank
    deficient raises DegenerateBin.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("samples must be (T, H, P, K) tuples")
    edges = np.asarray(bins, dtype=float)
    n_bins = len(edges) - 1
    if n_bins < 1:
        raise ValueError("need at least two bin edges")

    which = np.clip(np.searchsorted(edges, arr[:, 2], side="right") - 1, 0, n_bins - 1)
    # samples outside the outer edges do not belong to any bin
    inside = (arr[:, 2] >= edges[0]) & (arr[:, 2] <= edges[-1])

    coeffs = np.full((n_bins, 3), np.nan)
    counts = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        sel = arr[(which == b) & inside]
        counts[b] = len(sel)
        if len(sel) < 3:
            continue
        design = np.column_stack([sel[:, 0], sel[:, 1], np.ones(len(sel))])
        if np.linalg.matrix_rank(design) < 3:
            raise DegenerateBin(
                f"bin {b} [{edges[b]:g}, {edges[b + 1]:g}) has a collinear design"
            )
        beta, *_ = np.linalg.lstsq(design, sel[:, 3], rcond=None)
        coeffs[b] = beta
    return PlaneModel(edges=edges, coeffs=coeffs, counts=counts)


def predict_K_plane(model: PlaneModel, forecast: WeatherSeries) -> KSeries:
    """Evaluate the per-bin plane on forecast weather, clamping K at 0.

    Days whose precipitation falls in no usable bin use the nearest usable
    bin (by bin center); such days and clamped days are flagged, each date
    once.
    """
    usable = np.nonzero(model.usable)[0]
    if len(usable) == 0:
        raise NoUsableBin("plane model has no usable precipitation bin")
    centers = (model.edges[:-1] + model.edges[1:]) / 2.0
    n_bins = len(centers)

    p = np.asarray(forecast.precip, dtype=float)
    outside = (p < model.edges[0]) | (p > model.edges[-1])
    b = np.clip(np.searchsorted(model.edges, p, side="right") - 1, 0, n_bins - 1)
    fallback = outside | ~model.usable[b]
    if fallback.any():
        nearest = usable[np.argmin(np.abs(centers[usable] - p[:, None]), axis=1)]
        b = np.where(fallback, nearest, b)
    a, bb, c = model.coeffs[b].T
    k = a * forecast.temp_mean + bb * forecast.humidity + c
    clamped = k < 0.0
    flagged = tuple(map(forecast.dates.__getitem__,
                        np.flatnonzero(fallback | clamped).tolist()))
    return KSeries(forecast.dates, np.where(clamped, 0.0, k), flagged)


def save_k(series: KSeries, path) -> None:
    write_table(path, K_HEADER, [series.dates, series.values])


def load_k(path) -> KSeries:
    dates, values = [], []
    for lineno, fields in read_table(path, K_HEADER):
        dates.append(parse_date(fields[0], lineno))
        values.append(parse_float(fields[1], "K", lineno))
        if values[-1] < 0.0:
            raise ParseError(f"negative K value {fields[1]!r}", lineno)
    return KSeries(tuple(dates), np.array(values))

"""Deterministic synthetic world for tests and the packaged fixture.

The weather is a seasonal sinusoid plus seeded AR(1) day-scale noise and a
small non-trending per-year temperature offset (so yearly onset samples do
not coincide and the annual-cycle forecast cannot simply replay a trend).
Cases come from the model itself: each year is simulated disease-free
through early spring, a pulse of infected birds is introduced at the start
of the transmission season, and the run continues to December; expected
weekly reported cases are rounded to integer counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .carrycap import KSeries, save_k
from .config import Config, dump_config
from .epimodel import (
    SEED_BIRDS,
    SEED_DAY,
    ModelParams,
    Run,
    default_init_state,
    simulate_runs,
)
from .ingest import CaseSeries, WeatherSeries, save_cases, save_weather

# per-year temperature offsets (degC); zero by default so the target year
# stays inside the training climate envelope
YEAR_OFFSETS = (0.0,) * 8

DEFAULT_SEED = 3
DEFAULT_NOISE_SIGMA = 1.1


def _ar1_noise(rng, n, sigma, rho=0.7):
    eps = rng.normal(0.0, sigma * math.sqrt(1.0 - rho * rho), n)
    out = np.empty(n)
    prev = 0.0
    for i in range(n):
        prev = rho * prev + eps[i]
        out[i] = prev
    return out


def seasonal_weather(start_year: int, n_years: int,
                     temp_base: float = 17.0, temp_amp: float = 9.0,
                     warming_per_year: float = 0.0,
                     year_offsets=YEAR_OFFSETS,
                     noise_sigma: float = DEFAULT_NOISE_SIGMA,
                     seed: int = DEFAULT_SEED) -> WeatherSeries:
    """Sinusoidal annual climate with seeded AR(1) day-scale noise."""
    start = date(start_year, 1, 1)
    n = (date(start_year + n_years, 1, 1) - start).days
    dates = tuple(start + timedelta(days=i) for i in range(n))
    rng = np.random.default_rng(seed)
    doy = np.array([(d - date(d.year, 1, 1)).days for d in dates], dtype=float)
    years = np.array([d.year - start_year for d in dates], dtype=float)
    offsets = np.array(
        [year_offsets[int(y) % len(year_offsets)] if year_offsets else 0.0
         for y in years]
    )

    season = np.sin(2.0 * np.pi * (doy - 110.0) / 365.25)
    temp = (
        temp_base + offsets + warming_per_year * years + temp_amp * season
        + _ar1_noise(rng, n, noise_sigma)
    )
    humidity = np.clip(
        65.0 - 10.0 * season + _ar1_noise(rng, n, 2.5),
        0.0, 100.0,
    )
    precip = np.maximum(
        2.0 + 1.8 * np.sin(2.0 * np.pi * (doy + 60.0) / 365.25)
        + _ar1_noise(rng, n, 1.2),
        0.0,
    )
    return WeatherSeries(dates, np.round(temp, 3), np.round(humidity, 3),
                         np.round(precip, 3))


@dataclass(frozen=True)
class SynthWorld:
    cfg: Config
    weather: WeatherSeries
    cases: CaseSeries
    trajectories: dict          # year -> seeded Trajectory (the generator's)
    k_star: float


def default_config(k_star: float = 5000.0) -> Config:
    """Fixture configuration: package defaults with the generator's K, no
    January seed (pipeline trajectories stay exactly disease-free), and
    explicit onset bandwidths (the Silverman rule is unreliable on the
    fixture's three training samples)."""
    return Config(
        k_default=k_star,
        init_infected_birds=0.0,
        onset_bandwidth_m=150.0,
        onset_bandwidth_r0=80.0,
    )


def generate_world(cfg: Config | None = None, start_year: int = 2019,
                   n_years: int = 4, k_star: float = 5000.0,
                   seed_day: int = SEED_DAY,
                   seed_birds: float = SEED_BIRDS,
                   warming_per_year: float = 0.0,
                   seed: int = DEFAULT_SEED) -> SynthWorld:
    """Weather, model-generated weekly cases and per-year trajectories."""
    if cfg is None:
        cfg = default_config(k_star)
    params = ModelParams.from_config(cfg)
    weather = seasonal_weather(start_year, n_years,
                               warming_per_year=warming_per_year, seed=seed)

    init = default_init_state(cfg)
    runs = {year: Run(wx_year, k_star, init, seed_day, seed_birds)
            for year, wx_year in weather.year_slices().items()}
    trajectories = dict(zip(runs, simulate_runs(
        params, runs.values(), steps_per_day=cfg.steps_per_day)))
    daily_cases: dict[date, float] = {}
    for traj in trajectories.values():
        for d, v in zip(traj.dates, traj.new_infections):
            daily_cases[d] = float(v)

    first = weather.dates[0]
    last = weather.dates[-1]
    week_starts = []
    wk = first
    while wk + timedelta(days=6) <= last:
        week_starts.append(wk)
        wk += timedelta(days=7)
    counts = np.array(
        [
            int(round(sum(daily_cases.get(w + timedelta(days=i), 0.0)
                          for i in range(7))))
            for w in week_starts
        ],
        dtype=int,
    )
    cases = CaseSeries(tuple(week_starts), counts)
    return SynthWorld(cfg=cfg, weather=weather, cases=cases,
                      trajectories=trajectories, k_star=k_star)


def write_fixture(directory, world: SynthWorld | None = None) -> dict:
    """Write weather.csv, cases.csv and config.ini for CLI-level tests."""
    if world is None:
        world = generate_world()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "weather": directory / "weather.csv",
        "cases": directory / "cases.csv",
        "config": directory / "config.ini",
        "k": directory / "k.csv",
    }
    save_weather(world.weather, paths["weather"])
    save_cases(world.cases, paths["cases"])
    paths["config"].write_text(dump_config(world.cfg))
    save_k(KSeries(world.weather.dates,
                   np.full(len(world.weather), world.k_star)), paths["k"])
    return paths

"""Temperature-driven compartmental model for mosquitoes, birds and humans.

Mosquitoes follow an egg -> aquatic -> adult chain with a logistic cap K on
aquatic recruitment, plus SEI disease states (no recovery: adult lifespan
is shorter than the recovery time).  Birds follow egg -> fledgling -> adult
with SEIR disease states and extra disease-induced mortality.  Humans are
SEIR dead-end hosts: they receive infection but transmit nothing, so the
human population is closed.

Transmission is frequency-dependent: per-capita contact rates are divided
by the adult bird population (bird-mediated terms) or the human population
(spillover term).

Integration is fixed-step RK4 (default 24 steps/day) with daily sampling
at midnight; per-day temperature and carrying capacity are held constant
across the day.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import timedelta

import numpy as np

from . import r0 as r0mod
from .config import Config
from .errors import BlowUp, LengthMismatch, NonFiniteInput
from .ingest import WeatherSeries
from .thermal import eval_thermal

BLOWUP_LIMIT = 1e12
_DAY = timedelta(days=1)

COMPARTMENTS = (
    "H_S", "H_E", "H_I", "H_R",
    "E_M", "A_M", "M_S", "M_E", "M_I",
    "E_B", "F_B", "B_S", "B_E", "B_I", "B_R",
)

# thermal-rate keys in the order consumed by the RHS
_RATE_KEYS = (
    "egg_laying", "aquatic_dev", "aquatic_mort", "adult_mort", "pdr",
    "beta_b_to_m", "beta_m_to_b", "beta_m_to_h",
    "bird_egg_laying", "bird_maturation", "bird_mort",
    "bird_incubation", "bird_recovery", "bird_wnd_mort",
    "human_incubation", "human_recovery",
)


@dataclass(frozen=True)
class ModelParams:
    """One ThermalCurve per model rate plus the reporting fraction rho."""

    rates: dict
    rho: float = 1.0

    def __post_init__(self):
        missing = [k for k in _RATE_KEYS if k not in self.rates]
        if missing:
            raise ValueError(f"missing rate curves: {missing}")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho {self.rho} not in (0, 1]")

    @classmethod
    def from_config(cls, cfg: Config) -> "ModelParams":
        return cls(rates=dict(cfg.rates), rho=cfg.rho)

    def daily_rates(self, temp: float) -> tuple:
        """Evaluate every rate curve at one temperature."""
        return tuple(eval_thermal(self.rates[k], temp) for k in _RATE_KEYS)


@dataclass(frozen=True)
class CompartmentState:
    """Population state; every compartment is a nonnegative count."""

    H_S: float = 0.0
    H_E: float = 0.0
    H_I: float = 0.0
    H_R: float = 0.0
    E_M: float = 0.0
    A_M: float = 0.0
    M_S: float = 0.0
    M_E: float = 0.0
    M_I: float = 0.0
    E_B: float = 0.0
    F_B: float = 0.0
    B_S: float = 0.0
    B_E: float = 0.0
    B_I: float = 0.0
    B_R: float = 0.0

    def __post_init__(self):
        for name in COMPARTMENTS:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise NonFiniteInput(f"{name} = {v}")
            if v < 0.0:
                raise ValueError(f"{name} = {v} < 0")

    def as_list(self) -> list:
        return [float(getattr(self, name)) for name in COMPARTMENTS]

    @classmethod
    def from_values(cls, values) -> "CompartmentState":
        return cls(**dict(zip(COMPARTMENTS, map(float, values))))


def default_init_state(cfg: Config) -> CompartmentState:
    """Standard starting point: everyone susceptible except a configured
    seed of infected birds."""
    seed = min(cfg.init_infected_birds, cfg.n_birds)
    return CompartmentState(
        H_S=cfg.n_humans,
        A_M=cfg.init_aquatic,
        M_S=cfg.init_adult_mosquitoes,
        B_S=cfg.n_birds - seed,
        B_I=seed,
    )


def _rhs(y, rates, k_cap):
    """Right-hand side of the ODE system; y has 16 entries, the last being
    cumulative new human infections."""
    (h_s, h_e, h_i, h_r,
     e_m, a_m, m_s, m_e, m_i,
     e_b, f_b, b_s, b_e, b_i, b_r, _) = y
    (phi_m, nu_m, mu_a, mu_m, pdr,
     b_bm, b_mb, b_mh,
     phi_b, mat_b, mu_b, delta_b, lam_b, mu_wb,
     eps_h, gam_h) = rates

    n_b = b_s + b_e + b_i + b_r
    n_h = h_s + h_e + h_i + h_r
    m_tot = m_s + m_e + m_i

    foi_m = b_bm * b_i / n_b if n_b > 0.0 else 0.0
    foi_b = b_mb * m_i / n_b if n_b > 0.0 else 0.0
    foi_h = b_mh * m_i / n_h if n_h > 0.0 else 0.0

    room = 1.0 - a_m / k_cap
    recruit = nu_m * e_m * (room if room > 0.0 else 0.0)

    new_h = foi_h * h_s

    return (
        -new_h,
        new_h - eps_h * h_e,
        eps_h * h_e - gam_h * h_i,
        gam_h * h_i,
        phi_m * m_tot - (nu_m + mu_a) * e_m,
        recruit - (nu_m + mu_a) * a_m,
        nu_m * a_m - foi_m * m_s - mu_m * m_s,
        foi_m * m_s - (pdr + mu_m) * m_e,
        pdr * m_e - mu_m * m_i,
        phi_b * n_b - (mat_b + mu_b) * e_b,
        mat_b * e_b - (mat_b + mu_b) * f_b,
        mat_b * f_b - foi_b * b_s - mu_b * b_s,
        foi_b * b_s - (delta_b + mu_b) * b_e,
        delta_b * b_e - (lam_b + mu_wb + mu_b) * b_i,
        lam_b * b_i - mu_b * b_r,
        new_h,
    )


class StateDerivative:
    """d(state)/dt with one attribute per compartment (values may be
    negative, unlike CompartmentState)."""

    __slots__ = COMPARTMENTS

    def __init__(self, values):
        for name, value in zip(COMPARTMENTS, values):
            setattr(self, name, float(value))

    def as_list(self) -> list:
        return [getattr(self, name) for name in COMPARTMENTS]


def derivatives(state: CompartmentState, params: ModelParams, temp: float,
                k_cap: float) -> StateDerivative:
    """Time derivative of the state at temperature ``temp`` and aquatic
    carrying capacity ``k_cap`` (> 0)."""
    if not math.isfinite(temp) or not math.isfinite(k_cap) or k_cap <= 0.0:
        raise NonFiniteInput(f"temp={temp}, K={k_cap}")
    y = state.as_list() + [0.0]
    return StateDerivative(_rhs(y, params.daily_rates(temp), k_cap))


@dataclass(frozen=True)
class Trajectory:
    """Daily model output aligned to the driving weather series."""

    dates: tuple
    states: np.ndarray          # (n_days, 15), order COMPARTMENTS
    m: np.ndarray               # adult mosquito profile M_S + M_E + M_I
    r0: np.ndarray
    new_infections: np.ndarray  # expected reported cases per day (rho applied)
    weather: WeatherSeries
    clamp_count: int = 0
    end_state: CompartmentState | None = None  # state after the last day

    def __post_init__(self):
        if len(self.dates) != len(self.weather):
            raise LengthMismatch("trajectory and weather differ in length")
        if np.any(self.m < 0) or np.any(self.r0 < 0):
            raise ValueError("negative M or R0")

    def __len__(self):
        return len(self.dates)

    def state(self, i: int) -> CompartmentState:
        return CompartmentState.from_values(self.states[i])


def r0_inputs_for_day(params: ModelParams, temp: float, m_s: float,
                      b_s: float) -> r0mod.R0Inputs:
    """Assemble the reproduction-number inputs from one day's thermal rates
    and susceptible counts."""
    rates = params.rates
    return r0mod.R0Inputs(
        beta_b_to_m=eval_thermal(rates["beta_b_to_m"], temp),
        delta_b=eval_thermal(rates["bird_incubation"], temp),
        mu_b=eval_thermal(rates["bird_mort"], temp),
        lambda_b=eval_thermal(rates["bird_recovery"], temp),
        mu_wnd_b=eval_thermal(rates["bird_wnd_mort"], temp),
        beta_m_to_b=eval_thermal(rates["beta_m_to_b"], temp),
        pdr=eval_thermal(rates["pdr"], temp),
        mu_m=eval_thermal(rates["adult_mort"], temp),
        m_s=m_s,
        b_s=b_s,
    )


def simulate(params: ModelParams, weather: WeatherSeries, k_series,
             init: CompartmentState, steps_per_day: int = 24) -> Trajectory:
    """Integrate the model over the weather span.

    ``k_series`` is the per-day carrying capacity, aligned with the weather
    (a scalar is broadcast).  Day i reports the state at its first midnight;
    expected new human infections are accumulated across the day and scaled
    by rho.  Negative excursions are clamped to zero and counted.

    The state after the last day is returned as ``end_state``; passing it
    as ``init`` to the next span continues the run exactly, because no
    compartment reads the cumulative-infection accumulator that restarts
    at zero.  A non-finite end state raises NonFiniteInput.
    """
    n = len(weather)
    k_arr = np.asarray(
        k_series if np.ndim(k_series) else np.full(n, float(k_series)), dtype=float
    )
    if len(k_arr) != n:
        raise LengthMismatch(f"K series length {len(k_arr)} != weather length {n}")
    if np.any(k_arr <= 0) or not np.all(np.isfinite(k_arr)):
        raise NonFiniteInput("carrying capacity must be finite and > 0")

    h = 1.0 / steps_per_day
    y = init.as_list() + [0.0]
    states = np.empty((n, 15))
    m_prof = np.empty(n)
    r0_daily = np.empty(n)
    new_inf = np.empty(n)
    clamps = 0

    for i in range(n):
        states[i] = y[:15]
        m_prof[i] = y[6] + y[7] + y[8]
        temp = float(weather.temp_mean[i])
        r0_daily[i] = r0mod.r0(r0_inputs_for_day(params, temp, y[6], y[11]))

        rates = params.daily_rates(temp)
        k_cap = float(k_arr[i])
        cum_before = y[15]
        for _ in range(steps_per_day):
            k1 = _rhs(y, rates, k_cap)
            y2 = [a + 0.5 * h * b for a, b in zip(y, k1)]
            k2 = _rhs(y2, rates, k_cap)
            y3 = [a + 0.5 * h * b for a, b in zip(y, k2)]
            k3 = _rhs(y3, rates, k_cap)
            y4 = [a + h * b for a, b in zip(y, k3)]
            k4 = _rhs(y4, rates, k_cap)
            y = [
                a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
            ]
            for j in range(15):
                if y[j] < 0.0:
                    y[j] = 0.0
                    clamps += 1
        new_inf[i] = params.rho * (y[15] - cum_before)
        if any(v > BLOWUP_LIMIT for v in y):
            raise BlowUp(f"compartment exceeded {BLOWUP_LIMIT:g} on {weather.dates[i]}")

    return Trajectory(
        dates=weather.dates,
        states=states,
        m=m_prof,
        r0=r0_daily,
        new_infections=new_inf,
        weather=weather,
        clamp_count=clamps,
        end_state=CompartmentState.from_values(y[:15]),
    )


def weekly_expected_cases(traj: Trajectory, week_starts) -> np.ndarray:
    """Expected reported cases summed over each week starting at the given
    dates; days outside the trajectory contribute zero."""
    by_date = dict(zip(traj.dates, traj.new_infections))
    totals = np.zeros(len(week_starts))
    for j, start in enumerate(week_starts):
        totals[j] = sum(by_date.get(start + _DAY * d, 0.0) for d in range(7))
    return totals


# A January pulse of infected birds decays away long before the
# transmission season in a deterministic ODE, so case-producing yearly runs
# seed the pulse at the season start instead.
SEED_DAY = 90
SEED_BIRDS = 20.0


def seeded_year_trajectory(params: ModelParams, weather_year: WeatherSeries,
                           k_series, init: CompartmentState,
                           seed_day: int = SEED_DAY,
                           seed_birds: float = SEED_BIRDS,
                           steps_per_day: int = 24) -> Trajectory:
    """Simulate one year, moving ``seed_birds`` susceptible birds to the
    infectious compartment at the start of day ``seed_day``."""
    n = len(weather_year)
    k_arr = np.asarray(
        k_series if np.ndim(k_series) else np.full(n, float(k_series)),
        dtype=float,
    )
    if len(k_arr) != n:
        raise LengthMismatch("K series and weather differ in length")
    seed_day = min(max(int(seed_day), 0), n - 1)

    pre = simulate(params, weather_year.slice(0, seed_day),
                   k_arr[:seed_day], init, steps_per_day=steps_per_day)
    state = pre.end_state
    moved = min(seed_birds, state.B_S)
    seeded = replace(state, B_S=state.B_S - moved, B_I=state.B_I + moved)
    post = simulate(params, weather_year.slice(seed_day, n),
                    k_arr[seed_day:], seeded, steps_per_day=steps_per_day)
    return Trajectory(
        dates=weather_year.dates,
        states=np.vstack([pre.states, post.states]),
        m=np.concatenate([pre.m, post.m]),
        r0=np.concatenate([pre.r0, post.r0]),
        new_infections=np.concatenate([pre.new_infections,
                                       post.new_infections]),
        weather=weather_year,
        clamp_count=pre.clamp_count + post.clamp_count,
        end_state=post.end_state,
    )


def save_trajectory(traj: Trajectory, path) -> None:
    """Trajectory CSV: date, M, R0, expected new reported cases, then one
    column per compartment."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "M", "R0", "H_new_cases", *COMPARTMENTS])
        for i, d in enumerate(traj.dates):
            writer.writerow(
                [d.isoformat(), repr(float(traj.m[i])), repr(float(traj.r0[i])),
                 repr(float(traj.new_infections[i]))]
                + [repr(float(v)) for v in traj.states[i]]
            )

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

``simulate_runs`` is the one runner, for any set of independent runs (K
grid x years, the years of an archive, a forecast's windows), each with its
own weather, K, start state and optional seed pulse; ``simulate`` is it with
one run.  Days advance through ``spillcast_advance`` in ``_rk4.c``, a C
port of the day loop that the first simulation of a process compiles and
caches in ``__pycache__``.  It keeps the operation order of ``_advance``,
the straight-line Python loop, which is the oracle and the fallback when no
C compiler is available (``kernel()`` tells which is in use).  ``_advance``
holds the state in local floats, writes the four RK4 stages out and
evaluates the right-hand side through ``_day_rhs``, a function of the
compartments built once per day from that day's rates and K; the same
rates give the day's R0.  Either loop keeps every guard (force-of-infection
and recruitment guards, negative clamp and its count, r0's
zero-denominator rule, BlowUp), so the two give the same floats bit for
bit and raise the same errors on the same day.

The compiled loop runs up to eight runs side by side, one per lane of a
vector (512-bit with AVX-512F, else 256-bit with AVX2, else 128-bit
pairs), each lane with its own rates, K, state, outputs and clamp count; a
single run takes a one-lane copy of the same source.  ``simulate_runs``
sends its runs there eight at a time, grouped by length and pulse day, and
runs these chunks one after another on the calling thread.  If any lane
fails, a width-1 pass simulates the runs again one at a time, so the error
raised is always that of the first failing run, as without lanes.

A day on which every lane of a call is disease-free (the infection
compartments and the accumulator at +0.0 bit for bit, H_S finite and > 0,
every rate and loss-rate sum finite with its sign bit clear) goes through
the compiled loop's disease-free body: the same RK4 steps on the six
compartments that move (E_M, A_M, M_S, E_B, F_B, B_S), with each dead
input a literal +0.0, which is exact.  If M_S or B_S turned non-finite
within the day, the day is run again in the full body.  The warming
trend's runs, and seeded runs up to their pulse, take it on every day;
``_kernel_advance`` returns each run's count of such days.  ``_advance``
has no such shortcut.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .config import DEFAULT_THERMAL, STEPS_PER_DAY, Config
from .errors import (
    BlowUp,
    LengthMismatch,
    NonFiniteInput,
    NumericalError,
    ZeroDenominator,
)
from .ingest import WeatherSeries, _unchecked, write_table
from .r0 import DENOMINATOR_UNDERFLOW, R0Inputs, r0
from .thermal import eval_thermal, eval_thermal_array

BLOWUP_LIMIT = 1e12

COMPARTMENTS = (
    "H_S", "H_E", "H_I", "H_R",
    "E_M", "A_M", "M_S", "M_E", "M_I",
    "E_B", "F_B", "B_S", "B_E", "B_I", "B_R",
)

# thermal-rate keys in the order consumed by the RHS
_RATE_KEYS = tuple(DEFAULT_THERMAL)


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


def _check_state(values) -> None:
    """Raise what ``CompartmentState.from_values(values)`` raises, for the
    15 Python floats of a state that the day loop or the pulse computed.
    A finite sum rules out NaN and inf, and then the minimum tells a
    negative value, so only a state that fails that test (or whose sum
    overflows) takes the per-field check."""
    total = sum(values)
    if not (total - total == 0.0 and min(values) >= 0.0):
        CompartmentState.from_values(values)


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


def _day_rhs(rates, k_cap: float):
    """The right-hand side of the ODE system for one day's thermal rates
    (in ``_RATE_KEYS`` order) and carrying capacity.

    Returns a function of the 15 compartments, in COMPARTMENTS order, that
    returns their 15 derivatives followed by the rate of new human
    infections (the derivative of the cumulative-infection accumulator).
    The loss-rate sums are formed once here, with the expressions
    ``day_init`` in ``_rk4.c`` uses."""
    (phi_m, nu_m, mu_a, mu_m, pdr,
     b_bm, b_mb, b_mh,
     phi_b, mat_b, mu_b, delta_b, lam_b, mu_wb,
     eps_h, gam_h) = rates
    aquatic_out = nu_m + mu_a
    m_e_out = pdr + mu_m
    bird_young_out = mat_b + mu_b
    b_e_out = delta_b + mu_b
    b_i_out = lam_b + mu_wb + mu_b

    def rhs(h_s, h_e, h_i, h_r, e_m, a_m, m_s, m_e, m_i,
            e_b, f_b, b_s, b_e, b_i, b_r):
        n_b = b_s + b_e + b_i + b_r
        n_h = h_s + h_e + h_i + h_r
        if n_b > 0.0:
            foi_m = b_bm * b_i / n_b
            foi_b = b_mb * m_i / n_b
        else:
            foi_m = foi_b = 0.0
        foi_h = b_mh * m_i / n_h if n_h > 0.0 else 0.0
        room = 1.0 - a_m / k_cap
        new_h = foi_h * h_s
        return (
            -new_h,
            new_h - eps_h * h_e,
            eps_h * h_e - gam_h * h_i,
            gam_h * h_i,
            phi_m * (m_s + m_e + m_i) - aquatic_out * e_m,
            nu_m * e_m * (room if room > 0.0 else 0.0) - aquatic_out * a_m,
            nu_m * a_m - foi_m * m_s - mu_m * m_s,
            foi_m * m_s - m_e_out * m_e,
            pdr * m_e - mu_m * m_i,
            phi_b * n_b - bird_young_out * e_b,
            mat_b * e_b - bird_young_out * f_b,
            mat_b * f_b - foi_b * b_s - mu_b * b_s,
            foi_b * b_s - b_e_out * b_e,
            delta_b * b_e - b_i_out * b_i,
            lam_b * b_i - mu_b * b_r,
            new_h,
        )

    return rhs


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
    rhs = _day_rhs(params.daily_rates(temp), k_cap)
    return StateDerivative(rhs(*state.as_list())[:15])


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


def _r0_inputs(rates, m_s: float, b_s: float) -> R0Inputs:
    """R0 inputs from one day's rates in ``_RATE_KEYS`` order."""
    (_, _, _, mu_m, pdr, b_bm, b_mb, _,
     _, _, mu_b, delta_b, lam_b, mu_wb, _, _) = rates
    return R0Inputs(
        beta_b_to_m=b_bm, delta_b=delta_b, mu_b=mu_b, lambda_b=lam_b,
        mu_wnd_b=mu_wb, beta_m_to_b=b_mb, pdr=pdr, mu_m=mu_m,
        m_s=m_s, b_s=b_s)


def _k_array(k_series, n: int) -> np.ndarray:
    """Per-day carrying capacity for an n-day span (a scalar is
    broadcast); it must be finite and > 0."""
    k_arr = np.asarray(
        k_series if np.ndim(k_series) else np.full(n, float(k_series)), dtype=float
    )
    if len(k_arr) != n:
        raise LengthMismatch(f"K series length {len(k_arr)} != weather length {n}")
    if not ((k_arr > 0.0) & (k_arr < math.inf)).all():  # NaN fails both
        raise NonFiniteInput("carrying capacity must be finite and > 0")
    return k_arr


def _rate_rows(params: ModelParams, temps) -> np.ndarray:
    """The thermal rates of each temperature, one row each in
    ``_RATE_KEYS`` order, written column by column into one array."""
    rows = np.empty((len(temps), len(_RATE_KEYS)))
    for j, key in enumerate(_RATE_KEYS):
        rows[:, j] = eval_thermal_array(params.rates[key], temps)
    return rows


def _shared_rates(params: ModelParams, runs: list) -> tuple:
    """The thermal rates of a set of runs: one (n, 16) array over the days
    of each distinct WeatherSeries object in turn, and each run's first
    row in it.  Runs on one weather object share its rows."""
    first, temps, total = {}, [], 0
    for run in runs:
        if id(run.weather) not in first:
            first[id(run.weather)] = total
            temps.append(run.weather.temp_mean)
            total += len(run.weather)
    return (_rate_rows(params, np.concatenate(temps)),
            [first[id(run.weather)] for run in runs])


def _advance(params: ModelParams, weather: WeatherSeries, rates, k_arr,
             y: list, steps_per_day: int, lo: int, hi: int,
             out: tuple) -> tuple:
    """Integrate days [lo, hi) from the 16-entry state ``y`` (the last
    entry is the cumulative-infection accumulator), writing day i into row
    i of ``out`` = (states, m, r0, new_infections); row i of ``rates`` holds
    day i's thermal rates in ``_RATE_KEYS`` order.  Returns the state after
    day hi - 1 and the number of clamped values.

    The state lives in local floats and the four RK4 stages are written
    out with ``half = 0.5 * h`` and ``sixth = h / 6.0``, the factors that
    ``0.5 * h * k`` and ``h / 6.0 * (...)`` form in a list-based RK4, so
    every float equals that loop's (tests/test_epimodel.py keeps it as the
    oracle)."""
    states, m_prof, r0_daily, new_inf = out
    rho = params.rho
    h = 1.0 / steps_per_day
    half = 0.5 * h
    sixth = h / 6.0
    clamps = 0

    for i, day_rates, k_cap in zip(range(lo, hi), rates[lo:hi].tolist(),
                                   k_arr[lo:hi].tolist()):
        states[i] = y[:15]
        m_prof[i] = y[6] + y[7] + y[8]
        r0_daily[i] = r0(_r0_inputs(day_rates, y[6], y[11]))
        rhs = _day_rhs(day_rates, k_cap)

        (h_s, h_e, h_i, h_r, e_m, a_m, m_s, m_e, m_i,
         e_b, f_b, b_s, b_e, b_i, b_r, cum) = y
        cum_before = cum
        for _ in range(steps_per_day):
            k1 = rhs(h_s, h_e, h_i, h_r, e_m, a_m, m_s, m_e, m_i,
                     e_b, f_b, b_s, b_e, b_i, b_r)
            k2 = rhs(h_s + half * k1[0], h_e + half * k1[1],
                     h_i + half * k1[2], h_r + half * k1[3],
                     e_m + half * k1[4], a_m + half * k1[5],
                     m_s + half * k1[6], m_e + half * k1[7],
                     m_i + half * k1[8], e_b + half * k1[9],
                     f_b + half * k1[10], b_s + half * k1[11],
                     b_e + half * k1[12], b_i + half * k1[13],
                     b_r + half * k1[14])
            k3 = rhs(h_s + half * k2[0], h_e + half * k2[1],
                     h_i + half * k2[2], h_r + half * k2[3],
                     e_m + half * k2[4], a_m + half * k2[5],
                     m_s + half * k2[6], m_e + half * k2[7],
                     m_i + half * k2[8], e_b + half * k2[9],
                     f_b + half * k2[10], b_s + half * k2[11],
                     b_e + half * k2[12], b_i + half * k2[13],
                     b_r + half * k2[14])
            k4 = rhs(h_s + h * k3[0], h_e + h * k3[1],
                     h_i + h * k3[2], h_r + h * k3[3],
                     e_m + h * k3[4], a_m + h * k3[5],
                     m_s + h * k3[6], m_e + h * k3[7],
                     m_i + h * k3[8], e_b + h * k3[9],
                     f_b + h * k3[10], b_s + h * k3[11],
                     b_e + h * k3[12], b_i + h * k3[13],
                     b_r + h * k3[14])
            h_s += sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            h_e += sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            h_i += sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
            h_r += sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
            e_m += sixth * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4])
            a_m += sixth * (k1[5] + 2.0 * k2[5] + 2.0 * k3[5] + k4[5])
            m_s += sixth * (k1[6] + 2.0 * k2[6] + 2.0 * k3[6] + k4[6])
            m_e += sixth * (k1[7] + 2.0 * k2[7] + 2.0 * k3[7] + k4[7])
            m_i += sixth * (k1[8] + 2.0 * k2[8] + 2.0 * k3[8] + k4[8])
            e_b += sixth * (k1[9] + 2.0 * k2[9] + 2.0 * k3[9] + k4[9])
            f_b += sixth * (k1[10] + 2.0 * k2[10] + 2.0 * k3[10] + k4[10])
            b_s += sixth * (k1[11] + 2.0 * k2[11] + 2.0 * k3[11] + k4[11])
            b_e += sixth * (k1[12] + 2.0 * k2[12] + 2.0 * k3[12] + k4[12])
            b_i += sixth * (k1[13] + 2.0 * k2[13] + 2.0 * k3[13] + k4[13])
            b_r += sixth * (k1[14] + 2.0 * k2[14] + 2.0 * k3[14] + k4[14])
            cum += sixth * (k1[15] + 2.0 * k2[15] + 2.0 * k3[15] + k4[15])
            # min() skips NaNs after its first argument and returns NaN if
            # that one is NaN, so "not >= 0" holds whenever some value is
            # below zero; the clamp itself then goes value by value.
            if not min(h_s, h_e, h_i, h_r, e_m, a_m, m_s, m_e, m_i,
                       e_b, f_b, b_s, b_e, b_i, b_r) >= 0.0:
                y = [h_s, h_e, h_i, h_r, e_m, a_m, m_s, m_e, m_i,
                     e_b, f_b, b_s, b_e, b_i, b_r]
                for j in range(15):
                    if y[j] < 0.0:
                        y[j] = 0.0
                        clamps += 1
                (h_s, h_e, h_i, h_r, e_m, a_m, m_s, m_e, m_i,
                 e_b, f_b, b_s, b_e, b_i, b_r) = y
        y = [h_s, h_e, h_i, h_r, e_m, a_m, m_s, m_e, m_i,
             e_b, f_b, b_s, b_e, b_i, b_r, cum]
        new_inf[i] = rho * (cum - cum_before)
        if any(v > BLOWUP_LIMIT for v in y):
            raise BlowUp(f"compartment exceeded {BLOWUP_LIMIT:g} on {weather.dates[i]}")
    return y, clamps


# --- the compiled day loop ---------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("_rk4.c")
_KERNEL_DIR = Path(__file__).with_name("__pycache__")
# -ffp-contract=off: no fused multiply-add, so every operation rounds as
# Python's does; -ffast-math and -march=native stay out for the same reason.
# -fpeel-loops unrolls the 16-entry loops of the lane body in full, which
# makes the lanes about 18% faster per run-day; -fno-tree-slp-vectorize
# then keeps GCC from packing the unrolled one-lane body into 2-wide
# vectors, which made a single run about 18% slower.
_KERNEL_FLAGS = ("-O2", "-fpeel-loops", "-fno-tree-slp-vectorize", "-fPIC",
                 "-shared", "-ffp-contract=off")
# the build without the AVX2 and AVX-512 lanes, tried when a build with
# them fails
_NO_AVX2 = "-DSPILLCAST_NO_AVX2"
# runs per spillcast_advance call (MAX_LANES in _rk4.c)
_LANES = 8
_BUILD_TIMEOUT_S = 60.0


def _compilers() -> list:
    """The C compiler commands to try in turn: the one Python was built
    with, then ``cc``, since the first may not be installed here."""
    import sysconfig
    tries = [(sysconfig.get_config_var("CC") or "").split(), ["cc"]]
    return [cmd for i, cmd in enumerate(tries) if cmd and cmd not in tries[:i]]


def _kernel_path() -> Path:
    """Where the compiled loop is cached: ``_KERNEL_DIR``, under a key that
    hashes the C source, the flags and the platform."""
    import hashlib
    import sysconfig

    key = hashlib.sha256(b"\0".join(
        [_KERNEL_SOURCE.read_bytes(), *(f.encode() for f in _KERNEL_FLAGS),
         sysconfig.get_platform().encode()])).hexdigest()[:16]
    return _KERNEL_DIR / f"_rk4-{key}.so"


@functools.cache
def _load_kernel():
    """The compiled ``spillcast_advance`` of ``_rk4.c``, or None when it
    cannot be had; the simulations then run ``_advance`` in Python.

    The first simulation of a process that finds no cached library builds
    it, once per key.  A build goes to a temporary name and is renamed
    into place, so processes that build at once each load a whole
    library."""
    try:
        path = _kernel_path()
        if not path.exists() and not _build_kernel(path):
            return None
        advance = ctypes.CDLL(str(path)).spillcast_advance
    except (OSError, AttributeError):
        return None
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    advance.restype = ctypes.c_int
    advance.argtypes = (*[ctypes.c_int64] * 3, *[ctypes.c_double] * 5,
                        *[f64] * 7, i64, i64)
    return advance


def _build_kernel(path: Path) -> bool:
    """Compile ``_KERNEL_SOURCE`` to ``path`` with the first of
    ``_compilers()`` that builds it, with the AVX2 and AVX-512 lanes or,
    should that fail, without them; False, with nothing printed and
    nothing left behind, if each compiler is missing, fails or times out,
    or the directory is not writable.  Once the new library is in place,
    every other ``_rk4-*.so`` there is deleted: its key is stale, so no
    process loads it again.  The ``*.tmp`` files of builds still running
    are left alone."""
    import subprocess
    import tempfile

    tmp = None
    try:
        path.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{path.stem}-", suffix=".tmp",
                                   dir=path.parent)
        os.close(fd)
        for compiler in _compilers():
            for extra in ((), (_NO_AVX2,)):
                try:
                    done = subprocess.run(
                        [*compiler, *_KERNEL_FLAGS, *extra, "-o", tmp,
                         str(_KERNEL_SOURCE)],
                        stdin=subprocess.DEVNULL, capture_output=True,
                        timeout=_BUILD_TIMEOUT_S)
                except (OSError, subprocess.SubprocessError):
                    break
                if done.returncode == 0:
                    os.replace(tmp, path)
                    tmp = None
                    for stale in path.parent.glob("_rk4-*.so"):
                        if stale != path:
                            with contextlib.suppress(OSError):
                                stale.unlink()
                    return True
        return False
    except OSError:
        return False
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def kernel() -> str:
    """The day loop simulations run in this process: ``"c"`` for the
    compiled one, ``"python"`` for the fallback."""
    return "python" if _load_kernel() is None else "c"


# spillcast_advance's error codes, raised as r0 raises them
_KERNEL_ERRORS = {
    1: lambda day: ZeroDenominator("bird component denominator is zero"),
    2: lambda day: ZeroDenominator("mosquito mortality must be > 0"),
    3: lambda day: ZeroDenominator(DENOMINATOR_UNDERFLOW),
    4: lambda day: BlowUp(f"compartment exceeded {BLOWUP_LIMIT:g} on {day}"),
}


def _kernel_advance(advance, params: ModelParams, steps_per_day: int, n: int,
                    rates, rate_rows: list, k_arr, rows: list, out: tuple,
                    y) -> tuple:
    """One ``spillcast_advance`` call: n days of ``len(rows)`` runs side by
    side.  Run l takes its rates from rows ``rate_rows[l]`` on of ``rates``
    and its K from, and writes its outputs to, rows ``rows[l]`` on of
    ``k_arr`` and ``out`` = (states, m, r0, new_infections); ``y`` holds
    the (lanes, 16) states and is updated in place.  Returns the status,
    the failing day's index, and the clamp count and the number of
    disease-free days of each run (see ``_rk4.c``)."""
    lanes = len(rows)
    states, m_prof, r0_daily, new_inf = out
    # the loop reads and writes n rows from each start through raw pointers
    if not (1 <= lanes <= _LANES and len(rate_rows) == lanes
            and y.shape == (lanes, 16) and rates.shape[1:] == (16,)
            and states.shape[1:] == (15,)
            and k_arr.ndim == m_prof.ndim == r0_daily.ndim == new_inf.ndim == 1
            and min(*rate_rows, *rows, n) >= 0
            and max(rate_rows) + n <= len(rates)
            and max(rows) + n <= min(len(k_arr), len(states), len(m_prof),
                                     len(r0_daily), len(new_inf))):
        raise ValueError(f"arrays do not fit {lanes} runs of {n} days")
    h = 1.0 / steps_per_day
    # clamps, disease-free days, failing lane, failing day
    counts = np.zeros(2 * lanes + 2, dtype=np.int64)
    status = advance(lanes, n, operator.index(steps_per_day), h, 0.5 * h,
                     h / 6.0, params.rho, BLOWUP_LIMIT, rates, k_arr, *out, y,
                     np.array(rate_rows + rows, dtype=np.int64), counts)
    return status, int(counts[-1]), counts[:lanes], counts[lanes:-2]


# --- runs ----------------------------------------------------------------------

# A January pulse of infected birds decays away long before the
# transmission season in a deterministic ODE, so case-producing yearly runs
# seed the pulse at the season start instead.
SEED_DAY = 90
SEED_BIRDS = 20.0


@dataclass(frozen=True)
class Run:
    """One independent simulation for ``simulate_runs``: a weather span, its
    carrying capacity (per-day series or scalar), the start state, and
    optionally a pulse of ``seed_birds`` susceptible birds moved to the
    infectious compartment at the start of day ``seed_day``."""

    weather: WeatherSeries
    k_series: object
    init: CompartmentState
    seed_day: int | None = None
    seed_birds: float = SEED_BIRDS


_B_S, _B_I = COMPARTMENTS.index("B_S"), COMPARTMENTS.index("B_I")


def _seed_pulse(y, seed_birds: float) -> list:
    """The state after the pulse, with the accumulator restarted: the
    pulse splits the run in two, each half accumulating from zero.  The
    states before and after the pulse are checked as CompartmentStates."""
    state = y[:15]
    _check_state(state)
    moved = min(seed_birds, state[_B_S])
    state[_B_S] -= moved
    state[_B_I] += moved
    _check_state(state)
    return state + [0.0]


def _pulse_day(run: Run):
    """The day the run's pulse falls on, a seed day outside the span moved
    to its nearest day; None for an unseeded run or an empty span."""
    n = len(run.weather)
    if run.seed_day is None or not n:
        return None
    return min(max(int(run.seed_day), 0), n - 1)


def simulate(params: ModelParams, weather: WeatherSeries, k_series,
             init: CompartmentState,
             steps_per_day: int = STEPS_PER_DAY) -> Trajectory:
    """Integrate the model over the weather span: ``simulate_runs`` with
    the one run.

    ``k_series`` is the per-day carrying capacity, aligned with the weather
    (a scalar is broadcast).  Day i reports the state at its first midnight;
    expected new human infections are accumulated across the day and scaled
    by rho.  Negative excursions are clamped to zero and counted.

    The state after the last day is returned as ``end_state``; passing it
    as ``init`` to the next span continues the run exactly, because no
    compartment reads the cumulative-infection accumulator that restarts
    at zero.  A non-finite end state raises NonFiniteInput.
    """
    return simulate_runs(params, [Run(weather, k_series, init)],
                         steps_per_day)[0]


def simulate_runs(params: ModelParams, runs,
                  steps_per_day: int = STEPS_PER_DAY) -> list:
    """Simulate independent runs; returns one Trajectory per run.

    A run is integrated as ``simulate`` describes; a seeded run up to its
    pulse day, then on from the pulsed state, each half accumulating new
    infections from zero.  Every run's K is checked before any run is
    simulated.  Errors are those of the first run that fails, in run
    order: LengthMismatch, NonFiniteInput (K <= 0 or non-finite, non-finite
    end state), ZeroDenominator, BlowUp.

    The thermal rates of every distinct WeatherSeries object are evaluated
    once for the call, and runs on one object share them.  With the
    compiled loop and two runs or more, ``_simulate_chunks`` first advances
    runs of equal length and equal pulse day up to eight at a time in its
    lanes, one chunk after another.  If any lane fails, no further chunk
    starts, and a width-1 pass simulates the runs again one at a time,
    which raises the error of the first failing run.  A single run, or any
    call without the compiled loop, takes the width-1 pass at once.
    """
    runs = list(runs)
    if not runs:
        return []
    k_arrs = [_k_array(run.k_series, len(run.weather)) for run in runs]
    rates, rate_starts = _shared_rates(params, runs)
    advance = _load_kernel()
    if advance is not None and len(runs) > 1:
        with contextlib.suppress(NumericalError):
            return _simulate_chunks(advance, params, runs, rates, rate_starts,
                                    k_arrs, steps_per_day, _LANES)
    return _simulate_chunks(advance, params, runs, rates, rate_starts, k_arrs,
                            steps_per_day, 1)


def _simulate_chunks(advance, params: ModelParams, runs: list, rates,
                     rate_starts: list, k_arrs: list, steps_per_day: int,
                     width: int) -> list:
    """``simulate_runs`` in chunks of up to ``width`` runs.

    The runs' K and outputs are concatenated into arrays of the call, each
    run owning the rows from its offset on; its Trajectory holds views of
    them.  A chunk goes to the day loop to the pulse day, then through
    ``_seed_pulse`` run by run, then to the end, and builds its runs'
    Trajectories and end states; it reads and writes only its own runs'
    rows.  The day loop is the compiled one, ``advance``, or ``_advance``
    in Python when ``advance`` is None (width 1 only).

    Width 1: each run is a chunk, taken in run order, and the first
    failure raises its own error.  Wider: runs are grouped by length and
    clamped pulse day, each group is cut into chunks of ``width`` runs,
    taken in group order; any failure of the loop, a pulse or an end state
    raises a NumericalError."""
    sizes = [len(run.weather) for run in runs]
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    total = sum(sizes)
    out = (np.empty((total, 15)), np.empty(total), np.empty(total),
           np.empty(total))
    k_all = np.concatenate(k_arrs)
    trajectories = [None] * len(runs)

    def advance_days(lanes, y, lo, hi):
        """Days [lo, hi) of the runs ``lanes`` from their 16-entry states
        ``y``; returns their states after day hi - 1 and clamp counts."""
        if hi <= lo:
            return y, [0] * len(lanes)
        if advance is None:
            (i,) = lanes
            row, first, n = starts[i], rate_starts[i], sizes[i]
            end, count = _advance(params, runs[i].weather,
                                  rates[first:first + n], k_all[row:row + n],
                                  y[0], steps_per_day, lo, hi,
                                  [part[row:row + n] for part in out])
            return [end], [count]
        state = np.array(y)
        status, day, counts, _ = _kernel_advance(
            advance, params, steps_per_day, hi - lo, rates,
            [rate_starts[i] + lo for i in lanes], k_all,
            [starts[i] + lo for i in lanes], out, state)
        if status:
            if width > 1:
                raise NumericalError("a run failed in the lanes")
            raise _KERNEL_ERRORS[status](
                runs[lanes[0]].weather.dates[lo + day])
        return state.tolist(), counts.tolist()

    def run_chunk(n, pulse, lanes):
        y = [runs[i].init.as_list() + [0.0] for i in lanes]
        clamps = [0] * len(lanes)
        if pulse is not None:
            y, clamps = advance_days(lanes, y, 0, pulse)
            y = [_seed_pulse(state, runs[i].seed_birds)
                 for state, i in zip(y, lanes)]
        y, counts = advance_days(lanes, y, pulse or 0, n)
        for i, state, before, after in zip(lanes, y, clamps, counts):
            row = starts[i]
            end = state[:15]
            _check_state(end)
            # the day loop keeps every M and R0 >= 0 (or NaN, which the
            # check lets through), and one row per weather day
            trajectories[i] = _unchecked(
                Trajectory,
                dates=runs[i].weather.dates,
                states=out[0][row:row + n],
                m=out[1][row:row + n],
                r0=out[2][row:row + n],
                new_infections=out[3][row:row + n],
                weather=runs[i].weather,
                clamp_count=before + after,
                end_state=_unchecked(
                    CompartmentState,
                    **dict(zip(COMPARTMENTS, map(float, end)))),
            )

    if width == 1:
        for i, (run, n) in enumerate(zip(runs, sizes)):
            run_chunk(n, _pulse_day(run), [i])
        return trajectories
    groups = {}
    for i, (run, n) in enumerate(zip(runs, sizes)):
        groups.setdefault((n, _pulse_day(run)), []).append(i)
    for (n, pulse), members in groups.items():
        for first in range(0, len(members), width):
            run_chunk(n, pulse, members[first:first + width])
    return trajectories


def weekly_expected_cases_runs(trajectories, week_starts) -> list:
    """Expected reported cases of each trajectory summed over each week
    of its own week starts (``week_starts[i]`` for ``trajectories[i]``);
    days outside the trajectory contribute zero.  The weeks of all the
    trajectories are gathered in one indexed pass.

    A week's days are found by their offset from its trajectory's first
    date, and its seven values are added left to right from 0.0, day
    column by day column, as ``sum`` over them would add them."""
    if not trajectories:
        return []
    weeks = [len(starts) for starts in week_starts]
    sizes = [len(traj) for traj in trajectories]
    firsts = [traj.dates[0].toordinal() if n else 0
              for traj, n in zip(trajectories, sizes)]
    # each week's offset from its trajectory's first day, and where that
    # trajectory's rows begin in the concatenated values
    day = (np.fromiter(map(date.toordinal, itertools.chain(*week_starts)),
                       dtype=np.int64, count=sum(weeks))
           - np.repeat(firsts, weeks))[:, None] + np.arange(7)
    inside = (day >= 0) & (day < np.repeat(sizes, weeks)[:, None])
    rows = day + np.repeat(np.cumsum([0, *sizes[:-1]]), weeks)[:, None]
    # index -1 reads the 0.0 appended after the last trajectory
    daily = np.concatenate([*(t.new_infections for t in trajectories),
                            [0.0]])[np.where(inside, rows, -1)]
    totals = np.zeros(len(daily))
    for d in range(7):
        totals = totals + daily[:, d]
    return np.split(totals, np.cumsum(weeks)[:-1])


def seeded_year_trajectory(params: ModelParams, weather_year: WeatherSeries,
                           k_series, init: CompartmentState,
                           seed_day: int = SEED_DAY,
                           seed_birds: float = SEED_BIRDS,
                           steps_per_day: int = STEPS_PER_DAY) -> Trajectory:
    """Simulate one year, moving ``seed_birds`` susceptible birds to the
    infectious compartment at the start of day ``seed_day``."""
    run = Run(weather_year, k_series, init, seed_day, seed_birds)
    return simulate_runs(params, [run], steps_per_day=steps_per_day)[0]


def save_trajectory(traj: Trajectory, path) -> None:
    """Trajectory CSV: date, M, R0, expected new reported cases, then one
    column per compartment."""
    write_table(path, ["date", "M", "R0", "H_new_cases", *COMPARTMENTS],
                [traj.dates, traj.m, traj.r0, traj.new_infections,
                 *traj.states.T])

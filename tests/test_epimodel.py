import contextlib
import os
import subprocess
import sys
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillcast import epimodel, errors, synth
from spillcast.config import Config
from spillcast.epimodel import (
    COMPARTMENTS,
    CompartmentState,
    ModelParams,
    Run,
    Trajectory,
    default_init_state,
    derivatives,
    seeded_year_trajectory,
    simulate,
    simulate_runs,
    save_trajectory,
    weekly_expected_cases_runs,
)
from spillcast.ingest import WeatherSeries
from spillcast.r0 import r0
from spillcast.thermal import ThermalCurve, eval_thermal_array

from tests.conftest import constant_weather, sinusoid_weather


def state_with(**kw):
    base = dict(H_S=1000.0, B_S=200.0, M_S=500.0, A_M=100.0)
    base.update(kw)
    return CompartmentState(**base)


class TestDerivatives:
    def test_disease_free_invariant_set(self, default_params):
        s = state_with()  # no exposed/infected anywhere
        d = derivatives(s, default_params, 25.0, 5000.0)
        for name in ("H_E", "H_I", "H_R", "M_E", "M_I", "B_E", "B_I", "B_R"):
            assert getattr(d, name) == 0.0
        assert d.H_S == 0.0

    def test_human_population_closed(self, default_params):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = dict(zip(COMPARTMENTS, rng.uniform(0.0, 1000.0, 15)))
            s = CompartmentState(**vals)
            d = derivatives(s, default_params, rng.uniform(-5, 40), 5000.0)
            total = d.H_S + d.H_E + d.H_I + d.H_R
            scale = abs(d.H_S) + abs(d.H_E) + abs(d.H_I) + abs(d.H_R) + 1.0
            assert abs(total) < 1e-12 * scale

    def test_aquatic_recruitment_saturates_at_capacity(self, default_params):
        k = 5000.0
        s_full = state_with(A_M=k, E_M=100.0)
        s_empty = state_with(A_M=0.0, E_M=100.0)
        d_full = derivatives(s_full, default_params, 25.0, k)
        d_empty = derivatives(s_empty, default_params, 25.0, k)
        nu = default_params.rates["aquatic_dev"](25.0)
        mu_a = default_params.rates["aquatic_mort"](25.0)
        # at A_M = K the recruitment term vanishes: only drain remains
        assert d_full.A_M == pytest.approx(-(nu + mu_a) * k)
        # at A_M = 0 recruitment is the full hatch flow
        assert d_empty.A_M == pytest.approx(nu * 100.0)

    def test_nonfinite_input_rejected(self, default_params):
        with pytest.raises(errors.NonFiniteInput):
            derivatives(state_with(), default_params, float("nan"), 5000.0)
        with pytest.raises(errors.NonFiniteInput):
            derivatives(state_with(), default_params, 25.0, 0.0)


class TestSimulate:
    def test_disease_free_stays_disease_free_exactly(self, default_cfg):
        cfg = Config(init_infected_birds=0.0)
        params = ModelParams.from_config(cfg)
        init = default_init_state(cfg)
        wx = sinusoid_weather(365)
        traj = simulate(params, wx, np.full(365, 5000.0), init)
        infected_cols = [COMPARTMENTS.index(c)
                         for c in ("H_E", "H_I", "H_R", "M_E", "M_I", "B_E", "B_I", "B_R")]
        assert np.all(traj.states[:, infected_cols] == 0.0)
        assert np.all(traj.new_infections == 0.0)
        assert np.all(traj.r0 >= 0.0)

    def test_human_conservation(self, default_cfg, default_params):
        init = default_init_state(default_cfg)
        wx = sinusoid_weather(365)
        traj = simulate(default_params, wx, np.full(365, 5000.0), init)
        human_sum = traj.states[:, :4].sum(axis=1)
        drift = np.max(np.abs(human_sum - human_sum[0]))
        assert drift < 1e-9 * human_sum[0]

    def test_nonnegative_compartments(self, default_cfg, default_params):
        init = default_init_state(default_cfg)
        wx = sinusoid_weather(400)
        traj = simulate(default_params, wx, np.full(400, 3000.0), init)
        assert np.all(traj.states >= 0.0)
        assert np.all(traj.m >= 0.0)

    def test_step_halving_convergence(self, default_cfg, default_params):
        """Oracle: the same run at a quartered step (RK4 order check)."""
        init = default_init_state(default_cfg)
        wx = constant_weather(60, temp=24.0)
        k = np.full(60, 5000.0)
        coarse = simulate(default_params, wx, k, init, steps_per_day=24)
        halved = simulate(default_params, wx, k, init, steps_per_day=48)
        fine = simulate(default_params, wx, k, init, steps_per_day=96)
        scale = np.maximum(np.abs(fine.m), 1.0)
        assert np.max(np.abs(coarse.m - halved.m) / scale) < 1e-6
        assert np.max(np.abs(coarse.states - fine.states)
                      / np.maximum(np.abs(fine.states), 1.0)) < 1e-5

    def test_seasonal_peak_in_warm_season(self, default_cfg, default_params):
        init = default_init_state(default_cfg)
        wx = sinusoid_weather(365)
        traj = simulate(default_params, wx, np.full(365, 5000.0), init)
        t_peak = int(np.argmax(wx.temp_mean))
        m_peak = int(np.argmax(traj.m))
        assert abs(m_peak - t_peak) <= 30

    def test_monotone_response_to_capacity(self, default_cfg, default_params):
        init = default_init_state(default_cfg)
        wx = constant_weather(400, temp=25.0)
        levels = []
        for k in (2000.0, 5000.0, 10000.0):
            traj = simulate(default_params, wx, np.full(400, k), init)
            levels.append(traj.m[-1])
        assert levels[0] < levels[1] < levels[2]

    def test_length_mismatch(self, default_cfg, default_params):
        init = default_init_state(default_cfg)
        wx = constant_weather(10)
        with pytest.raises(errors.LengthMismatch):
            simulate(default_params, wx, np.full(9, 5000.0), init)

    def test_blow_up_detected(self, default_cfg):
        cfg = Config(rates={"egg_laying": "constant,500.0",
                            "aquatic_dev": "constant,5.0",
                            "aquatic_mort": "constant,0.001",
                            "adult_mort": "constant,0.001"})
        params = ModelParams.from_config(cfg)
        init = default_init_state(cfg)
        wx = constant_weather(400, temp=25.0)
        with pytest.raises(errors.BlowUp):
            simulate(params, wx, np.full(400, 1e9), init)

    def test_trajectory_aligned_with_weather(self, default_cfg, default_params):
        init = default_init_state(default_cfg)
        wx = sinusoid_weather(123)
        traj = simulate(default_params, wx, np.full(123, 5000.0), init)
        assert len(traj) == len(wx)
        assert traj.dates == wx.dates
        assert np.array_equal(
            traj.m, traj.states[:, 6] + traj.states[:, 7] + traj.states[:, 8]
        )

    def test_reported_cases_scale_with_rho(self, default_cfg):
        wx = sinusoid_weather(365)
        k = np.full(365, 5000.0)
        full = Config(rho=1.0)
        half = Config(rho=0.5)
        init_full = default_init_state(full)
        init_half = default_init_state(half)
        t_full = simulate(ModelParams.from_config(full), wx, k, init_full)
        t_half = simulate(ModelParams.from_config(half), wx, k, init_half)
        assert np.allclose(t_half.new_infections, 0.5 * t_full.new_infections,
                           rtol=1e-12, atol=1e-15)


# --- simulate against the original list-based RK4 loop ----------------------

def reference_rhs(y, rates, k_cap):
    """The original tuple-building right-hand side, kept verbatim."""
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


def reference_simulate(params, weather, k_series, init, steps_per_day=24):
    """The original list-comprehension RK4 loop of ``simulate``, kept
    verbatim as the oracle for the straight-line integrator."""
    n = len(weather)
    k_arr = epimodel._k_array(k_series, n)
    states, m_prof, r0_daily, new_inf = (
        np.empty((n, 15)), np.empty(n), np.empty(n), np.empty(n))
    y = init.as_list() + [0.0]
    h = 1.0 / steps_per_day
    clamps = 0

    for i in range(n):
        states[i] = y[:15]
        m_prof[i] = y[6] + y[7] + y[8]
        temp = float(weather.temp_mean[i])
        r0_daily[i] = r0(epimodel._r0_inputs(params.daily_rates(temp),
                                               y[6], y[11]))

        rates = params.daily_rates(temp)
        k_cap = float(k_arr[i])
        cum_before = y[15]
        for _ in range(steps_per_day):
            k1 = reference_rhs(y, rates, k_cap)
            y2 = [a + 0.5 * h * b for a, b in zip(y, k1)]
            k2 = reference_rhs(y2, rates, k_cap)
            y3 = [a + 0.5 * h * b for a, b in zip(y, k2)]
            k3 = reference_rhs(y3, rates, k_cap)
            y4 = [a + h * b for a, b in zip(y, k3)]
            k4 = reference_rhs(y4, rates, k_cap)
            y = [
                a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
            ]
            for j in range(15):
                if y[j] < 0.0:
                    y[j] = 0.0
                    clamps += 1
        new_inf[i] = params.rho * (y[15] - cum_before)
        if any(v > epimodel.BLOWUP_LIMIT for v in y):
            raise errors.BlowUp(f"compartment exceeded {epimodel.BLOWUP_LIMIT:g}"
                                f" on {weather.dates[i]}")
    return Trajectory(
        dates=weather.dates, states=states, m=m_prof, r0=r0_daily,
        new_infections=new_inf, weather=weather, clamp_count=clamps,
        end_state=CompartmentState.from_values(y[:15]),
    )


# Rate sets that drive every branch of the integrator: the defaults;
# WND mortality fast enough that coarse steps overshoot below zero (the
# clamp); an exploding mosquito cycle (BlowUp, or overflow to a non-finite
# end state); and zero mortalities, for r0's zero-denominator rule.
ORACLE_PARAMS = {
    "default": ModelParams.from_config(Config()),
    "stiff": ModelParams.from_config(
        Config(rates={"bird_wnd_mort": "constant,3.0"})),
    "explosive": ModelParams.from_config(
        Config(rates={"egg_laying": "constant,500.0",
                      "aquatic_dev": "constant,5.0",
                      "aquatic_mort": "constant,0.001",
                      "adult_mort": "constant,0.001"})),
    "zero_mortality": ModelParams.from_config(
        Config(rates={"adult_mort": "quadratic,1.0e-3,15.0,40.0",
                      "bird_mort": "constant,0.0",
                      "bird_recovery": "constant,0.0",
                      "bird_wnd_mort": "constant,0.0"})),
}


@st.composite
def oracle_cases(draw):
    """One run: random weather, scalar or per-day K from small (recruitment
    room <= 0) to huge, and a default, random, bird-free or human-free
    start state."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    start = date(2021, 1, 1) + timedelta(days=int(rng.integers(0, 365)))
    wx = WeatherSeries(
        tuple(start + timedelta(days=i) for i in range(n)),
        rng.uniform(-5.0, 42.0, n), rng.uniform(0.0, 100.0, n),
        rng.uniform(0.0, 10.0, n))
    k_lo, k_hi = draw(st.sampled_from(((1.0, 500.0), (100.0, 20000.0),
                                       (1e6, 1e9))))
    k = (float(rng.uniform(k_lo, k_hi)) if draw(st.booleans())
         else rng.uniform(k_lo, k_hi, n))
    kind = draw(st.sampled_from(("default", "random", "no_birds",
                                 "no_humans")))
    values = dict(zip(COMPARTMENTS, rng.uniform(0.0, 3000.0, 15)))
    if kind == "default":
        values = default_init_state(Config()).__dict__
    elif kind == "no_birds":
        values.update(E_B=0.0, F_B=0.0, B_S=0.0, B_E=0.0, B_I=0.0, B_R=0.0)
    elif kind == "no_humans":
        values.update(H_S=0.0, H_E=0.0, H_I=0.0, H_R=0.0)
    return wx, k, CompartmentState(**values)


# The two day loops: the compiled one (the Python loop where no C compiler
# is available) and ``_advance``, the Python loop itself.
DAY_LOOPS = ("c", "python")


@contextlib.contextmanager
def day_loop(name):
    """Simulate in the named day loop within the block."""
    if name == "python":
        with mock.patch.object(epimodel, "_load_kernel", lambda: None):
            assert epimodel.kernel() == "python"
            yield
    else:
        yield


class TestSimulateOracle:
    """Both day loops against the original list-based RK4."""

    @given(case=oracle_cases(),
           rates=st.sampled_from((*sorted(ORACLE_PARAMS), "random")),
           rate_seed=st.integers(0, 2**32 - 1),
           steps=st.sampled_from((1, 2, 3, 24)))
    @settings(max_examples=150, deadline=None)
    def test_equals_list_based_rk4(self, case, rates, rate_seed, steps):
        wx, k, init = case
        if rates == "random":
            # arbitrary constants, so that no rounding coincidence of the
            # configured values can hide a reordered sum
            values = np.random.default_rng(rate_seed).uniform(0.0, 0.6, 16)
            params = ModelParams(rates={
                key: ThermalCurve.constant(float(v))
                for key, v in zip(epimodel._RATE_KEYS, values)})
        else:
            params = ORACLE_PARAMS[rates]
        try:
            want = reference_simulate(params, wx, k, init, steps_per_day=steps)
        except errors.SpillcastError as exc:
            for loop in DAY_LOOPS:
                with day_loop(loop), \
                        pytest.raises(errors.SpillcastError) as got:
                    simulate(params, wx, k, init, steps_per_day=steps)
                assert type(got.value) is type(exc), loop
                assert str(got.value) == str(exc), loop
            return
        for loop in DAY_LOOPS:
            with day_loop(loop):
                assert_same_trajectory(simulate(params, wx, k, init,
                                                steps_per_day=steps), want)

    @pytest.mark.parametrize("rates, k, expected", [
        ("default", 50.0, "room <= 0"),
        ("stiff", 5000.0, "clamp"),
        ("explosive", 1e9, errors.BlowUp),
        ("zero_mortality", 5000.0, errors.ZeroDenominator),
    ])
    def test_every_rate_set_reaches_its_branch(self, rates, k, expected):
        """The oracle's rate sets hit what they are there for: A_M above K
        (no recruitment room), clamps, BlowUp and ZeroDenominator."""
        wx = sinusoid_weather(20, base=14.0, amp=1.0)
        init = CompartmentState(**dict(zip(
            COMPARTMENTS, np.random.default_rng(1).uniform(0.0, 3000.0, 15))))
        params = ORACLE_PARAMS[rates]
        if not isinstance(expected, str):
            with pytest.raises(expected) as want:
                reference_simulate(params, wx, k, init, steps_per_day=2)
            for loop in DAY_LOOPS:
                with day_loop(loop), pytest.raises(expected) as got:
                    simulate(params, wx, k, init, steps_per_day=2)
                assert str(got.value) == str(want.value), loop
            return
        want = reference_simulate(params, wx, k, init, steps_per_day=1)
        if expected == "clamp":
            assert want.clamp_count > 0
        else:
            assert want.states[0, COMPARTMENTS.index("A_M")] > k
        for loop in DAY_LOOPS:
            with day_loop(loop):
                assert_same_trajectory(
                    simulate(params, wx, k, init, steps_per_day=1), want)

    def test_underflowed_r0_denominator_raises_as_python(self):
        """Bird rates so small that r0's (delta_b + mu_b) * (lambda_b +
        mu_wnd_b + mu_b) underflows to zero: both loops raise r0's
        ZeroDenominator on the first day."""
        params = ModelParams.from_config(Config(rates={
            key: "constant,1e-170" for key in (
                "bird_mort", "bird_incubation", "bird_recovery",
                "bird_wnd_mort")}))
        wx = constant_weather(3)
        init = default_init_state(Config())
        with pytest.raises(errors.ZeroDenominator) as want:
            reference_simulate(params, wx, 5000.0, init, steps_per_day=2)
        for loop in DAY_LOOPS:
            with day_loop(loop), pytest.raises(errors.ZeroDenominator) as got:
                simulate(params, wx, 5000.0, init, steps_per_day=2)
            assert str(got.value) == str(want.value), loop

    def test_derivatives_equal_list_based_rhs(self, default_params):
        rng = np.random.default_rng(7)
        for kind in ("random", "no_birds", "no_humans"):
            values = dict(zip(COMPARTMENTS, rng.uniform(0.0, 1000.0, 15)))
            if kind == "no_birds":
                values.update(B_S=0.0, B_E=0.0, B_I=0.0, B_R=0.0)
            elif kind == "no_humans":
                values.update(H_S=0.0, H_E=0.0, H_I=0.0, H_R=0.0)
            state = CompartmentState(**values)
            for temp, k_cap in ((25.0, 5000.0), (12.0, 10.0), (39.0, 1e8)):
                want = reference_rhs(state.as_list() + [0.0],
                                     default_params.daily_rates(temp), k_cap)
                got = derivatives(state, default_params, temp, k_cap)
                assert got.as_list() == list(want[:15])


def test_weekly_expected_cases_sums_days(default_cfg, default_params):
    init = default_init_state(default_cfg)
    wx = constant_weather(21, temp=25.0, start=date(2021, 6, 1))
    traj = simulate(default_params, wx, np.full(21, 5000.0), init)
    weeks = [date(2021, 6, 1), date(2021, 6, 8), date(2021, 6, 15)]
    totals = weekly_expected_cases_runs([traj], [weeks])[0]
    assert totals[0] == pytest.approx(traj.new_infections[0:7].sum())
    assert totals[2] == pytest.approx(traj.new_infections[14:21].sum())


def test_simulate_after_reloading_the_module():
    """epimodel binds the r0 names it uses itself: the package attribute
    ``spillcast.r0`` is the function, not the module, once the package
    has finished importing."""
    src = str(Path(epimodel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = (
        "import importlib, spillcast.epimodel as e; from spillcast.config "
        "import Config; from tests.conftest import sinusoid_weather; "
        "importlib.reload(e); cfg = Config(); "
        "traj = e.simulate(e.ModelParams.from_config(cfg), sinusoid_weather(5),"
        " 5000.0, e.default_init_state(cfg)); print(len(traj))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            cwd=Path(src).parent, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "5"


def test_save_trajectory_schema(tmp_path, default_cfg, default_params):
    init = default_init_state(default_cfg)
    wx = constant_weather(5)
    traj = simulate(default_params, wx, np.full(5, 5000.0), init)
    out = tmp_path / "traj.csv"
    save_trajectory(traj, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "date,M,R0,H_new_cases," + ",".join(COMPARTMENTS)
    assert len(lines) == 6


# --- simulate_runs: the year-runner -----------------------------------------

def split_seeded_reference(params, wx, k_series, init, seed_day, seed_birds,
                           steps):
    """A seeded run as two ``reference_simulate`` calls around the pulse,
    each accumulating new infections from zero."""
    n = len(wx)
    k = np.asarray(k_series if np.ndim(k_series) else np.full(n, k_series),
                   dtype=float)
    seed_day = min(max(int(seed_day), 0), n - 1)
    pre = reference_simulate(params, wx.slice(0, seed_day), k[:seed_day],
                             init, steps_per_day=steps)
    state = pre.end_state
    moved = min(seed_birds, state.B_S)
    post = reference_simulate(
        params, wx.slice(seed_day, n), k[seed_day:],
        replace(state, B_S=state.B_S - moved, B_I=state.B_I + moved),
        steps_per_day=steps)
    return Trajectory(
        dates=wx.dates,
        states=np.vstack([pre.states, post.states]),
        m=np.concatenate([pre.m, post.m]),
        r0=np.concatenate([pre.r0, post.r0]),
        new_infections=np.concatenate([pre.new_infections,
                                       post.new_infections]),
        weather=wx,
        clamp_count=pre.clamp_count + post.clamp_count,
        end_state=post.end_state,
    )


@st.composite
def run_sets(draw):
    """Runs of unequal length over random weather, scalar or per-day K,
    default, random, bird-free or human-free start states, with and
    without a seed pulse."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = Config()
    runs = []
    for _ in range(draw(st.integers(1, 14))):
        n = draw(st.integers(1, 24))
        start = date(2021, 1, 1) + timedelta(days=int(rng.integers(0, 365)))
        wx = WeatherSeries(
            tuple(start + timedelta(days=i) for i in range(n)),
            rng.uniform(-5.0, 38.0, n), rng.uniform(0.0, 100.0, n),
            rng.uniform(0.0, 10.0, n))
        k = (float(rng.uniform(100.0, 20000.0)) if draw(st.booleans())
             else rng.uniform(100.0, 20000.0, n))
        kind = draw(st.sampled_from(("default", "random", "no_birds",
                                     "no_humans")))
        values = dict(zip(COMPARTMENTS, rng.uniform(0.0, 3000.0, 15)))
        if kind == "default":
            values = default_init_state(cfg).__dict__
        elif kind == "no_birds":
            values.update(E_B=0.0, F_B=0.0, B_S=0.0, B_E=0.0, B_I=0.0, B_R=0.0)
        elif kind == "no_humans":
            values.update(H_S=0.0, H_E=0.0, H_I=0.0, H_R=0.0)
        seed_day = draw(st.one_of(st.none(), st.integers(-2, n + 2)))
        runs.append(Run(wx, k, CompartmentState(**values), seed_day,
                        float(rng.uniform(0.0, 50.0))))
    return runs


def assert_same_trajectory(got, want):
    for field in ("states", "m", "r0", "new_infections"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.clamp_count == want.clamp_count
    assert got.end_state == want.end_state
    assert got.dates == want.dates


# bird WND mortality fast enough that one RK4 step a day overshoots below
# zero (clamps) and, with other rates, can blow up
STIFF_PARAMS = ModelParams.from_config(
    Config(rates={"bird_wnd_mort": "constant,3.0"}))


class TestSimulateRuns:
    """simulate_runs in both day loops against the list-based RK4."""

    @given(runs=run_sets(), steps=st.integers(1, 3), stiff=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_single_runs(self, default_params, runs, steps,
                                          stiff):
        params = STIFF_PARAMS if stiff else default_params
        want, raised = [], set()
        with day_loop("python"):
            for run in runs:
                try:
                    if run.seed_day is None:
                        want.append(reference_simulate(
                            params, run.weather, run.k_series, run.init,
                            steps_per_day=steps))
                        continue
                    want.append(split_seeded_reference(
                        params, run.weather, run.k_series, run.init,
                        run.seed_day, run.seed_birds, steps))
                    one = seeded_year_trajectory(
                        params, run.weather, run.k_series, run.init,
                        run.seed_day, run.seed_birds, steps_per_day=steps)
                    assert_same_trajectory(one, want[-1])
                except errors.SpillcastError as exc:
                    raised.add(type(exc))
        for loop in DAY_LOOPS:
            with day_loop(loop):
                if raised:
                    with pytest.raises(tuple(raised)):
                        simulate_runs(params, runs, steps_per_day=steps)
                    continue
                got = simulate_runs(params, runs, steps_per_day=steps)
            assert len(got) == len(runs)
            for g, w in zip(got, want):
                assert_same_trajectory(g, w)

    def test_clamps_counted_per_run_in_a_batch(self):
        init = CompartmentState(**dict(zip(
            COMPARTMENTS, np.random.default_rng(0).uniform(0.0, 3000.0, 15))))
        runs = [Run(sinusoid_weather(20 + j), 5000.0, init)
                for j in range(6)]
        want = [reference_simulate(STIFF_PARAMS, run.weather, 5000.0, init,
                                   steps_per_day=1) for run in runs]
        assert all(w.clamp_count > 0 for w in want)
        for loop in DAY_LOOPS:
            with day_loop(loop):
                got = simulate_runs(STIFF_PARAMS, runs, steps_per_day=1)
            for traj, w in zip(got, want):
                assert_same_trajectory(traj, w)

    def test_wide_batch_of_years_matches_simulate(self, default_cfg,
                                                  default_params):
        init = default_init_state(default_cfg)
        years = [sinusoid_weather(365 + (j % 2), base=15.0 + j)
                 for j in range(4)]
        runs = [Run(wx, 2000.0 + 500.0 * j, init) for j, wx in enumerate(years)]
        want = [reference_simulate(default_params, run.weather, run.k_series,
                                   init) for run in runs]
        for loop in DAY_LOOPS:
            with day_loop(loop):
                got = simulate_runs(default_params, runs)
            for traj, w in zip(got, want):
                assert_same_trajectory(traj, w)

    @pytest.mark.parametrize("width", [1, 100])
    def test_blow_up_raised_with_or_without_batching(self, width):
        """A run that blows up, alone or first in a batch of ``width`` runs:
        both day loops raise the list-based oracle's BlowUp for it."""
        cfg = Config(rates={"egg_laying": "constant,500.0",
                            "aquatic_dev": "constant,5.0",
                            "aquatic_mort": "constant,0.001",
                            "adult_mort": "constant,0.001"})
        params = ModelParams.from_config(cfg)
        init = default_init_state(cfg)
        wx = constant_weather(400, temp=25.0)
        runs = ([Run(wx, 1e9, init)]
                + [Run(wx.slice(0, 100), 5000.0, init)] * (width - 1))
        with pytest.raises(errors.BlowUp) as want:
            reference_simulate(params, wx, 1e9, init, steps_per_day=4)
        for loop in DAY_LOOPS:
            with day_loop(loop), pytest.raises(errors.BlowUp) as got:
                simulate_runs(params, runs, steps_per_day=4)
            assert str(got.value) == str(want.value), loop

    @pytest.mark.parametrize("width", [1, 100])
    @pytest.mark.parametrize("bad_k", [0.0, -5.0, float("nan")])
    def test_invalid_k_rejected_with_or_without_batching(
            self, default_cfg, default_params, width, bad_k):
        """One run, or a batch of ``width`` runs whose last one has a bad
        K day: both day loops reject it."""
        init = default_init_state(default_cfg)
        wx = constant_weather(10)
        k = np.full(10, 5000.0)
        k[3] = bad_k
        runs = ([Run(wx, 5000.0, init)] * (width - 1)
                + [Run(wx, k, init, seed_day=2)])
        for loop in DAY_LOOPS:
            with day_loop(loop), pytest.raises(errors.NonFiniteInput):
                simulate_runs(default_params, runs)


# mosquitoes that multiply slowly enough to pass BLOWUP_LIMIT months in:
# from 1e7 adults about day 110, from 1e3 adults about day 196
SLOW_BLOWUP = ModelParams.from_config(Config(rates={
    "egg_laying": "constant,0.5", "aquatic_dev": "constant,0.2",
    "aquatic_mort": "constant,0.05", "adult_mort": "constant,0.05"}))


def _mosquitoes(adults):
    return replace(default_init_state(Config()), A_M=0.0, M_S=adults)


class TestLaneErrors:
    """A batch whose runs fail on different days raises what the runs one
    at a time raise: the error of the first failing run, however the
    compiled loop groups them into lanes."""

    # (run lengths, adults of runs 1 and 3): runs 1 and 3 blow up; run 1
    # first in all four runs (one group) or after run 3 in a group that
    # goes to the loop first (two groups); or run 3 first in its lanes
    LAYOUTS = {
        "one group": ((366, 366, 366, 366), (1e7, 1e3)),
        "two groups": ((366, 365, 365, 366), (1e7, 1e3)),
        "later lane first": ((366, 366, 366, 366), (1e3, 1e7)),
    }

    @pytest.mark.parametrize("loop", DAY_LOOPS)
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_first_failing_run_named(self, layout, loop):
        sizes, (adults_1, adults_3) = self.LAYOUTS[layout]
        inits = [_mosquitoes(0.0), _mosquitoes(adults_1), _mosquitoes(0.0),
                 _mosquitoes(adults_3)]
        runs = [Run(constant_weather(n, temp=25.0), 1e15, init)
                for n, init in zip(sizes, inits)]
        days = {}
        for j in (1, 3):
            with pytest.raises(errors.BlowUp) as alone:
                simulate(SLOW_BLOWUP, runs[j].weather, 1e15, runs[j].init,
                         steps_per_day=2)
            days[j] = str(alone.value)
        # the lanes would meet the other run's blow-up first
        assert (days[1] < days[3]) == (adults_1 > adults_3)
        with day_loop(loop), pytest.raises(errors.BlowUp) as got:
            simulate_runs(SLOW_BLOWUP, runs, steps_per_day=2)
        assert str(got.value) == days[1]

    @pytest.mark.parametrize("loop", DAY_LOOPS)
    def test_failed_pulse_before_an_earlier_runs_error(self, loop):
        """Runs 0 and 2 share their lanes, which reach the pulse before run
        1 goes to the loop; run 2's state is NaN by then, but run 1's
        BlowUp comes first in run order and is raised."""
        # birds laying 1e300 eggs a day overflow to NaN without ever
        # passing BLOWUP_LIMIT; with no birds nothing happens
        params = ModelParams(rates={
            **SLOW_BLOWUP.rates,
            "bird_egg_laying": ThermalCurve.constant(1e300)})
        wx = constant_weather(366, temp=25.0)
        runs = [Run(wx.slice(0, 100), 1e15, CompartmentState(H_S=1e3),
                    seed_day=50),
                Run(wx, 1e15, _mosquitoes(1e7)),
                Run(wx.slice(0, 100), 1e15, CompartmentState(H_S=1e3, B_S=1.0),
                    seed_day=50)]
        with pytest.raises(errors.NonFiniteInput):
            _alone(params, runs[2], 2)
        with pytest.raises(errors.BlowUp) as want:
            _alone(params, runs[1], 2)
        with day_loop(loop), pytest.raises(errors.BlowUp) as got:
            simulate_runs(params, runs, steps_per_day=2)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("loop", DAY_LOOPS)
    def test_non_finite_end_state_before_a_later_runs_error(self, loop):
        """Run 0 ends in a NaN state without any day failing; run 1 blows
        up.  Each run's end state is checked as soon as the run ends, so
        run 0's NonFiniteInput is raised, not run 1's BlowUp."""
        params = ModelParams(rates={
            **SLOW_BLOWUP.rates,
            "bird_egg_laying": ThermalCurve.constant(1e300)})
        wx = constant_weather(366, temp=25.0)
        runs = [Run(wx.slice(0, 100), 1e15,
                    CompartmentState(H_S=1e3, B_S=1.0)),
                Run(wx, 1e15, _mosquitoes(1e7))]
        with pytest.raises(errors.NonFiniteInput) as want:
            reference_simulate(params, runs[0].weather, 1e15, runs[0].init,
                               steps_per_day=2)
        with pytest.raises(errors.BlowUp):
            reference_simulate(params, runs[1].weather, 1e15, runs[1].init,
                               steps_per_day=2)
        with day_loop(loop), pytest.raises(errors.NonFiniteInput) as got:
            simulate_runs(params, runs, steps_per_day=2)
        assert str(got.value) == str(want.value)


@st.composite
def lane_calls(draw):
    """1-9 runs of 0, 1, 365 or 366 days on weather objects that are
    shared or not, unseeded or seeded on day 0, mid-span or past the end,
    with scalar or per-day K and default, random, bird-free, human-free
    or mosquito-free start states."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # one or two lengths and pulse days per call, so that runs share lanes
    lengths = draw(st.lists(st.sampled_from((0, 1, 365, 366)), min_size=1,
                            max_size=2, unique=True))
    pulses = draw(st.lists(st.sampled_from((None, 0, "mid", "past")),
                           min_size=1, max_size=2, unique=True))
    weathers, runs = {}, []
    for _ in range(draw(st.integers(1, 9))):
        n = draw(st.sampled_from(lengths))
        if n not in weathers or not draw(st.booleans()):
            start = date(2021, 1, 1) + timedelta(days=int(rng.integers(0, 365)))
            weathers[n] = WeatherSeries(
                tuple(start + timedelta(days=i) for i in range(n)),
                rng.uniform(-5.0, 38.0, n), rng.uniform(0.0, 100.0, n),
                rng.uniform(0.0, 10.0, n))
        k = (float(rng.uniform(100.0, 20000.0)) if draw(st.booleans())
             else rng.uniform(100.0, 20000.0, n))
        kind = draw(st.sampled_from(("default", "random", "no_birds",
                                     "no_humans", "no_mosquitoes")))
        values = dict(zip(COMPARTMENTS, rng.uniform(0.0, 3000.0, 15)))
        if kind == "default":
            values = default_init_state(Config()).__dict__
        elif kind == "no_birds":
            values.update(E_B=0.0, F_B=0.0, B_S=0.0, B_E=0.0, B_I=0.0, B_R=0.0)
        elif kind == "no_humans":
            values.update(H_S=0.0, H_E=0.0, H_I=0.0, H_R=0.0)
        elif kind == "no_mosquitoes":
            values.update(E_M=0.0, A_M=0.0, M_S=0.0, M_E=0.0, M_I=0.0)
        seed_day = {None: None, 0: 0, "mid": n // 2, "past": n + 1}[
            draw(st.sampled_from(pulses))]
        runs.append(Run(weathers[n], k, CompartmentState(**values), seed_day,
                        float(rng.uniform(0.0, 50.0))))
    return runs


def _alone(params, run, steps):
    """``run`` simulated alone with ``reference_simulate``, split at the
    pulse."""
    if run.seed_day is None or not len(run.weather):
        return reference_simulate(params, run.weather, run.k_series, run.init,
                                  steps_per_day=steps)
    return split_seeded_reference(params, run.weather, run.k_series, run.init,
                                  run.seed_day, run.seed_birds, steps)


@given(runs=lane_calls(), rates=st.sampled_from(sorted(ORACLE_PARAMS)),
       steps=st.sampled_from((1, 2)))
@settings(max_examples=100, deadline=None)
def test_lanes_equal_runs_alone(runs, rates, steps):
    """simulate_runs, lanes and all, against the list-based RK4 on each
    run alone: the same arrays, clamp counts and end states, or the first
    failing run's error type and message."""
    params = ORACLE_PARAMS[rates]
    want, error = [], None
    for run in runs:
        try:
            want.append(_alone(params, run, steps))
        except errors.SpillcastError as exc:
            error = exc
            break
    for loop in DAY_LOOPS:
        with day_loop(loop):
            if error is not None:
                with pytest.raises(errors.SpillcastError) as got:
                    simulate_runs(params, runs, steps_per_day=steps)
                assert type(got.value) is type(error), loop
                assert str(got.value) == str(error), loop
                continue
            got = simulate_runs(params, runs, steps_per_day=steps)
        assert len(got) == len(runs)
        for g, w in zip(got, want):
            assert_same_trajectory(g, w)


def _weekly_expected_cases_oracle(traj, week_starts):
    """The original date-keyed sum: days outside the trajectory add 0.0,
    the rest add left to right as ``sum`` does."""
    by_date = dict(zip(traj.dates, traj.new_infections))
    totals = np.zeros(len(week_starts))
    for j, start in enumerate(week_starts):
        totals[j] = sum(by_date.get(start + timedelta(days=d), 0.0)
                        for d in range(7))
    return totals


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       offsets=st.lists(st.integers(-60, 60), max_size=20))
@settings(max_examples=100, deadline=None)
def test_weekly_expected_cases_equals_the_date_sum(seed, n, offsets):
    """Weeks before, straddling and after the trajectory, bit for bit;
    daily values of mixed magnitude make any regrouped sum differ."""
    rng = np.random.default_rng(seed)
    wx = constant_weather(n, start=date(2021, 2, 20))
    daily = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 17, n)
    traj = Trajectory(dates=wx.dates, states=np.zeros((n, 15)),
                      m=np.zeros(n), r0=np.zeros(n), new_infections=daily,
                      weather=wx)
    weeks = [wx.dates[0] + timedelta(days=o) for o in offsets]
    got = weekly_expected_cases_runs([traj], [weeks])[0]
    assert got.tobytes() == _weekly_expected_cases_oracle(traj, weeks).tobytes()


def test_weekly_expected_cases_keeps_the_left_to_right_order():
    """1e16 + 1 + 1 rounds back to 1e16 twice left to right; a pairwise
    or compensated sum would give 1e16 + 2."""
    wx = constant_weather(7, start=date(2021, 6, 7))
    daily = np.array([1e16, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    traj = Trajectory(dates=wx.dates, states=np.zeros((7, 15)), m=np.zeros(7),
                      r0=np.zeros(7), new_infections=daily, weather=wx)
    assert weekly_expected_cases_runs([traj], [[wx.dates[0]]])[0][0] == 1e16


class TestThermalRatesPerWeather:
    """The thermal rates are computed once per weather span: once for both
    halves of a seeded run, once for consecutive runs on one weather."""

    @pytest.fixture
    def rate_calls(self, monkeypatch):
        calls = []

        def counting(curve, temps):
            calls.append(len(temps))
            return eval_thermal_array(curve, temps)

        monkeypatch.setattr(epimodel, "eval_thermal_array", counting)
        return calls

    def test_runs_on_one_weather_share_one_rate_array(
            self, default_cfg, default_params, rate_calls):
        init = default_init_state(default_cfg)
        wx = sinusoid_weather(60)
        runs = [Run(wx, k, init, seed_day=20) for k in (2000.0, 5000.0, 9000.0)]
        simulate_runs(default_params, runs)
        assert rate_calls == [60] * len(epimodel._RATE_KEYS)

    @pytest.mark.parametrize("loop", DAY_LOOPS)
    def test_shared_and_interleaved_weather_bit_identical(
            self, default_cfg, default_params, loop):
        """Runs A, A, B, A: each equals the list-based RK4 of its run."""
        init = default_init_state(default_cfg)
        a, b = sinusoid_weather(50), sinusoid_weather(40, base=22.0)
        runs = [Run(a, 3000.0, init, seed_day=10), Run(a, 8000.0, init),
                Run(b, 5000.0, init, seed_day=5), Run(a, 5000.0, init, 30)]
        want = [reference_simulate(default_params, run.weather, run.k_series,
                                   init) if run.seed_day is None
                else split_seeded_reference(default_params, run.weather,
                                            run.k_series, init, run.seed_day,
                                            run.seed_birds, 24)
                for run in runs]
        with day_loop(loop):
            got = simulate_runs(default_params, runs)
        for g, w in zip(got, want):
            assert_same_trajectory(g, w)


# --- the state checks of the runner against CompartmentState -------------

def _pulse_oracle(y, seed_birds):
    """The pulse as first written: through CompartmentState and replace."""
    state = CompartmentState.from_values(y[:15])
    moved = min(seed_birds, state.B_S)
    seeded = replace(state, B_S=state.B_S - moved, B_I=state.B_I + moved)
    return seeded.as_list() + [0.0]


def _result_or_error(f, *args):
    try:
        return f(*args)
    except (errors.SpillcastError, ValueError) as exc:
        return type(exc), str(exc)


BAD_VALUES = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                              -1.0, -5e-324, -1e308])


@st.composite
def loop_states(draw):
    """16 floats as the day loop leaves them, up to the largest float (so
    that sums overflow), some made NaN, inf or negative."""
    y = draw(st.lists(st.floats(0.0, 1.7976931348623157e308), min_size=16,
                      max_size=16))
    for i in draw(st.lists(st.integers(0, 15), max_size=3)):
        y[i] = draw(BAD_VALUES)
    return y


@settings(max_examples=300, deadline=None)
@given(y=loop_states(),
       seed_birds=st.one_of(st.floats(0.0, 100.0), st.floats()))
def test_pulse_and_end_state_raise_as_compartment_state(y, seed_birds):
    """``_seed_pulse`` gives the first pulse's state or raises its error
    type and message; ``_check_state`` raises what ``from_values`` does."""
    assert (_result_or_error(epimodel._seed_pulse, list(y), seed_birds)
            == _result_or_error(_pulse_oracle, y, seed_birds))
    want = _result_or_error(CompartmentState.from_values, y[:15])
    got = _result_or_error(epimodel._check_state, y[:15])
    assert got == (want if isinstance(want, tuple) else None)


@pytest.mark.parametrize("loop", DAY_LOOPS)
@pytest.mark.parametrize("seed_birds", [float("nan"), float("-inf"), -1e9])
def test_bad_pulse_raises_as_the_reference(default_cfg, default_params, loop,
                                           seed_birds):
    """A pulse that makes B_S NaN or inf, or B_I negative, raises the
    reference's error type and message in both day loops, alone and
    behind a run in the same lanes."""
    wx = sinusoid_weather(30)
    init = default_init_state(default_cfg)
    bad = Run(wx, 5000.0, init, seed_day=10, seed_birds=seed_birds)
    with pytest.raises((errors.NonFiniteInput, ValueError)) as want:
        _alone(default_params, bad, 24)
    for runs in ([bad], [Run(wx, 5000.0, init, seed_day=10), bad]):
        with day_loop(loop), pytest.raises(type(want.value)) as got:
            simulate_runs(default_params, runs)
        assert str(got.value) == str(want.value)


@st.composite
def wide_lane_calls(draw):
    """1-20 short runs of one or two lengths and one or two pulse days
    (none, the first day, mid-span or past the end), so that groups of up
    to 20 runs go to the loop eight lanes at a time, with random weather,
    K and start states."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=2,
                            unique=True))
    pulses = draw(st.lists(st.sampled_from((None, 0, "mid", "past")),
                           min_size=1, max_size=2, unique=True))
    runs = []
    for _ in range(draw(st.integers(1, 20))):
        n = draw(st.sampled_from(lengths))
        start = date(2021, 1, 1) + timedelta(days=int(rng.integers(0, 365)))
        wx = WeatherSeries(
            tuple(start + timedelta(days=i) for i in range(n)),
            rng.uniform(-5.0, 38.0, n), rng.uniform(0.0, 100.0, n),
            rng.uniform(0.0, 10.0, n))
        k = (float(rng.uniform(100.0, 20000.0)) if draw(st.booleans())
             else rng.uniform(100.0, 20000.0, n))
        values = (default_init_state(Config()).__dict__ if draw(st.booleans())
                  else dict(zip(COMPARTMENTS, rng.uniform(0.0, 3000.0, 15))))
        seed_day = {None: None, 0: 0, "mid": n // 2, "past": n + 1}[
            draw(st.sampled_from(pulses))]
        runs.append(Run(wx, k, CompartmentState(**values), seed_day,
                        float(rng.uniform(0.0, 50.0))))
    return runs


@given(runs=wide_lane_calls(), rates=st.sampled_from(sorted(ORACLE_PARAMS)),
       steps=st.sampled_from((1, 2)))
@settings(max_examples=80, deadline=None)
def test_eight_lanes_equal_runs_alone(runs, rates, steps):
    """Up to 20 runs per call, so that calls of five to eight lanes occur:
    every run equals the list-based RK4 of it alone, or the call raises the
    first failing run's error."""
    params = ORACLE_PARAMS[rates]
    want, error = [], None
    for run in runs:
        try:
            want.append(_alone(params, run, steps))
        except errors.SpillcastError as exc:
            error = exc
            break
    for loop in DAY_LOOPS:
        with day_loop(loop):
            if error is not None:
                with pytest.raises(errors.SpillcastError) as got:
                    simulate_runs(params, runs, steps_per_day=steps)
                assert type(got.value) is type(error), loop
                assert str(got.value) == str(error), loop
                continue
            got = simulate_runs(params, runs, steps_per_day=steps)
        assert len(got) == len(runs)
        for g, w in zip(got, want):
            assert_same_trajectory(g, w)


def test_twenty_runs_go_to_the_loop_eight_at_a_time(default_cfg,
                                                    default_params,
                                                    monkeypatch):
    """Twenty runs of one length and pulse day make calls of 8, 8 and 4
    lanes."""
    if epimodel.kernel() != "c":
        pytest.skip("no compiled loop")
    lanes = []
    real = epimodel._kernel_advance

    def counting(advance, params, steps, n, rates, rate_rows, *rest):
        lanes.append(len(rate_rows))
        return real(advance, params, steps, n, rates, rate_rows, *rest)

    monkeypatch.setattr(epimodel, "_kernel_advance", counting)
    init = default_init_state(default_cfg)
    wx = sinusoid_weather(20)
    simulate_runs(default_params,
                  [Run(wx, 1000.0 * (j + 1), init) for j in range(20)])
    assert lanes == [8, 8, 4]


@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(0, 30), min_size=0, max_size=8),
       offsets=st.lists(st.lists(st.integers(-40, 40), max_size=6),
                        min_size=8, max_size=8))
@settings(max_examples=100, deadline=None)
def test_weekly_sums_of_many_runs_equal_the_date_sum(seed, sizes, offsets):
    """``weekly_expected_cases_runs`` over trajectories of several lengths
    (empty ones too), each with its own weeks, equals the date-keyed sum of
    each alone bit for bit."""
    rng = np.random.default_rng(seed)
    trajs, weeks = [], []
    for n, offs in zip(sizes, offsets):
        wx = constant_weather(n, start=date(2021, 2, 20)
                              + timedelta(days=int(rng.integers(0, 400))))
        daily = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 17, n)
        trajs.append(Trajectory(dates=wx.dates, states=np.zeros((n, 15)),
                                m=np.zeros(n), r0=np.zeros(n),
                                new_infections=daily, weather=wx))
        first = wx.dates[0] if n else date(2021, 2, 20)
        weeks.append([first + timedelta(days=o) for o in offs])
    got = epimodel.weekly_expected_cases_runs(trajs, weeks)
    assert len(got) == len(trajs)
    for g, traj, w in zip(got, trajs, weeks):
        assert g.tobytes() == _weekly_expected_cases_oracle(traj, w).tobytes()


@pytest.mark.parametrize("rates", sorted(ORACLE_PARAMS))
def test_rate_rows_equal_the_stacked_columns(rates):
    """The rate table filled column by column, constant curves broadcast,
    equals the stacked per-curve arrays bit for bit."""
    params = ORACLE_PARAMS[rates]
    temps = np.concatenate([
        np.random.default_rng(5).uniform(-10.0, 45.0, 500),
        [curve.t0 for curve in params.rates.values()],
        [curve.tm for curve in params.rates.values()]])
    want = np.column_stack([
        np.array([params.rates[key](t) for t in temps])
        for key in epimodel._RATE_KEYS])
    got = epimodel._rate_rows(params, temps)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# --- the disease-free day of the compiled loop ---------------------------------

_LIVE = [COMPARTMENTS.index(c) for c in ("E_M", "A_M", "M_S", "E_B", "F_B",
                                         "B_S")]
# the entries a disease-free day needs at +0.0: the infection compartments
# and the accumulator
_DEAD = [COMPARTMENTS.index(c) for c in ("H_E", "H_I", "H_R", "M_E", "M_I",
                                         "B_E", "B_I", "B_R")] + [15]
_SPOILERS = (None, "-0.0 state", "subnormal state", "-0.0 rate",
             "sum overflow", "NaN M_S", "infected birds", "huge M_S")


@st.composite
def disease_free_calls(draw):
    """One call of 1-8 lanes, each with its own rate rows, K and a
    disease-free start state, one lane of which may be spoiled: a -0.0 or a
    subnormal in an infection compartment, a -0.0 rate or two rates whose
    loss-rate sum overflows on one day, a NaN or huge M_S, or infected
    birds (the pulse)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lanes = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    rates = epimodel._rate_rows(ModelParams.from_config(Config()),
                                rng.uniform(-5.0, 38.0, lanes * n))
    k = rng.uniform(100.0, 20000.0, lanes * n)
    y = np.zeros((lanes, 16))
    y[:, 0] = rng.uniform(1.0, 3000.0, lanes)
    y[:, _LIVE] = rng.uniform(0.0, 3000.0, (lanes, len(_LIVE)))
    spoil = draw(st.sampled_from(_SPOILERS))
    lane = draw(st.integers(0, lanes - 1))
    row = lane * n + draw(st.integers(0, n - 1))
    if spoil in ("-0.0 state", "subnormal state"):
        y[lane, draw(st.sampled_from(_DEAD))] = (
            -0.0 if spoil == "-0.0 state" else 5e-324)
    elif spoil == "-0.0 rate":
        rates[row, draw(st.integers(0, 15))] = -0.0
    elif spoil == "sum overflow":
        # lam_b + mu_wb: both finite, their sum inf
        rates[row, 12:14] = 1e308
    elif spoil == "NaN M_S":
        y[lane, 6] = np.nan
    elif spoil == "huge M_S":
        y[lane, 6] = 1e308
    elif spoil == "infected birds":
        y[lane, 13] = 20.0
    return lanes, n, draw(st.integers(1, 3)), rates, k, y, spoil, lane


def _same_bits(a, b):
    """Equal bit for bit, except that any NaN equals any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@given(call=disease_free_calls())
@settings(max_examples=150, deadline=None)
def test_disease_free_days_equal_the_python_loop(call):
    """The compiled loop, which integrates a disease-free day on its six
    live compartments, against ``_advance`` on each lane alone, day by
    day: the same outputs, end state and clamp count bit for bit, or a
    failure on the day and of the kind of the Python loop.  An unspoiled
    call takes the disease-free day on every day of every lane; a spoiled
    lane takes the full body on at least one day."""
    if epimodel.kernel() != "c":
        pytest.skip("no compiled loop")
    lanes, n, steps, rates, k, y, spoil, lane = call
    params = ModelParams.from_config(Config())
    wx = constant_weather(n)
    want = [(np.empty((n, 15)), np.empty(n), np.empty(n), np.empty(n))
            for _ in range(lanes)]
    ends, clamps, failures = [], [], {}
    for l in range(lanes):
        state, count = y[l].tolist(), 0
        for i in range(n):
            try:
                state, c = epimodel._advance(
                    params, wx, rates[l * n:(l + 1) * n], k[l * n:(l + 1) * n],
                    state, steps, i, i + 1, want[l])
            except (errors.ZeroDenominator, errors.BlowUp) as exc:
                failures[l] = (i, type(exc))
                break
            count += c
        ends.append(state)
        clamps.append(count)
    got = (np.empty((lanes * n, 15)), np.empty(lanes * n),
           np.empty(lanes * n), np.empty(lanes * n))
    state = y.copy()
    status, day, got_clamps, free = epimodel._kernel_advance(
        epimodel._load_kernel(), params, steps, n, rates,
        [l * n for l in range(lanes)], k, [l * n for l in range(lanes)], got,
        state)
    if status:
        assert failures, status
        kind = errors.BlowUp if status == 4 else errors.ZeroDenominator
        assert any(failures.get(l) == (day, kind) for l in failures)
        return
    assert not failures
    for l in range(lanes):
        for g, w in zip(got, want[l]):
            assert _same_bits(g[l * n:(l + 1) * n], w)
        assert _same_bits(state[l], ends[l])
    assert got_clamps.tolist() == clamps
    if spoil is None:
        assert free.tolist() == [n] * lanes
    elif spoil != "huge M_S":
        assert free[lane] < n


@pytest.mark.parametrize("lanes", [1, 3, 6])
def test_overflow_within_a_day_raises_as_the_python_loop(lanes):
    """Mosquitoes laying 1e300 eggs a day overflow M_S within the first
    day, which a disease-free day must not integrate past: the compiled
    loop raises the Python loop's error on the same day."""
    params = ModelParams.from_config(Config(rates={
        "egg_laying": "constant,1e300", "aquatic_dev": "constant,1e3"}))
    runs = [Run(constant_weather(10), 1e300, default_init_state(Config()))
            for _ in range(lanes)]
    raised = []
    for loop in DAY_LOOPS:
        with day_loop(loop), pytest.raises(errors.BlowUp) as got:
            simulate_runs(params, runs, steps_per_day=2)
        raised.append(str(got.value))
    assert raised[0] == raised[1]


def test_disease_free_days_are_counted(default_params, monkeypatch):
    """Unseeded runs with no infection, as the warming trend simulates
    them, take the disease-free day on every day, alone and in lanes;
    runs seeded on day 90 on exactly the 90 days before the pulse."""
    if epimodel.kernel() != "c":
        pytest.skip("no compiled loop")
    free = {}
    real = epimodel._kernel_advance

    def counting(advance, params, steps, n, rates, rate_rows, k_arr, rows,
                 *rest):
        done = real(advance, params, steps, n, rates, rate_rows, k_arr, rows,
                    *rest)
        for row, count in zip(rows, done[3].tolist()):
            free[row] = free.get(row, 0) + count
        return done

    monkeypatch.setattr(epimodel, "_kernel_advance", counting)
    init = default_init_state(synth.default_config())
    wx = sinusoid_weather(365)
    for width in (1, 3, 8):
        runs = [Run(wx, 1000.0 * (j + 1), init) for j in range(width)]
        runs += [Run(wx, 1000.0 * (j + 1), init, seed_day=90)
                 for j in range(width)]
        free.clear()
        simulate_runs(default_params, runs)
        # each run's first row, and the row after its pulse
        counts = [free.get(365 * j, 0) + free.get(365 * j + 90, 0)
                  for j in range(2 * width)]
        assert counts == [365] * width + [90] * width

import math

import numpy as np
import pytest

from spillcast.epimodel import _r0_inputs, default_init_state, simulate
from spillcast.errors import ZeroDenominator
from spillcast.r0 import R0Inputs, exposed_survival, r0, r0_bird, r0_mosquito

from tests.conftest import constant_weather


def inputs(**kw):
    base = dict(beta_b_to_m=1.0, delta_b=1.0, mu_b=1.0, lambda_b=0.0,
                mu_wnd_b=1.0, beta_m_to_b=1.0, pdr=1.0, mu_m=1.0,
                m_s=2.0, b_s=4.0)
    base.update(kw)
    return R0Inputs(**base)


class TestBirdComponent:
    def test_direct_arithmetic(self):
        # beta*M_S*delta / ((delta+mu)(lambda+mu_wnd+mu)) = 2 / (2*2)
        assert r0_bird(inputs()) == pytest.approx(0.5)

    def test_zero_incubation_gives_zero(self):
        assert r0_bird(inputs(delta_b=0.0)) == 0.0

    def test_monotone_decreasing_in_bird_mortality(self):
        values = [r0_bird(inputs(mu_b=mu)) for mu in (1.0, 10.0, 100.0)]
        assert values[0] > values[1] > values[2]

    def test_mean_infectious_duration_identity(self):
        # with no recovery and no disease mortality the component factors as
        # beta * M_S * survival(delta, mu) * (1 / mu)
        vals = inputs(lambda_b=0.0, mu_wnd_b=0.0, delta_b=0.3, mu_b=0.1,
                      beta_b_to_m=0.7, m_s=11.0)
        expected = 0.7 * 11.0 * exposed_survival(0.3, 0.1) * (1.0 / 0.1)
        assert r0_bird(vals) == pytest.approx(expected, rel=1e-12)


class TestMosquitoComponent:
    def test_direct_arithmetic(self):
        v = inputs(beta_m_to_b=1.0, b_s=3.0, pdr=1.0, mu_m=1.0)
        assert r0_mosquito(v) == pytest.approx(1.5)

    def test_zero_pdr_gives_zero(self):
        assert r0_mosquito(inputs(pdr=0.0)) == 0.0

    def test_factorization(self):
        v = inputs(beta_m_to_b=0.4, b_s=10.0, pdr=0.2, mu_m=0.1)
        expected = (0.2 / 0.3) * (1.0 / 0.1) * 0.4 * 10.0
        assert r0_mosquito(v) == pytest.approx(expected, rel=1e-12)
        assert r0_mosquito(v) == pytest.approx(26.0 + 2.0 / 3.0, rel=1e-9)


class TestGeometricMean:
    def test_geometric_mean(self):
        # bird component 0.5, mosquito component 2.0
        v = inputs(m_s=2.0, b_s=4.0)
        assert r0_bird(v) == pytest.approx(0.5)
        assert r0_mosquito(v) == pytest.approx(2.0)
        assert r0(v) == pytest.approx(1.0)

    def test_zero_susceptible_mosquitoes(self):
        assert r0(inputs(m_s=0.0)) == 0.0

    def test_doubling_both_counts_doubles_r0(self):
        assert r0(inputs(m_s=4.0, b_s=8.0)) == pytest.approx(2.0)

    def test_symmetry_of_components(self):
        # swapping the two component values leaves the geometric mean alone
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.uniform(0.01, 20.0, 2)
            assert math.sqrt(a * b) == pytest.approx(math.sqrt(b * a))

    def test_both_components_zero_returns_zero(self):
        assert r0(inputs(m_s=0.0, b_s=0.0)) == 0.0

    def test_disease_free_rates_no_error_with_zero_denominators(self):
        # out-of-season: every rate zero; must return 0, not raise
        v = R0Inputs(beta_b_to_m=0.0, delta_b=0.0, mu_b=0.0, lambda_b=0.0,
                     mu_wnd_b=0.0, beta_m_to_b=0.0, pdr=0.0, mu_m=0.0,
                     m_s=100.0, b_s=100.0)
        assert r0(v) == 0.0

    def test_zero_denominator_with_nonzero_numerator_raises(self):
        with pytest.raises(ZeroDenominator):
            r0_mosquito(inputs(mu_m=0.0))
        with pytest.raises(ZeroDenominator):
            r0_bird(R0Inputs(beta_b_to_m=1.0, delta_b=1.0, mu_b=-1.0,
                             lambda_b=0.0, mu_wnd_b=0.0, beta_m_to_b=1.0,
                             pdr=1.0, mu_m=1.0, m_s=1.0, b_s=1.0))


    @pytest.mark.parametrize("numerator_zero", [False, True])
    def test_underflowed_denominator_raises(self, numerator_zero):
        """Positive factors whose product underflows to 0.0, in
        (delta_b + mu_b) * (lambda_b + mu_wnd_b + mu_b) and in
        mu_m * (pdr + mu_m): both components used to end in a bare
        ZeroDivisionError, even over a zero numerator."""
        zero = dict(m_s=0.0, b_s=0.0) if numerator_zero else {}
        bird = inputs(delta_b=1e-170, mu_b=1e-170, lambda_b=1e-170,
                      mu_wnd_b=1e-170, **zero)
        mosquito = inputs(mu_m=1e-170, pdr=1e-170, **zero)
        messages = []
        for component, rates in ((r0_bird, bird), (r0_mosquito, mosquito)):
            with pytest.raises(ZeroDenominator) as exc:
                component(rates)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

class TestExposedSurvival:
    @pytest.mark.parametrize("progress,death,expected", [
        (1.0, 1.0, 0.5),
        (2.0, 0.0, 1.0),
        (0.3, 0.1, 0.75),
    ])
    def test_exact_values(self, progress, death, expected):
        assert exposed_survival(progress, death) == pytest.approx(expected)

    def test_zero_total_rate(self):
        with pytest.raises(ZeroDenominator):
            exposed_survival(0.0, 0.0)

    def test_monte_carlo_exponential_race(self):
        # oracle: fraction of races in which progression beats death
        rng = np.random.default_rng(12345)
        n = 10**6
        for _ in range(10):
            progress = rng.uniform(0.05, 3.0)
            death = rng.uniform(0.05, 3.0)
            t_progress = rng.exponential(1.0 / progress, n)
            t_death = rng.exponential(1.0 / death, n)
            empirical = np.mean(t_progress < t_death)
            p = exposed_survival(progress, death)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(empirical - p) < 3.0 * se


def test_trajectory_r0_single_code_path(default_cfg, default_params):
    """The per-day trajectory R0 must equal r0() on inputs assembled from
    that day's thermal rates and susceptible counts, exactly."""
    wx = constant_weather(30, temp=24.0)
    init = default_init_state(default_cfg)
    traj = simulate(default_params, wx, np.full(30, 5000.0), init)
    for i in (0, 7, 29):
        n_inputs = _r0_inputs(
            default_params.daily_rates(float(wx.temp_mean[i])),
            m_s=float(traj.states[i, 6]), b_s=float(traj.states[i, 11]),
        )
        assert traj.r0[i] == r0(n_inputs)

"""The special-function ports against scipy.special, their oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf as scipy_erf
from scipy.special import erfc as scipy_erfc
from scipy.special import gammaln
from scipy.special import kolmogorov as scipy_kolmogorov
from scipy.special import ndtr as scipy_ndtr
from scipy.special import stdtr

from spillcast.special import erf, erfc, kolmogorov, lgam, ndtr, t_tail

# the largest relative difference from 2 * stdtr(dof, -|t|) that t_tail
# may show for dof 3-200 wherever that tail is at least 1e-300
T_TAIL_RTOL = 1e-13


def same_doubles(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all((got == want) | (np.isnan(got) & np.isnan(want))))


def with_neighbours(points):
    """Each point, its negation and the doubles next to both."""
    points = np.array(points, dtype=float)
    points = np.concatenate([points, -points])
    return np.concatenate([points, np.nextafter(points, np.inf),
                           np.nextafter(points, -np.inf)])


def test_equals_gammaln_on_every_branch():
    rng = np.random.default_rng(20)
    k = np.arange(201.0)[:, None]
    r = 10.0 ** rng.uniform(-3.0, 6.0, (1, 200))
    args = np.concatenate([
        rng.uniform(0.0, 2.0, 20000),            # shifted up to [2, 3)
        rng.uniform(2.0, 3.0, 20000),            # rational approximation
        rng.uniform(3.0, 13.0, 20000),           # shifted down to [2, 3)
        rng.uniform(13.0, 1000.0, 20000),        # full Stirling series
        rng.uniform(1000.0, 1e8, 20000),         # short Stirling series
        10.0 ** rng.uniform(8.0, 306.0, 5000),   # no series; past 2.6e305 inf
        np.arange(1.0, 5001.0),
        (k + r).ravel(),                         # NB arguments counts + r
        rng.uniform(-34.0, 0.0, 5000),           # reflection by recurrence
        -(10.0 ** rng.uniform(1.6, 300.0, 5000)),  # reflection formula
        -np.arange(0.0, 60.0),                   # poles
        [0.0, -0.0, 5e-324, 1e-320, 2.556348e305, math.inf, -math.inf,
         math.nan],
    ])
    got = [lgam(a) for a in args.tolist()]
    assert same_doubles(got, gammaln(args))


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
@example(2.0)
@example(3.0)
@example(13.0)
@example(1000.0)
@example(1e8)
def test_equals_gammaln_on_any_double(x):
    assert same_doubles(lgam(x), gammaln(x))


# erf and erfc switch at |x| = 1 and 8 and underflow past sqrt(MAXLOG);
# ndtr(a) takes x = a / sqrt(2) and switches at |x| = 1/sqrt(2)
ERF_EDGES = [0.0, 1.0, 8.0, math.sqrt(7.09782712893383996843E2), 26.6, 27.3]
NDTR_EDGES = [0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5, 37.7,
              38.6, 38.7, 1e-300, 5e-324, 1e300]


def test_erf_and_erfc_equal_scipy():
    rng = np.random.default_rng(22)
    args = np.concatenate([
        np.linspace(-30.0, 30.0, 60001),
        rng.normal(0.0, 3.0, 10000),
        with_neighbours(ERF_EDGES),
        [math.nan, math.inf, -math.inf, 5e-324, -5e-324],
    ])
    values = args.tolist()
    assert same_doubles([erf(a) for a in values], scipy_erf(args))
    assert same_doubles([erfc(a) for a in values], scipy_erfc(args))


def test_ndtr_equals_scipy():
    rng = np.random.default_rng(23)
    args = np.concatenate([
        np.linspace(-40.0, 40.0, 160001),
        rng.normal(0.0, 1.0, 20000),       # standardized residuals
        with_neighbours(NDTR_EDGES),
        with_neighbours(np.array(ERF_EDGES) * math.sqrt(2.0)),
        [math.nan, math.inf, -math.inf],
    ])
    got = [ndtr(a) for a in args.tolist()]
    assert same_doubles(got, scipy_ndtr(args))


# theta series up to 0.82, alternating series above; exp underflows in
# both forms of the theta series at about 0.0406, and sf reaches 0 by 19.4
KOLMOGOROV_EDGES = [0.0, 0.82, math.pi / math.sqrt(748 * 8), 0.0405, 0.041,
                    0.12, 19.4, 27.3, 1e154, 1e300, 5e-324]


def test_kolmogorov_equals_scipy():
    rng = np.random.default_rng(24)
    args = np.concatenate([
        np.linspace(0.0, 12.0, 120001),
        rng.uniform(0.0, 0.82, 10000),
        rng.uniform(0.82, 3.0, 10000),
        with_neighbours(KOLMOGOROV_EDGES),
        [math.nan, math.inf, -math.inf, -1.0],
    ])
    got = [kolmogorov(x) for x in args.tolist()]
    assert same_doubles(got, scipy_kolmogorov(args))


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
@example(0.82)
@example(0.8200000000000001)
@example(1.0 / math.sqrt(2.0))
@example(8.0 * math.sqrt(2.0))
def test_ports_equal_scipy_on_any_double(x):
    assert same_doubles(ndtr(x), scipy_ndtr(x))
    assert same_doubles(erf(x), scipy_erf(x))
    assert same_doubles(erfc(x), scipy_erfc(x))
    assert same_doubles(kolmogorov(x), scipy_kolmogorov(x))


def t_tail_rel_diff(dof, ts):
    """Largest relative difference of t_tail from scipy over ``ts``, where
    scipy's tail is at least 1e-300."""
    ts = np.asarray(ts, dtype=float)
    want = 2.0 * stdtr(dof, -np.abs(ts))
    keep = want >= 1e-300
    got = np.array([t_tail(dof, t) for t in ts[keep].tolist()])
    return float(np.max(np.abs(got - want[keep]) / want[keep]))


@pytest.mark.parametrize("dof", [3, 4, 5, 8, 13, 28, 31, 64, 99, 100, 163,
                                 198, 199, 200])
def test_t_tail_within_bound_of_stdtr(dof):
    # the switch to the power series lies at x = (a + 1) / (a + 2.5), and
    # Boost's switch at t^2 = dof / 2
    a = dof / 2
    x_switch = (a + 1.0) / (a + 2.5)
    t_switch = math.sqrt(dof * (1.0 - x_switch) / x_switch)
    ts = np.concatenate([
        np.linspace(0.0, 12.0, 1201),
        np.geomspace(1e-9, 10.0 ** min(150.0, 300.0 / dof + 1.0), 300),
        with_neighbours([t_switch, math.sqrt(dof / 2)]),
    ])
    assert t_tail_rel_diff(dof, ts) <= T_TAIL_RTOL


@settings(max_examples=1000, deadline=None)
@given(st.integers(3, 200), st.floats(0.0, 1e150))
@example(3, 1e100)
@example(200, 38.0)
def test_t_tail_within_bound_on_any_t(dof, t):
    want = 2.0 * float(stdtr(dof, -t))
    if want >= 1e-300:
        assert abs(t_tail(dof, t) - want) <= T_TAIL_RTOL * want


def test_t_tail_is_one_at_zero_and_even():
    for dof in (1, 2, 3, 30, 200, 10_000):
        assert t_tail(dof, 0.0) == t_tail(dof, -0.0) == 1.0
        for t in (1e-300, 1e-8, 0.7, 3.0, 40.0):
            assert t_tail(dof, t) == t_tail(dof, -t)
            assert 0.0 <= t_tail(dof, t) <= 1.0
        assert t_tail(dof, math.inf) == 0.0
    # the Cauchy (dof 1) and dof 2 tails in closed form
    for t in (0.1, 1.0, 7.0, 1e6, 1e150):
        assert t_tail(1, t) == pytest.approx(2.0 / math.pi * math.atan(1.0 / t),
                                             rel=1e-14)
        root = math.sqrt(2.0 + t * t)
        assert t_tail(2, t) == pytest.approx(2.0 / (root * (root + t)),
                                             rel=1e-14)


@pytest.mark.parametrize("dof, error", [(0, ValueError), (-3, ValueError),
                                        (2.5, TypeError), (3.0, TypeError)])
def test_t_tail_rejects_a_dof_that_is_not_a_positive_integer(dof, error):
    with pytest.raises(error):
        t_tail(dof, 1.0)
    assert t_tail(np.int64(3), 1.0) == t_tail(3, 1.0)

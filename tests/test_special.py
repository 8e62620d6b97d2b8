"""lgam against scipy.special.gammaln, the oracle it ports."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from spillcast.special import lgam


def same_doubles(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all((got == want) | (np.isnan(got) & np.isnan(want))))


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

"""Logarithmic scoring of weekly forecasts and the Negative-Binomial
one-step baseline.

Every model is scored on the same footing: a probability distribution over
counts 0..x_cap, scored as ln(prob of the observed count) floored at a
configured minimum.  Totals are split into the zero-week score (ZS) and
nonzero-week score (NZS), with TS = ZS + NZS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    TooFewObservations,
    UnnormalizedDist,
    WeekMismatch,
)
from .ingest import CaseSeries
from .special import lgam

DEFAULT_FLOOR = -10.0
DEFAULT_X_CAP = 100
NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class PredictiveDist:
    """Forecast distribution over counts 0..x_cap for one week."""

    week: object                 # date of the week start
    probs: np.ndarray

    def __post_init__(self):
        if np.any(self.probs < 0):
            raise UnnormalizedDist("negative probability")
        if not abs(float(np.sum(self.probs)) - 1.0) <= NORMALIZATION_TOL:
            raise UnnormalizedDist(f"probabilities sum to {np.sum(self.probs)}")

    @property
    def x_cap(self) -> int:
        return len(self.probs) - 1


def log_score(dist: PredictiveDist, observed: int,
              floor: float = DEFAULT_FLOOR) -> float:
    """ln of the probability assigned to the observation, floored.

    Observations beyond the distribution's support score the floor.
    """
    if not abs(float(np.sum(dist.probs)) - 1.0) <= NORMALIZATION_TOL:
        raise UnnormalizedDist("distribution is not normalized")
    if observed < 0 or observed > dist.x_cap:
        return floor
    p = float(dist.probs[observed])
    if p <= 0.0:
        return floor
    return max(math.log(p), floor)


def bayesian_predictive(predicted: int, sigma: float = 1.5,
                        x_cap: int = DEFAULT_X_CAP,
                        week=None) -> PredictiveDist:
    """Widen an MPP point prediction into a scorable distribution.

    A Gaussian kernel centered on the prediction is discretized over
    0..x_cap and renormalized.  It degenerates to a point mass on the count
    nearest the prediction, ``min(predicted, x_cap)``, when the weight of
    every other count underflows to zero: for sigma = 0, for a sigma too
    small to divide by, and for a prediction so far beyond x_cap that the
    nearest count's weight may underflow too (renormalizing would divide
    0 by 0).  Wherever the Gaussian itself gives a point mass, the two
    agree bit for bit.
    """
    if predicted < 0:
        raise ValueError("negative prediction")
    support = np.arange(x_cap + 1)
    nearest = min(predicted, x_cap)
    # z of the next-nearest count, in Python floats, where 1 / 1e-320 and
    # inf * inf are inf without a warning
    t = (float(abs(predicted - nearest) + 1) / float(sigma) if sigma
         else math.inf)
    if math.exp(-0.5 * t * t) == 0.0:
        probs = (support == nearest).astype(float)
    else:
        z = (support - predicted) / sigma
        probs = np.exp(-0.5 * z * z)
        probs /= probs.sum()
    return PredictiveDist(week=week, probs=probs)


@dataclass(frozen=True)
class NegBinModel:
    """pmf(k) = C(k+r-1, k) p^r (1-p)^k with mean r(1-p)/p, or a Poisson
    fallback when the data are underdispersed."""

    r: float = 0.0
    p: float = 0.0
    poisson_mean: float | None = None

    def __post_init__(self):
        if self.poisson_mean is None:
            if self.r <= 0 or not 0.0 < self.p < 1.0:
                raise ValueError(f"bad NB parameters r={self.r}, p={self.p}")
        elif self.poisson_mean < 0:
            raise ValueError("negative Poisson mean")

    def log_pmf(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        if self.poisson_mean is not None:
            mu = self.poisson_mean
            if mu == 0.0:
                return np.where(k == 0, 0.0, -np.inf)
            return k * math.log(mu) - mu - _lgam_each(k + 1)
        return (
            _lgam_each(k + self.r) - lgam(self.r) - _lgam_each(k + 1)
            + self.r * math.log(self.p) + k * math.log1p(-self.p)
        )

    def pmf(self, k) -> np.ndarray:
        return np.exp(self.log_pmf(k))

    def mean(self) -> float:
        if self.poisson_mean is not None:
            return self.poisson_mean
        return self.r * (1.0 - self.p) / self.p


def _lgam_each(values: np.ndarray) -> np.ndarray:
    """Elementwise lgam, evaluated once per distinct value."""
    distinct, index = np.unique(values, return_inverse=True)
    lg = np.array([lgam(v) for v in distinct.tolist()])
    return lg[index.reshape(np.shape(values))]   # numpy < 2: flat inverse


def negbin_loglik(counts, r: float, p: float) -> float:
    counts = np.asarray(counts, dtype=float)
    return _NegBinProfile(counts).loglik(r, p)


class _NegBinProfile:
    """NB log-likelihood of one count sample at varying (r, p).

    lgam(counts + 1) is computed once, and lgam(counts + r) once per
    distinct count; each element keeps the value an elementwise
    evaluation gives, so the sum is unchanged."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        distinct, index = np.unique(counts, return_inverse=True)
        self._distinct = distinct.tolist()
        self._index = index.reshape(counts.shape)
        self._lgam_counts1 = self._lgam_shifted(1.0)

    def _lgam_shifted(self, shift: float) -> np.ndarray:
        return np.array([lgam(c + shift) for c in self._distinct])[self._index]

    def loglik(self, r: float, p: float) -> float:
        return float(np.sum(
            self._lgam_shifted(r) - lgam(r) - self._lgam_counts1
            + r * math.log(p) + self.counts * math.log1p(-p)
        ))


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_MAXITER = 500


def _bounded_minimize(func, lo: float, hi: float, xatol: float) -> float:
    """Minimizer of func on [lo, hi] by Brent's bounded search.

    A port of scipy.optimize's ``_minimize_scalar_bounded`` step for step,
    so it returns the same double as ``minimize_scalar(func, bounds=(lo,
    hi), method="bounded", options={"xatol": xatol}).x``.  Where scipy
    would report failure, this raises NoConvergence: on a non-finite
    objective value, and after its 500 evaluations.
    """
    def evaluate(x):
        fx = func(x)
        if not math.isfinite(fx):
            raise NoConvergence(f"objective is {fx} at {x!r}")
        return fx

    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = evaluate(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabolic fit through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e

        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = evaluate(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _MAXITER:
            raise NoConvergence(
                f"bounded search did not converge in {_MAXITER} evaluations")
    return xf


def fit_negbin(history, min_obs: int = 8) -> NegBinModel:
    """Maximum-likelihood Negative Binomial fit.

    The dispersion r is found by a 1-D profile search (p is closed-form
    given r: p = r / (r + mean)).  Underdispersed samples (variance <=
    mean) fall back to a Poisson with the MLE mean.
    """
    counts = np.asarray(history, dtype=float)
    if len(counts) < min_obs:
        raise TooFewObservations(
            f"need at least {min_obs} observations, got {len(counts)}"
        )
    if np.any(counts < 0):
        raise ValueError("negative counts")
    mean = float(np.mean(counts))
    var = float(np.var(counts, ddof=1))
    if var <= mean or mean == 0.0:
        return NegBinModel(poisson_mean=mean)

    profile = _NegBinProfile(counts)

    def neg_profile(log_r):
        r = math.exp(log_r)
        p = r / (r + mean)
        return -profile.loglik(r, p)

    r = math.exp(_bounded_minimize(neg_profile, math.log(1e-3),
                                   math.log(1e6), xatol=1e-10))
    return NegBinModel(r=r, p=r / (r + mean))


def nb_one_step(window, x_cap: int = DEFAULT_X_CAP, min_obs: int = 8,
                week=None) -> PredictiveDist:
    """Refit on the window and return next week's truncated pmf."""
    model = fit_negbin(window, min_obs=min_obs)
    probs = model.pmf(np.arange(x_cap + 1))
    total = probs.sum()
    if total <= 0:
        raise UnnormalizedDist("truncated pmf has zero mass")
    return PredictiveDist(week=week, probs=probs / total)


@dataclass(frozen=True)
class ScoreReport:
    weeks: tuple
    observed: tuple
    scores: tuple
    floor: float = DEFAULT_FLOOR

    @property
    def ts(self) -> float:
        return float(sum(self.scores))

    @property
    def zs(self) -> float:
        return float(sum(s for s, o in zip(self.scores, self.observed) if o == 0))

    @property
    def nzs(self) -> float:
        return float(sum(s for s, o in zip(self.scores, self.observed) if o > 0))


def score_run(predictions, observations: CaseSeries,
              floor: float = DEFAULT_FLOOR) -> ScoreReport:
    """Score aligned weekly predictions; weeks must match one-to-one."""
    if len(predictions) != len(observations):
        raise WeekMismatch(
            f"{len(predictions)} predictions vs {len(observations)} observations"
        )
    scores = []
    for dist, wk, obs in zip(predictions, observations.week_starts,
                             observations.counts):
        if dist.week is not None and dist.week != wk:
            raise WeekMismatch(f"prediction week {dist.week} != observed week {wk}")
        scores.append(log_score(dist, int(obs), floor))
    return ScoreReport(
        weeks=tuple(observations.week_starts),
        observed=tuple(int(c) for c in observations.counts),
        scores=tuple(scores),
        floor=floor,
    )

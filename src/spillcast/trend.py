"""Multi-decade warming-trend analysis of onset risk.

Each year of a climate archive is simulated and classified against a
fitted onset density; annual indicators (fraction of High days, and High
days among all at-risk days) are regressed on the year with standard OLS
inference, and the residuals are checked for normality with a
Kolmogorov-Smirnov test against a normal with plug-in mean and SD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov, ndtr, stdtr

from .config import Config
from .epimodel import ModelParams, Run, default_init_state, simulate_runs
from .errors import EmptyYear, TooFewResiduals, TooFewYears, ZeroVariance
from .ingest import WeatherSeries
from .onset import OnsetPdf, RiskLevel, classify_days


def annual_indicators(levels) -> tuple:
    """(r_year, r_relative) for one year of daily risk levels.

    r_year is the fraction of High days among all days; r_relative is the
    fraction of High days among all non-Green days (0 when the year has
    no risk days at all).
    """
    levels = list(levels)
    if not levels:
        raise EmptyYear("no risk levels")
    n_high = levels.count(RiskLevel.HIGH)
    n_risk = len(levels) - levels.count(RiskLevel.GREEN)
    r_year = n_high / len(levels)
    r_relative = n_high / n_risk if n_risk else 0.0
    return r_year, r_relative


@dataclass(frozen=True)
class TrendResult:
    slope: float
    intercept: float
    stderr: float
    p_value: float
    residuals: np.ndarray
    ks_p: float

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("negative standard error")
        for name in ("p_value", "ks_p"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")


def ols_trend(years, values) -> TrendResult:
    """Simple linear regression of an annual indicator on the year.

    Years are centered before solving (slope and its inference are
    unaffected; the reported intercept is for the original year axis).
    Slope inference uses the t distribution with n - 2 df.
    """
    x = np.asarray(years, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(set(x.tolist())) < 3:
        raise TooFewYears("need at least 3 distinct years")
    if len(x) != len(y):
        raise ValueError("years and values differ in length")
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ZeroVariance("all years identical")

    slope = float(xc @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(x) - 2
    sigma2 = float(resid @ resid) / dof
    stderr = math.sqrt(sigma2 / sxx)
    if stderr == 0.0:
        # perfect fit: a slope at solver-noise level is a flat line
        tiny = 1e-12 * max(1.0, float(np.max(np.abs(y))))
        p_value = 1.0 if abs(slope) <= tiny else 0.0
    else:
        # two-sided t tail: stdtr(dof, -x) is the survival function at x
        p_value = 2.0 * float(stdtr(dof, -abs(slope / stderr)))

    ks_p = ks_normality(resid) if len(resid) >= 5 else 1.0
    return TrendResult(slope=slope, intercept=intercept, stderr=stderr,
                       p_value=p_value, residuals=resid, ks_p=ks_p)


def ks_normality(residuals) -> float:
    """Kolmogorov-Smirnov p-value for residual normality.

    The reference normal uses the residuals' sample mean and SD (plug-in,
    Lilliefors-style: the p-value from the asymptotic Kolmogorov
    distribution is therefore approximate).
    """
    r = np.sort(np.asarray(residuals, dtype=float))
    n = len(r)
    if n < 5:
        raise TooFewResiduals(f"need at least 5 residuals, got {n}")
    sd = float(np.std(r, ddof=1))
    if sd == 0.0:
        # all residuals identical carry no evidence against normality
        return 1.0
    cdf = ndtr((r - r.mean()) / sd)
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (np.arange(n) / n)))
    d = max(d_plus, d_minus)
    return float(kolmogorov(math.sqrt(n) * d))


@dataclass(frozen=True)
class TrendReport:
    years: tuple
    r_year: np.ndarray
    r_relative: np.ndarray
    trend_r_year: TrendResult
    trend_r_relative: TrendResult


def trend_report(archive: WeatherSeries, pdf: OnsetPdf, params: ModelParams,
                 k_predictor, cfg: Config) -> TrendReport:
    """Per-year risk indicators over a multi-decade archive plus OLS
    trends for both.

    ``k_predictor`` maps a year's WeatherSeries to its carrying-capacity
    series (typically the fitted precipitation-bin planes); a K <= 0
    raises NonFiniteInput.  Every year starts from the default initial
    state; the years go to ``simulate_runs`` together, bit-identical to
    simulating each year alone, and all their days are classified in one
    ``classify_days`` call, bit-identical to ``forecast_onset`` year by
    year.
    """
    by_year = archive.year_slices()
    years = sorted(by_year)
    if len(years) < 10:
        raise TooFewYears(f"need at least 10 years of weather, got {len(years)}")

    init = default_init_state(cfg)
    runs = [Run(by_year[year], k_predictor(by_year[year]).values, init)
            for year in years]
    trajs = simulate_runs(params, runs, steps_per_day=cfg.steps_per_day)
    # a day's density does not depend on the days classified with it
    _, levels = classify_days(pdf, np.concatenate([t.m for t in trajs]),
                              np.concatenate([t.r0 for t in trajs]))
    ends = np.cumsum([len(t) for t in trajs]).tolist()
    r_year, r_relative = [], []
    for lo, hi in zip([0, *ends[:-1]], ends):
        ry, rr = annual_indicators(levels[lo:hi])
        r_year.append(ry)
        r_relative.append(rr)

    return TrendReport(
        years=tuple(years),
        r_year=np.array(r_year),
        r_relative=np.array(r_relative),
        trend_r_year=ols_trend(years, r_year),
        trend_r_relative=ols_trend(years, r_relative),
    )

"""Spillover-onset risk: case-weighted bivariate density over (M, R0).

Each historical year contributes one sample: the mosquito profile and
reproduction number on the midpoint day of the year's first nonzero case
week, weighted by that week's count.  A weighted Gaussian-product KDE is
fitted to the samples; highest-density-region thresholds at the configured
mass levels split the plane into four risk classes, High down to Green.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from .epimodel import Trajectory
from .errors import NonFiniteFit, TooFewSamples, ZeroBandwidth
from .ingest import write_table

DEFAULT_LEVELS = (0.88, 0.90, 0.95)
GRID_PAD_BANDWIDTHS = 3.0
# a case week's sample day, its midpoint: week start + 3 days
WEEK_MIDPOINT = timedelta(days=3)


class RiskLevel(enum.IntEnum):
    """Total order: High > Risky > Low > Green."""

    GREEN = 0
    LOW = 1
    RISKY = 2
    HIGH = 3

    @property
    def label(self) -> str:
        return self.name.lower()


# RiskLevel members indexed by their value (GREEN = 0 up to HIGH = 3)
_LEVEL_OF_CODE = tuple(RiskLevel)


@dataclass(frozen=True)
class OnsetSample:
    m: float
    r0: float
    weight: float

    def __post_init__(self):
        if self.m < 0 or self.r0 < 0:
            raise ValueError("negative coordinate")
        if self.weight < 1:
            raise ValueError("weight must be >= 1")


def apply_transform(transform: str, m, r0):
    """Feature transform applied to (M, R0) before density fitting."""
    if transform == "identity":
        return m, r0
    if transform == "log1p_m":
        return np.log1p(m), r0
    raise ValueError(f"unknown feature transform {transform!r}")


def collect_onset_samples(trajectories: dict, cases: dict,
                          transform: str = "identity"):
    """One sample per year at the first nonzero case week.

    ``trajectories`` and ``cases`` map year -> Trajectory / CaseSeries.
    The sample sits on the week's midpoint day (``WEEK_MIDPOINT``); years
    without cases yield no sample and are returned as flagged.
    """
    samples, skipped = [], []
    for year in sorted(cases):
        series = cases[year]
        traj = trajectories.get(year)
        if traj is None:
            raise KeyError(f"no trajectory for year {year}")
        nonzero = [i for i, c in enumerate(series.counts) if c > 0]
        if not nonzero:
            skipped.append(year)
            continue
        first = nonzero[0]
        midpoint = series.week_starts[first] + WEEK_MIDPOINT
        try:
            day = traj.dates.index(midpoint)
        except ValueError:
            skipped.append(year)
            continue
        m, r0 = apply_transform(transform, float(traj.m[day]), float(traj.r0[day]))
        samples.append(OnsetSample(m=m, r0=r0, weight=float(series.counts[first])))
    return samples, skipped


def _weighted_silverman(values, weights):
    """Per-axis Silverman bandwidth with Kish effective sample size.

    For two dimensions the Silverman prefactor is exactly 1, leaving
    sigma * n_eff^(-1/6).
    """
    mean = np.sum(weights * values)
    var = np.sum(weights * (values - mean) ** 2)
    n_eff = 1.0 / np.sum(weights**2)
    return math.sqrt(var) * n_eff ** (-1.0 / 6.0)


@dataclass(frozen=True)
class OnsetPdf:
    """Fitted onset density with its evaluation grid and HDR thresholds."""

    sample_m: np.ndarray
    sample_r0: np.ndarray
    weights: np.ndarray          # normalized to sum 1
    bandwidth: tuple             # (h_m, h_r0)
    m_grid: np.ndarray           # cell centers
    r0_grid: np.ndarray
    density: np.ndarray          # (len(m_grid), len(r0_grid))
    levels: tuple
    thresholds: tuple            # density cutoffs, decreasing with level
    transform: str = "identity"

    @property
    def cell_area(self) -> float:
        return float(
            (self.m_grid[1] - self.m_grid[0]) * (self.r0_grid[1] - self.r0_grid[0])
        )

    def evaluate(self, m, r0) -> np.ndarray:
        """KDE density at the already-transformed points (m[i], r0[i]).

        Each sample's weighted kernel is one column over all the points,
        and the columns are added in the order ``np.sum`` adds one point's
        kernel values (``_row_sum``), so a point's density is the same
        float as ``np.sum(weights * kernel)`` over its own samples, and
        does not depend on the points beside it."""
        m = np.asarray(m, dtype=float)
        r0 = np.asarray(r0, dtype=float)
        h_m, h_r = self.bandwidth

        def column(j):
            zm = (m - self.sample_m[j]) / h_m
            zr = (r0 - self.sample_r0[j]) / h_r
            return self.weights[j] * np.exp(-0.5 * (zm * zm + zr * zr))

        return (_row_sum(column, 0, len(self.weights))
                / (2.0 * math.pi * h_m * h_r))


def _row_sum(column, lo: int, hi: int):
    """column(lo) + ... + column(hi - 1), added in the order numpy's
    pairwise summation adds the items of a contiguous row: left to right
    below 8 items; up to 128, eight running sums over every eighth item,
    combined in pairs, then the items left over; above 128, the two halves
    of a cut at a multiple of 8 below the middle, each summed alone."""
    n = hi - lo
    if n < 8:
        total = column(lo)
        for j in range(lo + 1, hi):
            total = total + column(j)
        return total
    if n > 128:
        cut = lo + n // 2 - n // 2 % 8
        return _row_sum(column, lo, cut) + _row_sum(column, cut, hi)
    sums = [column(j) for j in range(lo, lo + 8)]
    tail = hi - n % 8
    for first in range(lo + 8, tail, 8):
        for k in range(8):
            sums[k] = sums[k] + column(first + k)
    total = (((sums[0] + sums[1]) + (sums[2] + sums[3]))
             + ((sums[4] + sums[5]) + (sums[6] + sums[7])))
    for j in range(tail, hi):
        total = total + column(j)
    return total


def fit_onset_pdf(samples, bandwidth=None, grid_size: int = 128,
                  levels=DEFAULT_LEVELS, transform: str = "identity") -> OnsetPdf:
    """Weighted Gaussian-product KDE over the samples.

    ``bandwidth`` is (h_m, h_r0); when omitted the weighted Silverman rule
    sets each axis (which needs at least two distinct samples).  The grid
    extends three bandwidths beyond the sample range.
    """
    samples = list(samples)
    if not samples:
        raise TooFewSamples("need at least one onset sample")
    w = np.array([s.weight for s in samples], dtype=float)
    total = w.sum()
    if total <= 0:
        raise TooFewSamples("total sample weight must be positive")
    w = w / total
    sm = np.array([s.m for s in samples], dtype=float)
    sr = np.array([s.r0 for s in samples], dtype=float)

    if bandwidth is None:
        h_m = _weighted_silverman(sm, w)
        h_r = _weighted_silverman(sr, w)
    else:
        h_m, h_r = float(bandwidth[0]), float(bandwidth[1])
    if h_m <= 0 or h_r <= 0:
        raise ZeroBandwidth(
            f"bandwidth ({h_m:g}, {h_r:g}); supply explicit positive bandwidths"
        )

    m_grid = padded_cell_centers(sm, h_m, grid_size)
    r0_grid = padded_cell_centers(sr, h_r, grid_size)

    zm = (m_grid[:, None] - sm[None, :]) / h_m
    zr = (r0_grid[:, None] - sr[None, :]) / h_r
    km = np.exp(-0.5 * zm * zm)                      # (grid, samples)
    kr = np.exp(-0.5 * zr * zr)
    density = (km * w) @ kr.T / (2.0 * math.pi * h_m * h_r)

    pdf = OnsetPdf(
        sample_m=sm, sample_r0=sr, weights=w,
        bandwidth=(h_m, h_r),
        m_grid=m_grid, r0_grid=r0_grid, density=density,
        levels=tuple(levels), thresholds=(), transform=transform,
    )
    thresholds = hdr_thresholds(pdf, levels)
    if not all(np.isfinite(a).all()
               for a in (m_grid, r0_grid, density, thresholds)):
        raise NonFiniteFit(f"non-finite onset density with bandwidth "
                           f"({h_m:g}, {h_r:g})")
    object.__setattr__(pdf, "thresholds", tuple(thresholds))
    return pdf


def padded_cell_centers(samples, bandwidth, n):
    """Centers of n equal cells spanning the samples padded by
    GRID_PAD_BANDWIDTHS bandwidths on each side; shared by the onset
    density and the severity rate surface."""
    lo = samples.min() - GRID_PAD_BANDWIDTHS * bandwidth
    hi = samples.max() + GRID_PAD_BANDWIDTHS * bandwidth
    step = (hi - lo) / n
    return lo + step * (np.arange(n) + 0.5)


def hdr_thresholds(pdf: OnsetPdf, levels) -> list:
    """Highest-density-region cutoffs on the grid.

    For each mass level the threshold is the largest density d whose
    super-level set {density >= d} accumulates at least that much mass
    (cells counted from the densest down).  Levels at or above the total
    grid mass fall back to the minimum grid density.
    """
    flat = np.sort(pdf.density, axis=None)[::-1]
    cum = np.cumsum(flat) * pdf.cell_area
    out = []
    for level in levels:
        if level >= cum[-1]:
            out.append(float(flat[-1]))
            continue
        idx = int(np.searchsorted(cum, level, side="left"))
        out.append(float(flat[idx]))
    return out


def risk_codes(pdf: OnsetPdf, m, r0) -> tuple:
    """The KDE density of every raw point (m[i], r0[i]) and its risk class
    as an integer array of RiskLevel values, thresholds inclusive
    upward."""
    density = pdf.evaluate(*apply_transform(
        pdf.transform, np.asarray(m, dtype=float), np.asarray(r0, dtype=float)))
    t_high, t_risky, t_low = pdf.thresholds
    # np.select takes the first condition that holds: the highest level
    codes = np.select([density >= t_high, density >= t_risky,
                       density >= t_low],
                      [RiskLevel.HIGH, RiskLevel.RISKY, RiskLevel.LOW],
                      RiskLevel.GREEN)
    return density, codes


def classify_days(pdf: OnsetPdf, m, r0) -> tuple:
    """Risk class of every raw point (m[i], r0[i]), thresholds inclusive
    upward: returns the KDE densities as an array and the risk levels as
    a tuple."""
    density, codes = risk_codes(pdf, m, r0)
    return density, tuple(map(_LEVEL_OF_CODE.__getitem__, codes.tolist()))


def classify(pdf: OnsetPdf, point) -> RiskLevel:
    """Risk class of one raw (m, r0) point, as ``classify_days`` gives it."""
    return classify_days(pdf, [point[0]], [point[1]])[1][0]


@dataclass(frozen=True)
class RiskSeries:
    """Per-day classification of a trajectory with summary counts."""

    dates: tuple
    m: np.ndarray
    r0: np.ndarray
    levels: tuple

    def __len__(self):
        return len(self.dates)

    def counts(self) -> dict:
        out = {lvl: 0 for lvl in RiskLevel}
        for lvl in self.levels:
            out[lvl] += 1
        return out


def forecast_onset(pdf: OnsetPdf, traj: Trajectory) -> RiskSeries:
    """Classify every trajectory day against the fitted onset density."""
    _, levels = classify_days(pdf, traj.m, traj.r0)
    return RiskSeries(dates=traj.dates, m=traj.m.copy(), r0=traj.r0.copy(),
                      levels=levels)


def save_risk_series(series: RiskSeries, path) -> None:
    """Risk CSV ``date,M,R0,risk_level`` plus one summary footer row per
    level (``# count_<level>``)."""
    counts = series.counts()
    write_table(path, ["date", "M", "R0", "risk_level"],
                [series.dates, series.m, series.r0,
                 [lvl.label for lvl in series.levels]],
                footer=[f"# count_{lvl.label} = {counts[lvl]}"
                        for lvl in (RiskLevel.HIGH, RiskLevel.RISKY,
                                    RiskLevel.LOW, RiskLevel.GREEN)])

"""Loading and validation of weather series and weekly case series, and
the one CSV reader and writer of the package.

Both series are immutable after construction and are kept columnar
(numpy arrays) for the forecasting and simulation code downstream.

Every CSV table the package writes or reads goes through
``write_table`` and ``read_table``: a header row, then ``\r\n``-terminated
rows with floats as their ``repr`` (exact on a round trip) and dates in
ISO form.  Each value is parsed by ``parse_float``, ``parse_int`` or
``parse_date``, so a bad or non-finite value names its line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .errors import (
    GapTooLong,
    MissingFile,
    NegativeCount,
    NonWeeklySpacing,
    ParseError,
    RangeViolation,
)

WEATHER_HEADER = ["date", "temp_mean", "humidity", "precip"]
CASE_HEADER = ["week_start", "count"]
# written by severity.save_severity, read back by the evaluate command
SEVERITY_HEADER = ["date", "M", "W", "predicted_cases"]

# Gaps of at most this many consecutive missing days are linearly
# interpolated; anything longer is an error.
MAX_GAP_DAYS = 3

# Daily mean temperatures outside this range (degC) are not weather; the
# recorded extremes lie within about -90 and 60.
TEMP_RANGE = (-100.0, 100.0)
# Daily precipitation outside this range (mm/day) is not weather; the
# recorded daily maximum is about 1825 mm.
PRECIP_RANGE = (0.0, 2000.0)


@dataclass(frozen=True)
class WeatherSeries:
    """Daily weather over a contiguous span of calendar days.

    ``interpolated`` lists the dates that were absent in the source file
    and filled in by linear interpolation.
    """

    dates: tuple[date, ...]
    temp_mean: np.ndarray
    humidity: np.ndarray
    precip: np.ndarray
    interpolated: tuple[date, ...] = ()

    def __post_init__(self):
        n = len(self.dates)
        if not (len(self.temp_mean) == len(self.humidity) == len(self.precip) == n):
            raise ValueError("column lengths differ")
        if n > 1:
            ordinals = np.fromiter(map(date.toordinal, self.dates),
                                   dtype=np.int64, count=n)
            bad = np.flatnonzero(np.diff(ordinals) != 1)
            if bad.size:
                raise ValueError(
                    f"dates not contiguous at {self.dates[int(bad[0]) + 1]}")
        # NaN fails no range check below
        for name in ("temp_mean", "humidity", "precip"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                raise RangeViolation(name, f"non-finite value on "
                                           f"{self.dates[int(bad[0])]}")
        if n and (np.any(self.humidity < 0) or np.any(self.humidity > 100)):
            raise RangeViolation("humidity", "outside [0, 100]")
        if n and np.any(self.precip < 0):
            raise RangeViolation("precip", "negative")

    def __len__(self):
        return len(self.dates)

    def slice(self, start: int, stop: int) -> "WeatherSeries":
        """Days [start, stop), as Python slices them.  A run of days of a
        checked series is contiguous and in range, so it is not checked
        again."""
        dates = self.dates[start:stop]
        interpolated = ()
        if self.interpolated:
            keep = set(dates)
            interpolated = tuple(d for d in self.interpolated if d in keep)
        return _unchecked(
            WeatherSeries, dates=dates,
            temp_mean=self.temp_mean[start:stop].copy(),
            humidity=self.humidity[start:stop].copy(),
            precip=self.precip[start:stop].copy(),
            interpolated=interpolated)

    def year_slices(self) -> dict[int, "WeatherSeries"]:
        """Split into calendar-year subseries (keyed by year)."""
        return {year: self.slice(lo, hi)
                for year, lo, hi in _year_bounds(self.dates, 1)}


@dataclass(frozen=True)
class CaseSeries:
    """Weekly reported human case counts; week_starts are 7 days apart.

    ``filled`` lists week_start dates that were missing in the source
    file and zero-filled.
    """

    week_starts: tuple[date, ...]
    counts: np.ndarray
    filled: tuple[date, ...] = ()

    def __post_init__(self):
        for i in range(1, len(self.week_starts)):
            if (self.week_starts[i] - self.week_starts[i - 1]).days != 7:
                raise NonWeeklySpacing(
                    f"weeks {self.week_starts[i - 1]} and {self.week_starts[i]} "
                    "are not 7 days apart"
                )
        if len(self.counts) and np.any(self.counts < 0):
            raise NegativeCount("negative case count")

    def __len__(self):
        return len(self.week_starts)

    def year_slices(self) -> dict[int, "CaseSeries"]:
        """Split into calendar-year subseries (keyed by year); like
        ``WeatherSeries.slice``, they are not checked again."""
        out = {}
        for year, lo, hi in _year_bounds(self.week_starts, 7):
            week_starts = self.week_starts[lo:hi]
            filled = ()
            if self.filled:
                keep = set(week_starts)
                filled = tuple(d for d in self.filled if d in keep)
            out[year] = _unchecked(CaseSeries, week_starts=week_starts,
                                   counts=self.counts[lo:hi].copy(),
                                   filled=filled)
        return out


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with these ``fields``
    (every one it has), built without ``__post_init__``.  Only for values
    derived from values that were checked, in a way that keeps what the
    check asserts; every value from outside goes through ``cls(...)``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _year_bounds(dates, step: int):
    """(year, lo, hi) for each calendar year of ``dates``, which run
    ``step`` days apart: entries [lo, hi) fall in that year.  Entry i is
    ``dates[0]`` plus ``step * i`` days, so a year's bounds follow from its
    first day's offset alone (rounded up to the next entry)."""
    if not dates:
        return []
    first, last = dates[0], dates[-1]
    bounds = []
    lo = 0
    for year in range(first.year, last.year + 1):
        if year == last.year:
            hi = len(dates)
        else:
            hi = -(-(date(year + 1, 1, 1) - first).days // step)
        bounds.append((year, lo, hi))
        lo = hi
    return bounds


def write_table(path, header, columns, footer=()) -> None:
    """Write a CSV table: ``header``, then one row per index of the equally
    long ``columns`` (numpy arrays or sequences), then each ``footer`` line
    as is, ``\n``-terminated."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cols))
        for line in footer:
            fh.write(line + "\n")


def read_table(path, header):
    """Yield ``(lineno, fields)`` for each data row of the CSV table at
    ``path``, whose first line must be ``header``.  Blank lines are
    skipped; every other row must have one field per header column."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise ParseError("empty file", 1)
        if [h.strip() for h in first] != list(header):
            raise ParseError(f"expected header {','.join(header)}", 1)
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}",
                                 reader.line_num)
            yield reader.line_num, row


def parse_float(text, field_name, lineno):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad {field_name} value {text!r}", lineno) from None
    # float() accepts nan and inf; nan passes every range check downstream
    if not math.isfinite(value):
        raise ParseError(f"non-finite {field_name} value {text!r}", lineno)
    return value


def parse_int(text, field_name, lineno):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {field_name} value {text!r}", lineno) from None


def parse_date(text, lineno):
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"bad date {text!r}", lineno) from None


def load_weather(path) -> WeatherSeries:
    """Load a daily weather CSV (``date,temp_mean,humidity,precip``).

    Rows must be strictly increasing in date.  Temperatures must lie in
    ``TEMP_RANGE``, humidity in [0, 100] and precipitation in
    ``PRECIP_RANGE``.  Gaps of up to three consecutive missing days are
    filled by linear interpolation between the flanking records and
    flagged; longer gaps raise GapTooLong.
    """
    lo_temp, hi_temp = TEMP_RANGE
    lo_prec, hi_prec = PRECIP_RANGE
    rows: list[tuple[date, float, float, float]] = []
    for lineno, fields in read_table(path, WEATHER_HEADER):
        d = parse_date(fields[0], lineno)
        temp = parse_float(fields[1], "temp_mean", lineno)
        hum = parse_float(fields[2], "humidity", lineno)
        prec = parse_float(fields[3], "precip", lineno)
        if not (lo_temp <= temp <= hi_temp):
            raise RangeViolation(
                "temp_mean", f"{temp} outside [{lo_temp:g}, {hi_temp:g}]",
                lineno)
        if not (0.0 <= hum <= 100.0):
            raise RangeViolation("humidity", f"{hum} outside [0, 100]", lineno)
        if not (lo_prec <= prec <= hi_prec):
            raise RangeViolation(
                "precip", f"{prec} outside [{lo_prec:g}, {hi_prec:g}]", lineno)
        if rows and d <= rows[-1][0]:
            raise ParseError(f"dates not strictly increasing at {d}", lineno)
        rows.append((d, temp, hum, prec))

    if not rows:
        raise ParseError("no data rows", 2)

    # Fill short gaps by affine interpolation of the flanking records.
    dates: list[date] = []
    cols: list[tuple[float, float, float]] = []
    flagged: list[date] = []
    for k, (d, *vals) in enumerate(rows):
        if k > 0:
            gap = (d - rows[k - 1][0]).days - 1
            if gap > MAX_GAP_DAYS:
                raise GapTooLong(
                    f"{gap} missing days between {rows[k - 1][0]} and {d}"
                )
            prev = rows[k - 1]
            for j in range(1, gap + 1):
                frac = j / (gap + 1)
                day = prev[0] + timedelta(days=j)
                filled = tuple(p + frac * (v - p) for p, v in zip(prev[1:], vals))
                if not all(map(math.isfinite, filled)):
                    raise RangeViolation(
                        "weather", f"interpolated value on {day} overflows")
                dates.append(day)
                cols.append(filled)
                flagged.append(day)
        dates.append(d)
        cols.append(tuple(vals))

    arr = np.array(cols, dtype=float)
    return WeatherSeries(
        tuple(dates), arr[:, 0], arr[:, 1], arr[:, 2], tuple(flagged)
    )


def save_weather(series: WeatherSeries, path) -> None:
    """Write a weather CSV in the ingest schema."""
    write_table(path, WEATHER_HEADER, [series.dates, series.temp_mean,
                                       series.humidity, series.precip])


def load_cases(path) -> CaseSeries:
    """Load a weekly case CSV (``week_start,count``).

    Weeks absent from the file (between the first and last week) are
    zero-filled and flagged.  Rows whose spacing is not a whole number
    of weeks raise NonWeeklySpacing.
    """
    rows: list[tuple[date, int]] = []
    for lineno, fields in read_table(path, CASE_HEADER):
        d = parse_date(fields[0], lineno)
        count = parse_int(fields[1], "count", lineno)
        if count < 0:
            raise NegativeCount(f"count {count} at {d}")
        if rows:
            spacing = (d - rows[-1][0]).days
            if spacing <= 0 or spacing % 7 != 0:
                raise NonWeeklySpacing(
                    f"weeks {rows[-1][0]} and {d} are {spacing} days apart"
                )
        rows.append((d, count))

    if not rows:
        raise ParseError("no data rows", 2)

    week_starts: list[date] = []
    counts: list[int] = []
    filled: list[date] = []
    for k, (d, count) in enumerate(rows):
        if k > 0:
            missing = (d - rows[k - 1][0]).days // 7 - 1
            for j in range(1, missing + 1):
                wk = rows[k - 1][0] + timedelta(days=7 * j)
                week_starts.append(wk)
                counts.append(0)
                filled.append(wk)
        week_starts.append(d)
        counts.append(count)

    return CaseSeries(
        tuple(week_starts), np.array(counts, dtype=int), tuple(filled)
    )


def save_cases(series: CaseSeries, path) -> None:
    write_table(path, CASE_HEADER, [series.week_starts, series.counts])

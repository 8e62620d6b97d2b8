import dataclasses

import numpy as np
import pytest
from datetime import date, timedelta
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spillcast import errors
from spillcast.ingest import (
    CaseSeries,
    WeatherSeries,
    load_cases,
    load_weather,
    save_cases,
    save_weather,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadWeather:
    def test_single_row(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "date,temp_mean,humidity,precip\n2020-01-01,12.5,60,0.0\n")
        series = load_weather(p)
        assert len(series) == 1
        assert series.temp_mean[0] == 12.5
        assert series.dates[0] == date(2020, 1, 1)

    def test_gap_interpolated_and_flagged(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "date,temp_mean,humidity,precip\n"
                  "2020-01-01,10.0,50,0.0\n"
                  "2020-01-03,20.0,70,2.0\n")
        series = load_weather(p)
        assert len(series) == 3
        assert series.dates[1] == date(2020, 1, 2)
        # affine interpolation of the flanking records
        assert series.temp_mean[1] == pytest.approx(15.0)
        assert series.humidity[1] == pytest.approx(60.0)
        assert series.precip[1] == pytest.approx(1.0)
        assert series.interpolated == (date(2020, 1, 2),)

    def test_three_day_gap_ok_four_day_gap_errors(self, tmp_path):
        ok = write(tmp_path, "ok.csv",
                   "date,temp_mean,humidity,precip\n"
                   "2020-01-01,10,50,0\n2020-01-05,18,50,0\n")
        series = load_weather(ok)
        assert len(series) == 5
        assert series.temp_mean[2] == pytest.approx(14.0)

        bad = write(tmp_path, "bad.csv",
                    "date,temp_mean,humidity,precip\n"
                    "2020-01-01,10,50,0\n2020-01-06,18,50,0\n")
        with pytest.raises(errors.GapTooLong):
            load_weather(bad)

    @pytest.mark.parametrize("field", [1, 2, 3])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, field, token):
        values = ["2020-01-01", "10.0", "50", "1.0"]
        values[field] = token
        p = write(tmp_path, "w.csv",
                  "date,temp_mean,humidity,precip\n" + ",".join(values) + "\n")
        with pytest.raises(errors.ParseError, match="line 2"):
            load_weather(p)

    def test_humidity_range_violation(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "date,temp_mean,humidity,precip\n2020-01-01,12.5,150,0.0\n")
        with pytest.raises(errors.RangeViolation):
            load_weather(p)

    @pytest.mark.parametrize("temp", ["1e154", "1e120", "-1e120", "100.5",
                                      "-100.00000000000001"])
    def test_temperature_range_violation_names_line(self, tmp_path, temp):
        # a temperature no weather station records used to load, and the
        # long-term forecast then failed at a forecast date or ran on
        p = write(tmp_path, "w.csv",
                  "date,temp_mean,humidity,precip\n2020-01-01,12.5,60,0.0\n"
                  f"2020-01-02,{temp},60,0.0\n")
        with pytest.raises(errors.RangeViolation,
                           match=r"^temp_mean: .* outside \[-100, 100\] "
                                 r"\(line 3\)$") as got:
            load_weather(p)
        assert got.value.line == 3

    def test_temperature_bounds_are_inclusive(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "date,temp_mean,humidity,precip\n2020-01-01,-100,60,0.0\n"
                  "2020-01-02,100,60,0.0\n")
        assert load_weather(p).temp_mean.tolist() == [-100.0, 100.0]

    @pytest.mark.parametrize("precip", ["1e120", "1e308", "2000.0000000000002",
                                        "-1e-300"])
    def test_precipitation_range_violation_names_line(self, tmp_path, precip):
        # 1e120 mm/day used to load, and the long-term forecast then
        # failed at a forecast date instead of the input line
        p = write(tmp_path, "w.csv",
                  "date,temp_mean,humidity,precip\n2020-01-01,12.5,60,0.0\n"
                  f"2020-01-02,12.5,60,{precip}\n")
        with pytest.raises(errors.RangeViolation,
                           match=r"^precip: .* outside \[0, 2000\] "
                                 r"\(line 3\)$") as got:
            load_weather(p)
        assert got.value.line == 3

    def test_precipitation_bounds_are_inclusive(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "date,temp_mean,humidity,precip\n2020-01-01,12.5,60,0\n"
                  "2020-01-02,12.5,60,2000\n")
        assert load_weather(p).precip.tolist() == [0.0, 2000.0]

    def test_negative_precip_rejected(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "date,temp_mean,humidity,precip\n2020-01-01,12.5,60,-1.0\n")
        with pytest.raises(errors.RangeViolation):
            load_weather(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(errors.MissingFile):
            load_weather(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = write(tmp_path, "w.csv", "a,b,c,d\n2020-01-01,1,2,3\n")
        with pytest.raises(errors.ParseError):
            load_weather(p)

    def test_parse_error_reports_line(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "date,temp_mean,humidity,precip\n"
                  "2020-01-01,10,50,0\n2020-01-02,oops,50,0\n")
        with pytest.raises(errors.ParseError) as exc:
            load_weather(p)
        assert exc.value.line == 3

    def test_non_increasing_dates(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "date,temp_mean,humidity,precip\n"
                  "2020-01-02,10,50,0\n2020-01-01,11,50,0\n")
        with pytest.raises(errors.ParseError):
            load_weather(p)

    def test_round_trip_bit_exact(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "date,temp_mean,humidity,precip\n"
                  "2020-01-01,12.537,61.25,0.125\n"
                  "2020-01-02,13.1,60.0,0.0\n"
                  "2020-01-04,9.999,58.875,3.5\n")
        first = load_weather(p)
        out = tmp_path / "rt.csv"
        save_weather(first, out)
        second = load_weather(out)
        assert first.dates == second.dates
        assert np.array_equal(first.temp_mean, second.temp_mean)
        assert np.array_equal(first.humidity, second.humidity)
        assert np.array_equal(first.precip, second.precip)


class TestLoadCases:
    def test_single_row(self, tmp_path):
        p = write(tmp_path, "c.csv", "week_start,count\n2020-06-01,3\n")
        series = load_cases(p)
        assert len(series) == 1
        assert series.counts[0] == 3

    def test_non_weekly_spacing(self, tmp_path):
        p = write(tmp_path, "c.csv",
                  "week_start,count\n2020-06-01,3\n2020-06-06,1\n")
        with pytest.raises(errors.NonWeeklySpacing):
            load_cases(p)

    def test_missing_week_zero_filled_and_flagged(self, tmp_path):
        p = write(tmp_path, "c.csv",
                  "week_start,count\n2020-06-01,3\n2020-06-15,2\n")
        series = load_cases(p)
        assert len(series) == 3
        assert list(series.counts) == [3, 0, 2]
        assert series.filled == (date(2020, 6, 8),)

    def test_negative_count(self, tmp_path):
        p = write(tmp_path, "c.csv", "week_start,count\n2020-06-01,-2\n")
        with pytest.raises(errors.NegativeCount):
            load_cases(p)

    def test_round_trip(self, tmp_path):
        p = write(tmp_path, "c.csv",
                  "week_start,count\n2020-06-01,3\n2020-06-08,0\n2020-06-15,7\n")
        first = load_cases(p)
        out = tmp_path / "rt.csv"
        save_cases(first, out)
        second = load_cases(out)
        assert first.week_starts == second.week_starts
        assert np.array_equal(first.counts, second.counts)


class TestSeriesInvariants:
    def test_weather_dates_must_be_contiguous(self):
        with pytest.raises(ValueError):
            WeatherSeries(
                (date(2020, 1, 1), date(2020, 1, 3)),
                np.array([1.0, 2.0]), np.array([50.0, 50.0]),
                np.array([0.0, 0.0]),
            )

    @pytest.mark.parametrize("column", ["temp_mean", "humidity", "precip"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_weather_rejected_naming_the_column(self, column,
                                                           value):
        """NaN passes every range check and temp_mean has none; each
        non-finite value is an input error that names its column and
        date."""
        columns = {"temp_mean": np.array([20.0, 21.0]),
                   "humidity": np.array([50.0, 50.0]),
                   "precip": np.array([0.0, 1.0])}
        columns[column][1] = value
        with pytest.raises(errors.RangeViolation) as got:
            WeatherSeries((date(2020, 1, 1), date(2020, 1, 2)), **columns)
        assert str(got.value) == f"{column}: non-finite value on 2020-01-02"

    def test_nan_and_inf_columns_rejected(self):
        with pytest.raises(errors.InputError, match="^temp_mean: "):
            WeatherSeries((date(2020, 1, 1), date(2020, 1, 2)),
                          np.array([np.nan, np.inf]), np.array([np.nan, 50.0]),
                          np.array([np.nan, np.inf]))

    def test_case_weeks_must_be_seven_days_apart(self):
        with pytest.raises(errors.NonWeeklySpacing):
            CaseSeries((date(2020, 6, 1), date(2020, 6, 5)),
                       np.array([1, 2]))

    def test_year_slices_cover_series(self):
        n = 40
        from tests.conftest import constant_weather
        wx = constant_weather(n, start=date(2020, 12, 10))
        parts = wx.year_slices()
        assert set(parts) == {2020, 2021}
        assert sum(len(p) for p in parts.values()) == n


NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e308",
                     "-1e308", "1e309", "-1e400", "0", "50", "100"]),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(
    st.tuples(st.integers(1, 5), NUMBER_TOKENS, NUMBER_TOKENS, NUMBER_TOKENS),
    min_size=1, max_size=8))
# finite values whose difference overflows across a one-day gap
@example(rows=[(1, "1e308", "50", "0"), (2, "-1e308", "50", "0")])
def test_load_weather_rejects_or_returns_finite(tmp_path_factory, rows):
    """Any generated weather file either raises InputError or loads as
    all-finite columns; gaps (day steps > 1) exercise interpolation."""
    day = date(2020, 1, 1)
    lines = ["date,temp_mean,humidity,precip"]
    for step, temp, hum, prec in rows:
        day += timedelta(days=step)
        lines.append(f"{day.isoformat()},{temp},{hum},{prec}")
    p = tmp_path_factory.mktemp("prop") / "w.csv"
    p.write_text("\n".join(lines) + "\n")
    try:
        series = load_weather(p)
    except errors.InputError:
        return
    for column in (series.temp_mean, series.humidity, series.precip):
        assert np.all(np.isfinite(column))


# --- the per-year split and the contiguity check against their first forms ---

def _year_slices_oracle(dates, cut):
    """The original O(years x days) split: scan every date once per year;
    ``cut(lo, hi, keep)`` builds the subseries of indices [lo, hi)."""
    out = {}
    years = [d.year for d in dates]
    for year in sorted(set(years)):
        idx = [i for i, y in enumerate(years) if y == year]
        out[year] = cut(idx[0], idx[-1] + 1, set(dates[idx[0]:idx[-1] + 1]))
    return out


def _weather_year_slices_oracle(wx):
    return _year_slices_oracle(wx.dates, lambda lo, hi, keep: (
        wx.dates[lo:hi], wx.temp_mean[lo:hi], wx.humidity[lo:hi],
        wx.precip[lo:hi], tuple(d for d in wx.interpolated if d in keep)))


def _case_year_slices_oracle(cs):
    return _year_slices_oracle(cs.week_starts, lambda lo, hi, keep: (
        cs.week_starts[lo:hi], cs.counts[lo:hi],
        tuple(d for d in cs.filled if d in keep)))


def _contiguity_oracle(dates):
    """The original per-date check: the message it raised, or None."""
    for i in range(1, len(dates)):
        if (dates[i] - dates[i - 1]).days != 1:
            return f"dates not contiguous at {dates[i]}"
    return None


SLICE_STARTS = st.one_of(
    st.sampled_from([date(2019, 1, 1), date(2020, 2, 29), date(2021, 7, 2),
                     date(2020, 12, 31), date(2023, 12, 25)]),
    st.dates(min_value=date(1990, 1, 1), max_value=date(2040, 12, 31)),
)


@settings(max_examples=150, deadline=None)
@given(start=SLICE_STARTS, n=st.integers(1, 1200), data=st.data())
def test_weather_year_slices_equal_the_scan(start, n, data):
    """Keys, their order, columns and each year's interpolated dates equal
    the per-year scan, from single days to several partial years."""
    dates = tuple(start + timedelta(days=i) for i in range(n))
    flagged = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                 min_size=1, max_size=20).map(sorted))
    rng = np.random.default_rng(n)
    wx = WeatherSeries(dates, rng.normal(15.0, 8.0, n),
                       rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 9.0, n),
                       tuple(dates[i] for i in flagged))
    got = wx.year_slices()
    want = _weather_year_slices_oracle(wx)
    assert list(got) == list(want)
    for year, part in got.items():
        dates_w, temp, hum, prec, interp = want[year]
        assert part.dates == dates_w and part.interpolated == interp
        for a, b in ((part.temp_mean, temp), (part.humidity, hum),
                     (part.precip, prec)):
            assert a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(start=SLICE_STARTS, n=st.integers(1, 200), data=st.data())
def test_case_year_slices_equal_the_scan(start, n, data):
    """Keys, their order, counts and each year's filled weeks equal the
    per-year scan."""
    weeks = tuple(start + timedelta(days=7 * i) for i in range(n))
    filled = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                min_size=1, max_size=20).map(sorted))
    counts = np.random.default_rng(n).integers(0, 50, n)
    cs = CaseSeries(weeks, counts, tuple(weeks[i] for i in filled))
    got = cs.year_slices()
    want = _case_year_slices_oracle(cs)
    assert list(got) == list(want)
    for year, part in got.items():
        weeks_w, counts_w, filled_w = want[year]
        assert part.week_starts == weeks_w and part.filled == filled_w
        assert np.array_equal(part.counts, counts_w)


@pytest.mark.parametrize("dates", [
    (date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 4)),     # a gap
    (date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 2),
     date(2020, 1, 3)),                                           # duplicate
    (date(2020, 1, 3), date(2020, 1, 4), date(2020, 1, 2)),     # backwards
    (date(2020, 1, 1), date(2019, 12, 31)),                     # at once
])
def test_contiguity_error_names_the_first_bad_date(dates):
    n = len(dates)
    want = _contiguity_oracle(dates)
    assert want is not None
    with pytest.raises(ValueError) as info:
        WeatherSeries(dates, np.zeros(n), np.full(n, 50.0), np.zeros(n))
    assert str(info.value) == want


# --- slices are built without the checks of the public constructors --------

def _checked_slice(wx, start, stop):
    """``wx.slice(start, stop)`` through the checked constructor."""
    dates = wx.dates[start:stop]
    keep = set(dates)
    return WeatherSeries(dates, wx.temp_mean[start:stop].copy(),
                         wx.humidity[start:stop].copy(),
                         wx.precip[start:stop].copy(),
                         tuple(d for d in wx.interpolated if d in keep))


def _assert_same_fields(got, want):
    """Every field equal, arrays by dtype, shape and bytes."""
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                       b.tobytes()), field.name
        else:
            assert a == b, field.name


@st.composite
def valid_weather(draw, min_size=0):
    """A valid series of up to two and a half years from a random start,
    humidity reaching 0 and 100, with or without interpolated dates."""
    start = draw(SLICE_STARTS)
    n = draw(st.integers(min_size, 900))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dates = tuple(start + timedelta(days=i) for i in range(n))
    humidity = rng.uniform(0.0, 100.0, n)
    humidity[rng.random(n) < 0.05] = 0.0
    humidity[rng.random(n) < 0.05] = 100.0
    flagged = ()
    if n and draw(st.booleans()):
        flagged = tuple(dates[i] for i in sorted(draw(st.lists(
            st.integers(0, n - 1), unique=True, min_size=1, max_size=20))))
    return WeatherSeries(dates, rng.normal(15.0, 10.0, n), humidity,
                         rng.exponential(2.0, n) * (rng.random(n) < 0.6),
                         flagged)


@settings(max_examples=150, deadline=None)
@given(wx=valid_weather(), data=st.data())
def test_slices_equal_the_checked_constructor(wx, data):
    """``slice`` at any bounds, and every year of ``year_slices``, equal
    the series the checked constructor builds from the same values."""
    n = len(wx)
    bounds = st.integers(-n - 3, n + 3)
    start, stop = data.draw(bounds), data.draw(bounds)
    _assert_same_fields(wx.slice(start, stop), _checked_slice(wx, start, stop))
    got = wx.year_slices()
    want = _year_slices_oracle(wx.dates,
                               lambda lo, hi, keep: _checked_slice(wx, lo, hi))
    assert list(got) == list(want)
    for year, part in got.items():
        _assert_same_fields(part, want[year])


@settings(max_examples=100, deadline=None)
@given(start=SLICE_STARTS, n=st.integers(1, 200), data=st.data())
def test_case_year_slices_equal_the_checked_constructor(start, n, data):
    weeks = tuple(start + timedelta(days=7 * i) for i in range(n))
    filled = ()
    if data.draw(st.booleans()):
        filled = tuple(weeks[i] for i in sorted(data.draw(st.lists(
            st.integers(0, n - 1), unique=True, min_size=1, max_size=20))))
    cs = CaseSeries(weeks, np.random.default_rng(n).integers(0, 50, n), filled)
    want = _year_slices_oracle(cs.week_starts, lambda lo, hi, keep: CaseSeries(
        cs.week_starts[lo:hi], cs.counts[lo:hi].copy(),
        tuple(d for d in cs.filled if d in keep)))
    got = cs.year_slices()
    assert list(got) == list(want)
    for year, part in got.items():
        _assert_same_fields(part, want[year])


@settings(max_examples=150, deadline=None)
@given(wx=valid_weather(min_size=2), data=st.data())
def test_public_constructor_still_rejects_bad_values(wx, data):
    """The checked constructor rejects a moved date, a humidity outside
    [0, 100] and a negative precipitation, at any index."""
    n = len(wx)
    i = data.draw(st.integers(0, n - 1))
    shift = data.draw(st.integers(-400, 400).filter(bool))
    dates = list(wx.dates)
    dates[i] += timedelta(days=shift)
    with pytest.raises(ValueError, match="dates not contiguous"):
        WeatherSeries(tuple(dates), wx.temp_mean, wx.humidity, wx.precip)
    humidity = wx.humidity.copy()
    humidity[i] = data.draw(st.one_of(
        st.floats(max_value=-5e-324), st.floats(min_value=100.00000000000001)))
    with pytest.raises(errors.RangeViolation):
        WeatherSeries(wx.dates, wx.temp_mean, humidity, wx.precip)
    precip = wx.precip.copy()
    precip[i] = data.draw(st.floats(max_value=-5e-324))
    with pytest.raises(errors.RangeViolation):
        WeatherSeries(wx.dates, wx.temp_mean, wx.humidity, precip)

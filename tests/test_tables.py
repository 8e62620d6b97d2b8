"""The CSV format behind ``ingest.write_table`` / ``ingest.read_table``.

The ``reference_*`` functions are the per-module writer loops the package
used before every table went through ``write_table``, kept verbatim (less
the deleted ``sources`` column of ``save_weather``) as the byte oracle: each
public writer must still produce exactly their bytes.
"""

import ast
import csv
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spillcast
from spillcast import errors
from spillcast.artifacts import save_onset_model, save_severity_model
from spillcast.carrycap import KSeries, save_k
from spillcast.epimodel import COMPARTMENTS, save_trajectory
from spillcast.ingest import (
    CaseSeries,
    WeatherSeries,
    parse_date,
    parse_float,
    parse_int,
    read_table,
    save_cases,
    save_weather,
    write_table,
)
from spillcast.onset import (
    RiskLevel,
    RiskSeries,
    collect_onset_samples,
    fit_onset_pdf,
    forecast_onset,
    save_risk_series,
)
from spillcast.severity import (
    SeverityForecast,
    build_posteriors,
    build_prior,
    collect_severity_samples,
    estimate_severity,
    fit_rate_surface,
    save_severity,
)


# --- the writer loops as they were, verbatim --------------------------------

def reference_save_trajectory(traj, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "M", "R0", "H_new_cases", *COMPARTMENTS])
        for i, d in enumerate(traj.dates):
            writer.writerow(
                [d.isoformat(), repr(float(traj.m[i])), repr(float(traj.r0[i])),
                 repr(float(traj.new_infections[i]))]
                + [repr(float(v)) for v in traj.states[i]]
            )


def reference_save_risk_series(series, path):
    counts = series.counts()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "M", "R0", "risk_level"])
        for i, d in enumerate(series.dates):
            writer.writerow(
                [d.isoformat(), repr(float(series.m[i])),
                 repr(float(series.r0[i])), series.levels[i].label]
            )
        for lvl in (RiskLevel.HIGH, RiskLevel.RISKY, RiskLevel.LOW, RiskLevel.GREEN):
            fh.write(f"# count_{lvl.label} = {counts[lvl]}\n")


def reference_save_severity(forecast, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "M", "W", "predicted_cases"])
        for i, d in enumerate(forecast.dates):
            writer.writerow([d.isoformat(), repr(float(forecast.m[i])),
                             repr(float(forecast.w[i])), int(forecast.predicted[i])])


def reference_save_k(series, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "K"])
        for d, v in zip(series.dates, series.values):
            writer.writerow([d.isoformat(), repr(float(v))])


def reference_save_weather(series, path):
    header = ["date", "temp_mean", "humidity", "precip"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, d in enumerate(series.dates):
            row = [
                d.isoformat(),
                repr(float(series.temp_mean[i])),
                repr(float(series.humidity[i])),
                repr(float(series.precip[i])),
            ]
            writer.writerow(row)


def reference_save_cases(series, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["week_start", "count"])
        for d, c in zip(series.week_starts, series.counts):
            writer.writerow([d.isoformat(), int(c)])


def reference_save_onset_tables(pdf, directory):
    with open(directory / "onset_samples.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "r0", "weight"])
        for m, r, w in zip(pdf.sample_m, pdf.sample_r0, pdf.weights):
            writer.writerow([repr(float(m)), repr(float(r)), repr(float(w))])

    with open(directory / "onset_grid.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "r0", "density"])
        for i, m in enumerate(pdf.m_grid):
            for j, r in enumerate(pdf.r0_grid):
                writer.writerow([repr(float(m)), repr(float(r)),
                                 repr(float(pdf.density[i, j]))])


def reference_save_severity_tables(surface, directory):
    with open(directory / "severity_samples.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "w", "x"])
        for m, w, x in zip(surface.sample_m, surface.sample_w, surface.sample_x):
            writer.writerow([repr(float(m)), repr(float(w)), int(x)])

    with open(directory / "rate_surface.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "w", "lambda"])
        for i, m in enumerate(surface.grid.m_centers):
            for j, w in enumerate(surface.grid.w_centers):
                writer.writerow([repr(float(m)), repr(float(w)),
                                 repr(float(surface.lam[i, j]))])


def reference_meshgrid_onset_grid(pdf, directory):
    """The grid writer before the axis reprs: three meshgrid columns."""
    m, r0 = np.meshgrid(pdf.m_grid, pdf.r0_grid, indexing="ij")
    write_table(directory / "onset_grid.csv", ["m", "r0", "density"],
                [m.ravel(), r0.ravel(), pdf.density.ravel()])


def reference_meshgrid_rate_surface(surface, directory):
    m, w = np.meshgrid(surface.grid.m_centers, surface.grid.w_centers,
                       indexing="ij")
    write_table(directory / "rate_surface.csv", ["m", "w", "lambda"],
                [m.ravel(), w.ravel(), surface.lam.ravel()])


def reference_save_scores(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["week", "observed", "model", "prob_observed", "score"])
        for week, obs, model, prob, s in rows:
            writer.writerow([week.isoformat(), obs, model, repr(prob), repr(s)])


def reference_save_trend(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "r_year", "r_relative"])
        for year, ry, rr in zip(report.years, report.r_year,
                                report.r_relative):
            writer.writerow([year, repr(float(ry)), repr(float(rr))])


# --- comparing a writer with its reference ------------------------------------

def same_bytes(tmp_path, writer, reference, obj):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    writer(obj, ours)
    reference(obj, theirs)
    assert ours.read_bytes() == theirs.read_bytes()


def same_model_tables(tmp_path, saver, reference, model, names):
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    theirs.mkdir(exist_ok=True)
    saver(model, ours)
    reference(model, theirs)
    for name in names:
        assert (ours / name).read_bytes() == (theirs / name).read_bytes(), name


ONSET_TABLES = ("onset_samples.csv", "onset_grid.csv")
SEVERITY_TABLES = ("severity_samples.csv", "rate_surface.csv")


def check_every_writer(tmp_path, weather, cases, k, traj, risk, forecast, pdf,
                       surface):
    same_bytes(tmp_path, save_weather, reference_save_weather, weather)
    same_bytes(tmp_path, save_cases, reference_save_cases, cases)
    same_bytes(tmp_path, save_k, reference_save_k, k)
    same_bytes(tmp_path, save_trajectory, reference_save_trajectory, traj)
    same_bytes(tmp_path, save_risk_series, reference_save_risk_series, risk)
    same_bytes(tmp_path, save_severity, reference_save_severity, forecast)
    same_model_tables(tmp_path, save_onset_model, reference_save_onset_tables,
                      pdf, ONSET_TABLES)
    same_model_tables(tmp_path, save_severity_model,
                      reference_save_severity_tables, surface, SEVERITY_TABLES)


def test_writers_match_reference_on_fixture(tmp_path, world,
                                            pipeline_trajectories):
    cases = world.cases.year_slices()
    train = {y: pipeline_trajectories[y] for y in (2019, 2020, 2021)}
    samples, _ = collect_onset_samples(train, {y: cases[y] for y in train})
    pdf = fit_onset_pdf(samples, bandwidth=(150.0, 80.0))
    traj = pipeline_trajectories[2022]
    surface = fit_rate_surface(
        collect_severity_samples(pipeline_trajectories, cases), grid_size=32)
    prior = build_prior("uniform", None, surface.grid)
    forecast = estimate_severity(traj, build_posteriors(prior, surface, 5))
    k = KSeries(world.weather.dates, np.full(len(world.weather), world.k_star))
    check_every_writer(tmp_path, world.weather, world.cases, k, traj,
                       forecast_onset(pdf, traj), forecast, pdf, surface)


# floats whose text is easy to get wrong, plus everything hypothesis draws
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
               0.1 + 0.2, 1.0000000000000002, 1.2345678901234567e-05,
               9007199254740993.0, 1e16, 123456789.12345679]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


def float_array(data, n, elements=FLOATS):
    return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)),
                    dtype=float)


def day_run(data, n, step=1):
    start = data.draw(st.dates(min_value=date(1, 1, 1),
                               max_value=date(9000, 1, 1)))
    return tuple(start + timedelta(days=step * i) for i in range(n))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_writers_match_reference_on_drawn_columns(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("prop")
    n = data.draw(st.integers(0, 12))
    dates = day_run(data, n)
    nonneg = st.floats(min_value=0.0)
    # a WeatherSeries holds finite values only
    weather = WeatherSeries(dates, float_array(data, n, FINITE),
                            float_array(data, n, st.floats(0.0, 100.0)),
                            float_array(data, n, st.floats(
                                min_value=0.0, allow_infinity=False)))
    counts = np.array(data.draw(st.lists(st.integers(0, 2**62), min_size=n,
                                         max_size=n)), dtype=int)
    cases = CaseSeries(day_run(data, n, 7), counts)
    k = KSeries(dates, float_array(data, n, nonneg))
    traj = SimpleNamespace(
        dates=dates, m=float_array(data, n), r0=float_array(data, n),
        new_infections=float_array(data, n),
        states=float_array(data, n * len(COMPARTMENTS)).reshape(
            n, len(COMPARTMENTS)))
    levels = tuple(data.draw(st.lists(st.sampled_from(list(RiskLevel)),
                                      min_size=n, max_size=n)))
    risk = RiskSeries(dates, float_array(data, n), float_array(data, n),
                      levels)
    predicted = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=n,
                                            max_size=n)), dtype=int)
    forecast = SeverityForecast(dates, float_array(data, n),
                                float_array(data, n), predicted)
    gm, gr = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    pdf = SimpleNamespace(
        sample_m=float_array(data, n), sample_r0=float_array(data, n),
        weights=float_array(data, n), bandwidth=(1.0, 2.0),
        levels=(0.5,), thresholds=(0.25,), transform="identity",
        m_grid=float_array(data, gm), r0_grid=float_array(data, gr),
        density=float_array(data, gm * gr).reshape(gm, gr))
    # sample counts are stored as floats; the writers truncate them
    sample_x = float_array(data, n, st.floats(-1e15, 1e15))
    surface = SimpleNamespace(
        sample_m=float_array(data, n), sample_w=float_array(data, n),
        sample_x=sample_x, bandwidth=(1.0, 2.0),
        grid=SimpleNamespace(m_centers=float_array(data, gm),
                             w_centers=float_array(data, gr)),
        lam=float_array(data, gm * gr).reshape(gm, gr))
    check_every_writer(tmp_path, weather, cases, k, traj, risk, forecast, pdf,
                       surface)


GRID_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1e300, -1e300, 1.7976931348623157e308, 0.1, 1.0 / 3.0,
               123456789.12345679, float("nan"), float("inf")]


def check_grids(tmp_path, rows, cols, values):
    """The model grids, written from per-axis reprs, are the bytes of the
    three meshgrid columns they replaced."""
    rows, cols = np.array(rows, dtype=float), np.array(cols, dtype=float)
    pdf = SimpleNamespace(
        sample_m=np.ones(1), sample_r0=np.ones(1), weights=np.ones(1),
        bandwidth=(1.0, 2.0), levels=(0.5,), thresholds=(0.25,),
        transform="identity", m_grid=rows, r0_grid=cols, density=values)
    surface = SimpleNamespace(
        sample_m=np.ones(1), sample_w=np.ones(1), sample_x=np.ones(1),
        bandwidth=(1.0, 2.0),
        grid=SimpleNamespace(m_centers=rows, w_centers=cols), lam=values)
    same_model_tables(tmp_path, save_onset_model,
                      reference_meshgrid_onset_grid, pdf, ["onset_grid.csv"])
    same_model_tables(tmp_path, save_severity_model,
                      reference_meshgrid_rate_surface, surface,
                      ["rate_surface.csv"])


def test_grids_match_meshgrid_writer_on_edge_values(tmp_path):
    n = len(GRID_FLOATS)
    check_grids(tmp_path, GRID_FLOATS, GRID_FLOATS[::-1],
                np.resize(np.array(GRID_FLOATS[3:]), (n, n)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grids_match_meshgrid_writer(tmp_path_factory, data):
    edge = st.one_of(st.sampled_from(GRID_FLOATS), st.floats())
    rows = data.draw(st.lists(edge, max_size=8))
    cols = data.draw(st.lists(edge, max_size=8))
    values = float_array(data, len(rows) * len(cols), edge)
    check_grids(tmp_path_factory.mktemp("grid"), rows, cols,
                values.reshape(len(rows), len(cols)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_tables_match_reference(tmp_path_factory, data):
    """``scores.csv`` and ``trend.csv`` are written as ``cmd_evaluate`` and
    ``cmd_trend`` call ``write_table``."""
    tmp_path = tmp_path_factory.mktemp("prop")
    n = data.draw(st.integers(0, 12))
    rows = list(zip(day_run(data, n, 7),
                    data.draw(st.lists(st.integers(0, 500), min_size=n,
                                       max_size=n)),
                    data.draw(st.lists(st.sampled_from(["bayes", "nb"]),
                                       min_size=n, max_size=n)),
                    data.draw(st.lists(FLOATS, min_size=n, max_size=n)),
                    data.draw(st.lists(FLOATS, min_size=n, max_size=n))))
    same_bytes(tmp_path,
               lambda r, path: write_table(
                   path, ["week", "observed", "model", "prob_observed", "score"],
                   zip(*r)),
               reference_save_scores, rows)
    report = SimpleNamespace(years=tuple(range(2000, 2000 + n)),
                             r_year=float_array(data, n),
                             r_relative=float_array(data, n))
    same_bytes(tmp_path,
               lambda r, path: write_table(
                   path, ["year", "r_year", "r_relative"],
                   [r.years, r.r_year, r.r_relative]),
               reference_save_trend, report)


# --- write_table -> read_table -------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_is_exact(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("prop")
    n = data.draw(st.integers(0, 20))
    dates = day_run(data, n)
    values = float_array(data, n, FINITE)
    counts = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n,
                                max_size=n))
    path = tmp_path / "table.csv"
    header = ["day", "value", "count"]
    write_table(path, header, [dates, values, counts])
    back = [(parse_date(f[0], ln), parse_float(f[1], "value", ln),
             parse_int(f[2], "count", ln)) for ln, f in read_table(path, header)]
    assert [d for d, _, _ in back] == list(dates)
    # repr tells -0.0 from 0.0, which == does not
    assert [repr(v) for _, v, _ in back] == [repr(float(v)) for v in values]
    assert [c for _, _, c in back] == counts


def test_footer_lines_end_in_newline(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a"], [np.array([1.5])], footer=["# total = 1"])
    assert path.read_bytes() == b"a\r\n1.5\r\n# total = 1\n"


# --- read_table's contract -----------------------------------------------------

@pytest.mark.parametrize("text, line, message", [
    ("", 1, "empty file"),
    ("a,c\r\n1,2\r\n", 1, "expected header a,b"),
    ("a,b\r\n1,2\r\n1,2,3\r\n", 3, "expected 2 fields, got 3"),
    ("a,b\r\n\r\n1\r\n", 3, "expected 2 fields, got 1"),
])
def test_read_table_rejects_with_line(tmp_path, text, line, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(errors.ParseError, match=message) as exc:
        list(read_table(path, ["a", "b"]))
    assert exc.value.line == line


def test_read_table_skips_blank_lines_and_strips_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" a , b\n\n1,2\n   \n3,4\n")
    assert list(read_table(path, ["a", "b"])) == [(3, ["1", "2"]),
                                                  (5, ["3", "4"])]


def test_read_table_missing_file(tmp_path):
    with pytest.raises(errors.MissingFile):
        list(read_table(tmp_path / "nope.csv", ["a"]))


def test_parse_int_names_line():
    with pytest.raises(errors.ParseError, match="line 4: bad x value '2.5'"):
        parse_int("2.5", "x", 4)


# --- one place decides the format ------------------------------------------------

def test_only_ingest_imports_csv():
    package = Path(spillcast.__file__).parent
    importers = []
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if "csv" in names:
                importers.append(source.name)
    assert importers == ["ingest.py"]

"""The four benchmark workloads.

Each workload is a closed loop with one client: a *pass* runs the
workload's operations one after another, and the next pass starts only
when the previous one has finished.  An operation is one CLI command or
one public forecast call.  Inputs come from ``spillcast.synth`` with the
benchmark's seed; the program sees only the generated inputs.

Why each workload exists (see README.md for the layer table):

- ``cli-season``: the analyst's season in fresh ``python -m spillcast.cli``
  processes; the only workload where start-up, parsing and artifact
  round-trips count.
- ``short-term``: lead-14 onset and lead-7 severity rollouts, which
  re-simulate from January 1 for every window; checkpointing shows here.
- ``long-term``: AR(365) forecasts over five target years; weather
  rollouts dominate and each target year simulates only 365 days.
- ``k-trend``: K calibration, plane fit and a 30-year trend run; the only
  workload for ``carrycap`` and ``trend`` and for wide batches of
  independent year simulations.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    check_finite_text,
    check_risk,
    check_severity,
    check_table,
    check_trajectory,
)

DEFAULT_SEED = 3            # spillcast.synth's seed: the packaged fixture
CHILD_TIMEOUT_S = 120.0
SHORT_ONSET_LEAD = 14
SHORT_SEVERITY_LEAD = 7
ARCHIVE_START, ARCHIVE_YEARS = 1994, 30


class OperationFailed(Exception):
    """An operation exited non-zero or raised."""


@dataclass
class Operation:
    """``run(ctx)`` is timed; ``save(result, out)`` and ``check(out)`` are
    not.  ``ctx`` carries the pass directory and earlier results; ``out``
    is the operation's own output directory, named after it."""

    name: str
    run: Callable
    check: Callable
    save: Callable = None


def tiny(cfg):
    """Smoke-test configuration: coarse integration and small grids."""
    return dataclasses.replace(cfg, steps_per_day=2, onset_grid=32,
                               severity_grid=16, ar_order_long=60)


def _fit_models(world, cfg, years):
    """Onset density and severity surface fitted on ``years`` of the
    world, as ``fit-onset``/``fit-severity`` do with constant K."""
    from spillcast.epimodel import ModelParams, default_init_state, simulate
    from spillcast.onset import collect_onset_samples, fit_onset_pdf
    from spillcast.severity import collect_severity_samples, fit_rate_surface

    params = ModelParams.from_config(cfg)
    init = default_init_state(cfg)
    weather = world.weather.year_slices()
    trajectories = {
        y: simulate(params, weather[y], np.full(len(weather[y]), cfg.k_default),
                    init, steps_per_day=cfg.steps_per_day)
        for y in years
    }
    case_years = world.cases.year_slices()
    usable = {y: case_years[y] for y in years}
    samples, _ = collect_onset_samples(trajectories, usable,
                                       transform=cfg.feature_transform)
    pdf = fit_onset_pdf(samples,
                        bandwidth=(cfg.onset_bandwidth_m, cfg.onset_bandwidth_r0),
                        grid_size=cfg.onset_grid, levels=cfg.contour_levels,
                        transform=cfg.feature_transform)
    sev_samples = collect_severity_samples(
        trajectories, usable,
        w_weights=(cfg.w_temp, cfg.w_humidity, cfg.w_precip),
        transform=cfg.feature_transform)
    bandwidths = None
    if cfg.severity_bandwidth_m > 0 and cfg.severity_bandwidth_w > 0:
        bandwidths = (cfg.severity_bandwidth_m, cfg.severity_bandwidth_w)
    surface = fit_rate_surface(sev_samples, bandwidths=bandwidths,
                               grid_size=cfg.severity_grid)
    return params, pdf, surface


def _days_in(year) -> int:
    return (date(year + 1, 1, 1) - date(year, 1, 1)).days


def _weather_through(weather, year):
    return weather.slice(0, weather.dates.index(date(year, 12, 31)) + 1)


def _cases_through(cases, year):
    from spillcast.ingest import CaseSeries
    n = sum(1 for w in cases.week_starts if w.year <= year)
    return CaseSeries(cases.week_starts[:n], cases.counts[:n])


# --- cli-season ---------------------------------------------------------------

class CliSeason:
    name = "cli-season"

    def setup(self, seed, size, workdir):
        from spillcast import synth

        cfg = synth.default_config()
        if size == "tiny":
            cfg = tiny(cfg)
        world = synth.generate_world(cfg, seed=seed)
        synth.write_fixture(workdir / "fixture", world)
        self.workdir = workdir
        target = world.weather.dates[-1].year
        self.n_days = len(world.weather)
        self.target_days = _days_in(target)
        self.target_weeks = sum(1 for w in world.cases.week_starts
                                if w.year == target)
        self.x_max = cfg.x_max
        self.output_days = 2 * self.n_days + 3 * self.target_days
        self.env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.child_rss_kb = 0
        self.command_s = {}

    def commands(self):
        fx = "../fixture/"
        data = ["--weather", fx + "weather.csv", "--config", fx + "config.ini"]
        cases = ["--cases", fx + "cases.csv"]
        days, target, x_max = self.n_days, self.target_days, self.x_max
        return [
            ("simulate", ["simulate", *data],
             lambda out: check_trajectory(out / "trajectory.csv", days)),
            ("fit-onset", ["fit-onset", *data, *cases], _check_all_finite),
            ("fit-severity", ["fit-severity", *data, *cases], _check_all_finite),
            ("predict-onset-long",
             ["predict-onset", *data, "--model", "fit-onset", "--mode", "long"],
             lambda out: check_risk(out / "risk.csv", target)),
            ("predict-onset-short",
             ["predict-onset", *data, "--model", "fit-onset", "--mode", "short",
              "--lead", str(SHORT_ONSET_LEAD)],
             lambda out: check_risk(out / "risk.csv", target)),
            ("estimate-severity",
             ["estimate-severity", *data, "--model", "fit-severity"],
             lambda out: check_severity(out / "severity.csv", days, x_max)),
            ("predict-severity",
             ["predict-severity", *data, *cases, "--model", "fit-severity",
              "--mode", "short", "--onset-model", "fit-onset"],
             lambda out: check_severity(out / "severity.csv", target, x_max)),
            ("evaluate",
             ["evaluate", *cases, "--config", fx + "config.ini",
              "--severity-csv", "predict-severity/severity.csv",
              "--model", "both"],
             self._check_scores),
        ]

    def peak_rss_kb(self):
        """Largest peak RSS of the CLI processes."""
        return self.child_rss_kb

    def _check_scores(self, out):
        check_table(out / "scores.csv", 2 * self.target_weeks,
                    ("prob_observed", "score"))
        check_finite_text(out / "scores.json")

    def operations(self, in_process=False):
        runner = self._in_process if in_process else self._fresh
        return [
            Operation(name, lambda ctx, n=name, a=argv: runner(n, a, ctx["dir"]),
                      check)
            for name, argv, check in self.commands()
        ]

    def _fresh(self, name, argv, cwd):
        """One ``python -m spillcast.cli`` process; records its peak RSS."""
        log_path = self.workdir / f"{name}.stderr"
        start = time.perf_counter()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "spillcast.cli", *argv, "--out", name],
                cwd=cwd, env=self.env, stdout=subprocess.DEVNULL, stderr=log)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.command_s.setdefault(name, []).append(elapsed)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise OperationFailed(f"{name}: exit {proc.returncode}: "
                                  f"{log_path.read_text()[-500:]}")

    def _in_process(self, name, argv, cwd):
        from spillcast import cli

        previous = os.getcwd()
        os.chdir(cwd)
        try:
            code = cli.main([*argv, "--out", name])
        finally:
            os.chdir(previous)
        if code != 0:
            raise OperationFailed(f"{name}: exit {code}")


def _check_all_finite(out):
    for path in sorted(out.iterdir()):
        check_finite_text(path)


# --- in-process workloads -----------------------------------------------------

class InProcess:
    """Shared set-up of the in-process workloads: a synthetic world and
    models fitted on its first three (training) years."""

    n_years = 4

    def setup(self, seed, size, workdir):
        from spillcast import synth

        cfg = synth.default_config()
        if size == "tiny":
            cfg = tiny(cfg)
        self.cfg = cfg
        self.world = synth.generate_world(cfg, n_years=self.n_years, seed=seed)
        first = self.world.weather.dates[0].year
        self.params, self.pdf, self.surface = _fit_models(
            self.world, cfg, range(first, first + 3))
        self.target_years = list(range(first + 3, first + self.n_years))

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _save_risk(risk, out):
    from spillcast.onset import save_risk_series
    save_risk_series(risk, out / "risk.csv")


def _save_severity(forecast, out):
    from spillcast.severity import save_severity
    save_severity(forecast, out / "severity.csv")


class ShortTerm(InProcess):
    name = "short-term"

    def setup(self, seed, size, workdir):
        super().setup(seed, size, workdir)
        self.output_days = 2 * _days_in(self.target_years[-1])

    def operations(self, in_process=True):
        from spillcast.pipeline import predict_onset_risk
        from spillcast.severity import predict_severity

        w, cfg, days = self.world, self.cfg, _days_in(self.target_years[-1])
        return [
            Operation(
                "onset-short",
                lambda ctx: predict_onset_risk(
                    w.weather, "short_term", SHORT_ONSET_LEAD, self.pdf,
                    self.params, cfg),
                lambda out: check_risk(out / "risk.csv", days),
                _save_risk),
            Operation(
                "severity-short",
                lambda ctx: predict_severity(
                    w.weather, w.cases, "short_term", SHORT_SEVERITY_LEAD,
                    self.surface, self.params, cfg, onset_pdf=self.pdf),
                lambda out: check_severity(out / "severity.csv", days,
                                           cfg.x_max),
                _save_severity),
        ]


class LongTerm(InProcess):
    name = "long-term"

    def setup(self, seed, size, workdir):
        self.n_years = 4 if size == "tiny" else 8
        super().setup(seed, size, workdir)
        self.inputs = {
            y: (_weather_through(self.world.weather, y),
                _cases_through(self.world.cases, y))
            for y in self.target_years
        }
        self.output_days = 2 * sum(_days_in(y) for y in self.target_years)

    def operations(self, in_process=True):
        from spillcast.pipeline import predict_onset_risk
        from spillcast.severity import predict_severity

        cfg, ops = self.cfg, []
        for year, (weather, cases) in self.inputs.items():
            days = _days_in(year)
            ops.append(Operation(
                f"onset-long-{year}",
                lambda ctx, wx=weather: predict_onset_risk(
                    wx, "long_term", 365, self.pdf, self.params, cfg),
                lambda out, d=days: check_risk(out / "risk.csv", d),
                _save_risk))
            ops.append(Operation(
                f"severity-long-{year}",
                lambda ctx, wx=weather, cs=cases: predict_severity(
                    wx, cs, "long_term", 365, self.surface, self.params, cfg,
                    onset_pdf=self.pdf),
                lambda out, d=days: check_severity(out / "severity.csv", d,
                                                   cfg.x_max),
                _save_severity))
        return ops


class KTrend(InProcess):
    name = "k-trend"

    def setup(self, seed, size, workdir):
        from spillcast import synth

        super().setup(seed, size, workdir)
        target = self.target_years[-1]
        weather = self.world.weather
        self.history = weather.slice(0, weather.dates.index(date(target, 1, 1)))
        self.k_grid = np.linspace(0.2, 2.0, 10) * self.cfg.k_default
        n_archive = 10 if size == "tiny" else ARCHIVE_YEARS
        self.archive = synth.seasonal_weather(
            ARCHIVE_START, n_archive, warming_per_year=0.05, temp_base=16.2,
            noise_sigma=0.35, seed=seed)
        self.n_archive = n_archive
        self.output_days = len(self.archive)

    def operations(self, in_process=True):
        from spillcast.carrycap import (
            KSeries,
            calibrate_K,
            fit_plane,
            predict_K_plane,
            quantile_edges,
        )
        from spillcast.epimodel import default_init_state
        from spillcast.trend import trend_report

        cfg, hist = self.cfg, self.history

        def calibrate(ctx):
            ctx["k"] = calibrate_K(hist, self.world.cases, self.params,
                                   self.k_grid, default_init_state(cfg),
                                   steps_per_day=cfg.steps_per_day)
            return ctx["k"]

        def plane(ctx):
            samples = np.column_stack([hist.temp_mean, hist.humidity,
                                       hist.precip, ctx["k"].values])
            ctx["plane"] = fit_plane(samples, quantile_edges(hist.precip))
            return ctx["plane"]

        def trend(ctx):
            model = ctx["plane"]

            def k_predictor(wx):
                predicted = predict_K_plane(model, wx)
                return KSeries(predicted.dates,
                               np.maximum(predicted.values, 1e-6))
            return trend_report(self.archive, self.pdf, self.params,
                                k_predictor, cfg)

        lo, hi = float(self.k_grid[0]), float(self.k_grid[-1])
        return [
            Operation("calibrate-k", calibrate,
                      lambda out: check_table(out / "k.csv", len(hist), ("K",),
                                              lo, hi),
                      _save_k),
            Operation("fit-plane", plane,
                      lambda out: check_table(out / "plane.csv", 4,
                                              ("lo", "hi", "a", "b", "c")),
                      _save_plane),
            Operation("trend", trend, self._check_trend, _save_trend),
        ]

    def _check_trend(self, out):
        check_table(out / "trend.csv", self.n_archive,
                    ("r_year", "r_relative"), 0.0, 1.0)
        check_finite_text(out / "trend.json")


def _save_k(series, out):
    from spillcast.carrycap import save_k
    save_k(series, out / "k.csv")


def _save_plane(model, out):
    with open(out / "plane.csv", "w") as fh:
        fh.write("bin,lo,hi,a,b,c,count\n")
        for b, coeffs in enumerate(model.coeffs):
            values = (model.edges[b], model.edges[b + 1], *coeffs)
            fh.write(",".join([str(b), *(repr(float(v)) for v in values),
                               str(int(model.counts[b]))]) + "\n")


def _save_trend(report, out):
    with open(out / "trend.csv", "w") as fh:
        fh.write("year,r_year,r_relative\n")
        for year, ry, rr in zip(report.years, report.r_year, report.r_relative):
            fh.write(f"{year},{float(ry)!r},{float(rr)!r}\n")
    summary = {
        name: {"slope": res.slope, "intercept": res.intercept,
               "stderr": res.stderr, "p_value": res.p_value, "ks_p": res.ks_p}
        for name, res in (("r_year", report.trend_r_year),
                          ("r_relative", report.trend_r_relative))
    }
    (out / "trend.json").write_text(json.dumps(summary, indent=2,
                                               sort_keys=True) + "\n")


WORKLOADS = {w.name: w for w in (CliSeason, ShortTerm, LongTerm, KTrend)}

"""Command-line pipeline:

    spillcast simulate | fit-onset | predict-onset | fit-severity |
              estimate-severity | predict-severity | evaluate | trend

Every command reads file inputs, writes CSV/JSON outputs into --out and
returns their names; `main` then writes the manifest, which hashes the
file arguments given.  One exit-code contract: 0 success, 2 input or
usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import Config, load_config
from .errors import InputError, LengthMismatch, NumericalError

# Each command imports the modules it runs, so that none pays to load the
# others: `evaluate` loads no model, `simulate` no onset or severity code.
# No command loads scipy: the special functions are ports (`special`).

K_METHODS = ("const", "csv", "mean", "plane")
# the file arguments a manifest hashes, where a command has them
INPUT_FILES = ("weather", "cases", "k_file", "severity_csv")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir: Path, args, outputs) -> None:
    files = (getattr(args, name, None) for name in INPUT_FILES)
    write_json(out_dir / "manifest.json", {
        "command": args.command,
        "tool_version": __version__,
        "seed": args.seed,
        "config": str(args.config) if args.config else None,
        "config_hash": sha256_file(args.config) if args.config else None,
        "inputs": {str(p): sha256_file(p) for p in files if p},
        "outputs": sorted(outputs),
        "created_at": datetime.now(timezone.utc).isoformat(),
    })


def load_cfg(args) -> Config:
    return load_config(args.config) if args.config else Config()


def out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def model_inputs(args):
    """Preamble of the model commands: (cfg, params, weather, cases), with
    cases None when --cases is not given."""
    from .epimodel import ModelParams
    from .ingest import load_cases, load_weather

    cfg = load_cfg(args)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
    cases = load_cases(args.cases) if args.cases else None
    return cfg, params, weather, cases


def onset_gate(args):
    """The --onset-model that gates Green days to zero, or None."""
    from . import artifacts

    return (artifacts.load_onset_model(args.onset_model)
            if args.onset_model else None)


def k_map(method, k_file, cfg, params, history, cases):
    """--k METHOD as a WeatherSeries -> KSeries map.

    ``const`` is the configured default.  ``csv`` reads ``k_file``, which
    must give a K > 0 for every simulated day; no other method takes one.
    ``mean`` and ``plane`` are calibrated on ``history`` against ``cases``
    by a per-year grid search over 0.2..2.0 x the configured default:
    ``mean`` is the day-of-year mean of each calendar year
    (``predict_K_mean``), ``plane`` the fitted per-precipitation-bin planes
    with K floored at 1e-6.
    """
    from .carrycap import (
        KSeries,
        calibrate_K,
        fit_plane,
        load_k,
        predict_K_mean,
        predict_K_plane,
        quantile_edges,
    )
    from .epimodel import default_init_state

    if k_file and method != "csv":
        raise InputError(f"--k-file is read only by --k csv, not --k {method}")
    if method == "const":
        return lambda wx: KSeries(wx.dates, np.full(len(wx), cfg.k_default))
    if method == "csv":
        if not k_file:
            raise InputError("--k csv requires --k-file")
        series = load_k(k_file)
        lookup = dict(zip(series.dates, series.values))

        def from_file(wx):
            missing = [d for d in wx.dates if d not in lookup]
            if missing:
                raise LengthMismatch(
                    f"K file does not cover {len(missing)} simulated days "
                    f"(first missing: {missing[0]})")
            values = np.array([lookup[d] for d in wx.dates])
            if np.any(values <= 0):
                first = wx.dates[int(np.argmax(values <= 0))]
                raise InputError(f"K file has K <= 0 on a simulated day "
                                 f"(first: {first})")
            return KSeries(wx.dates, values)
        return from_file

    if cases is None:
        raise InputError(f"--k {method} requires --cases")
    grid = np.linspace(0.2, 2.0, 10) * cfg.k_default
    calibrated = calibrate_K(history, cases, params, grid,
                             default_init_state(cfg),
                             steps_per_day=cfg.steps_per_day)
    if method == "mean":
        def mean(wx):
            lookup = {}
            for year in sorted({d.year for d in wx.dates}):
                year_k = predict_K_mean(calibrated, year)
                lookup.update(zip(year_k.dates, year_k.values))
            return KSeries(wx.dates, np.array([lookup[d] for d in wx.dates]))
        return mean

    samples = np.column_stack([
        history.temp_mean, history.humidity, history.precip,
        calibrated.values,
    ])
    model = fit_plane(samples, quantile_edges(history.precip))

    def plane(wx):
        predicted = predict_K_plane(model, wx)
        return KSeries(predicted.dates, np.maximum(predicted.values, 1e-6))
    return plane


def fit_history(args):
    """Preamble of the fit commands: the trajectory of each complete
    calendar year from the default initial state, and the case weeks of
    those years; returns (cfg, {year: Trajectory}, {year: CaseSeries})."""
    from .epimodel import Run, default_init_state, simulate_runs

    cfg, params, weather, cases = model_inputs(args)
    k = k_map(args.k, args.k_file, cfg, params, weather, cases)(weather)
    by_date = dict(zip(k.dates, k.values))
    init = default_init_state(cfg)
    runs = {
        year: Run(wx, np.array([by_date[d] for d in wx.dates]), init)
        for year, wx in weather.year_slices().items()
        if wx.dates[0] == date(year, 1, 1) and wx.dates[-1] == date(year, 12, 31)
    }
    if not runs:
        raise InputError("no complete calendar year in the weather file")
    trajectories = dict(zip(runs, simulate_runs(
        params, runs.values(), steps_per_day=cfg.steps_per_day)))
    case_years = cases.year_slices()
    usable = {y: case_years[y] for y in trajectories if y in case_years}
    return cfg, trajectories, usable


def simulate_span(args):
    """Preamble of simulate and estimate-severity: (cfg, weather, the
    trajectory of the whole weather span from the default initial
    state)."""
    from .epimodel import default_init_state, simulate

    cfg, params, weather, cases = model_inputs(args)
    k = k_map(args.k, args.k_file, cfg, params, weather, cases)(weather)
    return cfg, weather, simulate(params, weather, k.values,
                                  default_init_state(cfg),
                                  steps_per_day=cfg.steps_per_day)


def forecast_setup(args, cfg, params, weather, cases):
    """Preamble of the predict commands: (mode, lead, K map), with
    calibrated K fitted on the years before the target year.

    --lead sets the short-term window; 0 takes the config's short_lead.
    The long-term forecast runs from January 1 of the weather's last year
    to its last day, so it takes no --lead."""
    if args.mode == "long" and args.lead:
        raise InputError(f"--lead {args.lead}: the long-term forecast takes "
                         "no lead, it ends where the weather ends")
    if args.lead < 0:
        raise InputError(f"--lead {args.lead} < 1 (0 means short_lead)")
    if args.k == "mean":
        raise InputError("--k mean is not supported for prediction; "
                         "use const, csv or plane")
    year_start = date(weather.dates[-1].year, 1, 1)
    if year_start not in weather.dates:
        raise InputError(f"the weather does not reach back to {year_start}")
    history = weather.slice(0, weather.dates.index(year_start))
    k = k_map(args.k, args.k_file, cfg, params, history, cases)
    mode = "long_term" if args.mode == "long" else "short_term"
    lead = args.lead or (365 if mode == "long_term" else cfg.short_lead)
    return mode, lead, k


def bandwidth_pair(first, second):
    """The two configured bandwidths if both are > 0, else None, which
    means automatic."""
    return (first, second) if first > 0 and second > 0 else None


# --- commands ---------------------------------------------------------------
# Each returns the names of the files it wrote into --out, which it creates
# only once its work has succeeded.

def cmd_simulate(args) -> list:
    from .epimodel import save_trajectory

    _, _, traj = simulate_span(args)
    save_trajectory(traj, out_dir(args) / "trajectory.csv")
    return ["trajectory.csv"]


def cmd_fit_onset(args) -> list:
    from . import artifacts
    from .onset import collect_onset_samples, fit_onset_pdf

    cfg, trajectories, usable = fit_history(args)
    samples, skipped = collect_onset_samples(
        trajectories, usable, transform=cfg.feature_transform)
    for year in skipped:
        print(f"note: year {year} has no cases; skipped", file=sys.stderr)
    pdf = fit_onset_pdf(samples,
                        bandwidth=bandwidth_pair(cfg.onset_bandwidth_m,
                                                 cfg.onset_bandwidth_r0),
                        grid_size=cfg.onset_grid, levels=cfg.contour_levels,
                        transform=cfg.feature_transform)
    artifacts.save_onset_model(pdf, out_dir(args))
    return [artifacts.ONSET_HEADER, artifacts.ONSET_SAMPLES,
            artifacts.ONSET_GRID]


def cmd_predict_onset(args) -> list:
    from . import artifacts
    from .onset import save_risk_series
    from .pipeline import predict_onset_risk

    cfg, params, weather, cases = model_inputs(args)
    pdf = artifacts.load_onset_model(args.model)
    mode, lead, k = forecast_setup(args, cfg, params, weather, cases)
    risk = predict_onset_risk(weather, mode, lead, pdf, params, cfg,
                              k_series=k)
    save_risk_series(risk, out_dir(args) / "risk.csv")
    return ["risk.csv"]


def cmd_fit_severity(args) -> list:
    from . import artifacts
    from .severity import collect_severity_samples, fit_rate_surface

    cfg, trajectories, usable = fit_history(args)
    samples = collect_severity_samples(
        trajectories, usable,
        w_weights=(cfg.w_temp, cfg.w_humidity, cfg.w_precip),
        transform=cfg.feature_transform)
    bandwidths = bandwidth_pair(cfg.severity_bandwidth_m,
                                cfg.severity_bandwidth_w)
    surface = fit_rate_surface(samples, bandwidths=bandwidths,
                               grid_size=cfg.severity_grid)
    artifacts.save_severity_model(surface, out_dir(args))
    return [artifacts.SEVERITY_HEADER, artifacts.SEVERITY_SAMPLES,
            artifacts.SEVERITY_GRID]


def cmd_estimate_severity(args) -> list:
    from . import artifacts
    from .pipeline import weather_feature
    from .severity import curve_posteriors, estimate_severity, save_severity

    surface = artifacts.load_severity_model(args.model)
    onset_pdf = onset_gate(args)
    cfg, weather, traj = simulate_span(args)
    w_weights = (cfg.w_temp, cfg.w_humidity, cfg.w_precip)
    w_series = weather_feature(weather, w_weights)
    curve = list(zip(traj.m.tolist(), w_series.tolist()))
    posteriors = curve_posteriors(curve, surface, cfg)
    result = estimate_severity(traj, posteriors, w_weights=w_weights,
                               onset_pdf=onset_pdf)
    save_severity(result, out_dir(args) / "severity.csv")
    return ["severity.csv"]


def cmd_predict_severity(args) -> list:
    from . import artifacts
    from .severity import predict_severity, save_severity

    cfg, params, weather, cases = model_inputs(args)
    surface = artifacts.load_severity_model(args.model)
    onset_pdf = onset_gate(args)
    mode, lead, k = forecast_setup(args, cfg, params, weather, cases)
    result = predict_severity(weather, cases, mode, lead, surface, params,
                              cfg, k_series=k, onset_pdf=onset_pdf)
    save_severity(result, out_dir(args) / "severity.csv")
    return ["severity.csv"]


def _weekly_predictions(severity_csv, week_starts):
    """Sum daily predicted cases into the observed weekly grid.  Every day
    of each week must be in the file; the first missing one, in date
    order, is named."""
    from .ingest import SEVERITY_HEADER, parse_date, parse_int, read_table

    daily = {parse_date(fields[0], lineno):
             parse_int(fields[3], "predicted_cases", lineno)
             for lineno, fields in read_table(severity_csv, SEVERITY_HEADER)}
    try:
        return [sum(daily[w + timedelta(days=i)] for i in range(7))
                for w in week_starts]
    except KeyError as exc:
        raise InputError(f"{severity_csv}: no predicted_cases for "
                         f"{exc.args[0]}, a day of a scored week") from None


def cmd_evaluate(args) -> list:
    from .evaluate import bayesian_predictive, nb_one_step, score_run
    from .ingest import load_cases, write_table

    cfg = load_cfg(args)
    cases = load_cases(args.cases)
    target_year = args.target_year or cases.week_starts[-1].year
    target = cases.year_slices().get(target_year)
    if target is None:
        raise InputError(f"no observed weeks in {target_year}")
    first = cases.week_starts.index(target.week_starts[0])

    models = ("bayes", "nb") if args.model == "both" else (args.model,)
    rows = []
    summary = {}
    for model in models:
        if model == "bayes":
            if not args.severity_csv:
                raise InputError("--model bayes requires --severity-csv")
            weekly = _weekly_predictions(args.severity_csv, target.week_starts)
            dists = [bayesian_predictive(v, sigma=cfg.sharpen_sigma,
                                         x_cap=cfg.x_cap, week=w)
                     for v, w in zip(weekly, target.week_starts)]
        else:
            dists = [nb_one_step(cases.counts[:first + n], x_cap=cfg.x_cap,
                                 min_obs=cfg.nb_min_obs, week=w)
                     for n, w in enumerate(target.week_starts)]
        report = score_run(dists, target, floor=cfg.score_floor)
        for dist, week, obs, s in zip(dists, report.weeks, report.observed,
                                      report.scores):
            prob = float(dist.probs[obs]) if obs <= dist.x_cap else 0.0
            rows.append((week, obs, model, prob, s))
        summary[model] = {"TS": report.ts, "ZS": report.zs, "NZS": report.nzs}

    out = out_dir(args)
    write_table(out / "scores.csv",
                ["week", "observed", "model", "prob_observed", "score"],
                zip(*rows))
    write_json(out / "scores.json", summary)
    return ["scores.csv", "scores.json"]


def cmd_trend(args) -> list:
    from . import artifacts
    from .ingest import write_table
    from .trend import trend_report

    cfg, params, weather, cases = model_inputs(args)
    pdf = artifacts.load_onset_model(args.model)
    if args.years:
        try:
            first, last = (int(v) for v in args.years.split(".."))
        except ValueError:
            raise InputError(f"bad --years range {args.years!r}") from None
        idx = [i for i, d in enumerate(weather.dates)
               if first <= d.year <= last]
        if not idx:
            raise InputError(f"no weather in {args.years}")
        weather = weather.slice(idx[0], idx[-1] + 1)

    method = "const" if cases is None else "plane"
    k = k_map(method, None, cfg, params, weather, cases)
    report = trend_report(weather, pdf, params, k, cfg)
    out = out_dir(args)
    write_table(out / "trend.csv", ["year", "r_year", "r_relative"],
                [report.years, report.r_year, report.r_relative])
    write_json(out / "trend.json", {
        name: {key: getattr(res, key) for key in
               ("slope", "intercept", "stderr", "p_value", "ks_p")}
        for name, res in (("r_year", report.trend_r_year),
                          ("r_relative", report.trend_r_relative))})
    return ["trend.csv", "trend.json"]


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spillcast",
        description="West Nile virus spillover onset-risk and severity "
                    "forecasting",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, cases, model=None, weather=True):
        """A subcommand with the common arguments: --cases required or
        optional, --weather unless ``weather`` is false, and --model when
        ``model`` gives its help."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in the manifest")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--cases", required=cases,
                       help="weekly case counts CSV")
        if weather:
            p.add_argument("--weather", required=True,
                           help="daily weather CSV")
        if model:
            p.add_argument("--model", required=True, help=model)
        return p

    onset, severity = "fitted onset model dir", "fitted severity model dir"
    parsers = {
        "simulate": command("simulate", cmd_simulate,
                            "run the compartmental model", cases=False),
        "fit-onset": command("fit-onset", cmd_fit_onset,
                             "fit the onset-risk density", cases=True),
        "predict-onset": command("predict-onset", cmd_predict_onset,
                                 "forecast daily onset risk", cases=False,
                                 model=onset),
        "fit-severity": command("fit-severity", cmd_fit_severity,
                                "fit the Poisson rate surface", cases=True),
        "estimate-severity": command(
            "estimate-severity", cmd_estimate_severity,
            "per-day MPP severity on historical weather", cases=False,
            model=severity),
        "predict-severity": command(
            "predict-severity", cmd_predict_severity,
            "forecast per-day severity for the target year", cases=True,
            model=severity),
    }
    for p in parsers.values():
        p.add_argument(
            "--k", choices=K_METHODS, default="const",
            help="carrying-capacity source: const (configured default), csv "
                 "(--k-file), or mean/plane (calibrated from --cases); "
                 "predict-* reject mean")
        p.add_argument("--k-file", dest="k_file",
                       help="K CSV, only for --k csv: K > 0 on every "
                            "simulated day")
    for name in ("predict-onset", "predict-severity"):
        parsers[name].add_argument("--mode", choices=("long", "short"),
                                   default="long")
        parsers[name].add_argument(
            "--lead", type=int, default=0,
            help="days per short-term forecast window (0 = config "
                 "short_lead)")
    for name in ("estimate-severity", "predict-severity"):
        parsers[name].add_argument(
            "--onset-model", dest="onset_model",
            help="gate Green days to zero with this onset model")

    p = command("evaluate", cmd_evaluate, "log-score weekly predictions",
                cases=True, weather=False)
    p.add_argument("--severity-csv", dest="severity_csv",
                   help="daily severity forecast to score as 'bayes'")
    p.add_argument("--model", choices=("bayes", "nb", "both"), default="both")
    p.add_argument("--target-year", dest="target_year", type=int)

    p = command("trend", cmd_trend, "multi-decade warming-trend analysis",
                cases=False, model=onset)
    p.add_argument("--years", help="range A..B to analyze")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        write_manifest(Path(args.out), args, args.func(args))
        return 0
    except (InputError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # never crash with a traceback
        print(f"internal failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

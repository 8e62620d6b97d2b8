"""Command-line pipeline:

    spillcast simulate | fit-onset | predict-onset | fit-severity |
              estimate-severity | predict-severity | evaluate | trend

Every command reads file inputs, writes CSV/JSON outputs plus a manifest
into --out, and follows one exit-code contract: 0 success, 2 input or
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
from .config import PRIORS, Config, load_config
from .errors import InputError, LengthMismatch, NumericalError

# Each command imports the modules it runs, so that none pays to load the
# others: `evaluate` loads no model, `simulate` no onset or severity code.
# No command loads scipy: the special functions are ports (`special`).

K_METHODS = ("const", "csv", "mean", "plane")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, args, inputs, outputs) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": args.seed,
        "config": str(args.config) if args.config else None,
        "config_hash": sha256_file(args.config) if args.config else None,
        "inputs": {str(p): sha256_file(p) for p in inputs if p},
        "outputs": sorted(str(Path(o).name) for o in outputs),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_cfg(args) -> Config:
    return load_config(args.config) if args.config else Config()


def out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def k_map(method, k_file, cfg, params, history, cases):
    """--k METHOD as a WeatherSeries -> KSeries map.

    ``const`` is the configured default.  ``csv`` reads ``k_file``, which
    must give a K > 0 for every simulated day.  ``mean`` and ``plane`` are
    calibrated on ``history`` against ``cases`` by a per-year grid search
    over 0.2..2.0 x the configured default: ``mean`` is the day-of-year
    mean of each calendar year (``predict_K_mean``), ``plane`` the fitted
    per-precipitation-bin planes with K floored at 1e-6.
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
    from .epimodel import ModelParams, Run, default_init_state, simulate_runs
    from .ingest import load_cases, load_weather

    cfg = load_cfg(args)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
    cases = load_cases(args.cases)
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

def cmd_simulate(args) -> int:
    from .epimodel import (
        ModelParams,
        default_init_state,
        save_trajectory,
        simulate,
    )
    from .ingest import load_cases, load_weather

    cfg = load_cfg(args)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
    cases = load_cases(args.cases) if args.cases else None
    k = k_map(args.k, args.k_file, cfg, params, weather, cases)(weather)
    traj = simulate(params, weather, k.values, default_init_state(cfg),
                    steps_per_day=cfg.steps_per_day)
    out = out_dir(args)
    save_trajectory(traj, out / "trajectory.csv")
    write_manifest(out, "simulate", args,
                   [args.weather, args.cases, args.k_file],
                   ["trajectory.csv"])
    return 0


def cmd_fit_onset(args) -> int:
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
    out = out_dir(args)
    artifacts.save_onset_model(pdf, out)
    write_manifest(out, "fit-onset", args,
                   [args.weather, args.cases, args.k_file],
                   [artifacts.ONSET_HEADER, artifacts.ONSET_SAMPLES,
                    artifacts.ONSET_GRID])
    return 0


def cmd_predict_onset(args) -> int:
    from . import artifacts
    from .epimodel import ModelParams
    from .ingest import load_cases, load_weather
    from .onset import save_risk_series
    from .pipeline import predict_onset_risk

    cfg = load_cfg(args)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
    pdf = artifacts.load_onset_model(args.model)
    cases = load_cases(args.cases) if args.cases else None
    mode, lead, k = forecast_setup(args, cfg, params, weather, cases)
    risk = predict_onset_risk(weather, mode, lead, pdf, params, cfg,
                              k_series=k)
    out = out_dir(args)
    save_risk_series(risk, out / "risk.csv")
    write_manifest(out, "predict-onset", args,
                   [args.weather, args.cases, args.k_file], ["risk.csv"])
    return 0


def cmd_fit_severity(args) -> int:
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
    out = out_dir(args)
    artifacts.save_severity_model(surface, out)
    write_manifest(out, "fit-severity", args,
                   [args.weather, args.cases, args.k_file],
                   [artifacts.SEVERITY_HEADER, artifacts.SEVERITY_SAMPLES,
                    artifacts.SEVERITY_GRID])
    return 0


def _cfg_with_prior(cfg, prior_name):
    if prior_name is None:
        return cfg
    import dataclasses
    return dataclasses.replace(cfg, prior=prior_name)


def cmd_estimate_severity(args) -> int:
    from . import artifacts
    from .epimodel import ModelParams, default_init_state, simulate
    from .ingest import load_cases, load_weather
    from .pipeline import weather_feature
    from .severity import curve_posteriors, estimate_severity, save_severity

    cfg = _cfg_with_prior(load_cfg(args), args.prior)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
    surface = artifacts.load_severity_model(args.model)
    onset_pdf = (artifacts.load_onset_model(args.onset_model)
                 if args.onset_model else None)
    cases = load_cases(args.cases) if args.cases else None
    k = k_map(args.k, args.k_file, cfg, params, weather, cases)(weather)
    traj = simulate(params, weather, k.values, default_init_state(cfg),
                    steps_per_day=cfg.steps_per_day)
    w_weights = (cfg.w_temp, cfg.w_humidity, cfg.w_precip)
    w_series = weather_feature(weather, w_weights)
    curve = list(zip(traj.m.tolist(), w_series.tolist()))
    posteriors = curve_posteriors(curve, surface, cfg)
    result = estimate_severity(traj, posteriors, w_weights=w_weights,
                               onset_pdf=onset_pdf)
    out = out_dir(args)
    save_severity(result, out / "severity.csv")
    write_manifest(out, "estimate-severity", args,
                   [args.weather, args.cases, args.k_file], ["severity.csv"])
    return 0


def cmd_predict_severity(args) -> int:
    from . import artifacts
    from .epimodel import ModelParams
    from .ingest import load_cases, load_weather
    from .severity import predict_severity, save_severity

    cfg = _cfg_with_prior(load_cfg(args), args.prior)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
    cases = load_cases(args.cases)
    surface = artifacts.load_severity_model(args.model)
    mode, lead, k = forecast_setup(args, cfg, params, weather, cases)
    onset_pdf = (artifacts.load_onset_model(args.onset_model)
                 if args.onset_model else None)
    result = predict_severity(weather, cases, mode, lead, surface, params,
                              cfg, k_series=k, onset_pdf=onset_pdf)
    out = out_dir(args)
    save_severity(result, out / "severity.csv")
    write_manifest(out, "predict-severity", args,
                   [args.weather, args.cases, args.k_file], ["severity.csv"])
    return 0


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


def cmd_evaluate(args) -> int:
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
    with open(out / "scores.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(out, "evaluate", args,
                   [args.cases, args.severity_csv],
                   ["scores.csv", "scores.json"])
    return 0


def cmd_trend(args) -> int:
    from . import artifacts
    from .epimodel import ModelParams
    from .ingest import load_cases, load_weather, write_table
    from .trend import trend_report

    cfg = load_cfg(args)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
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

    cases = load_cases(args.cases) if args.cases else None
    k = k_map("plane" if args.cases else "const", None, cfg, params, weather, cases)
    report = trend_report(weather, pdf, params, k, cfg)
    out = out_dir(args)
    write_table(out / "trend.csv", ["year", "r_year", "r_relative"],
                [report.years, report.r_year, report.r_relative])
    summary = {}
    for name, res in (("r_year", report.trend_r_year),
                      ("r_relative", report.trend_r_relative)):
        summary[name] = {
            "slope": res.slope,
            "intercept": res.intercept,
            "stderr": res.stderr,
            "p_value": res.p_value,
            "ks_p": res.ks_p,
        }
    with open(out / "trend.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(out, "trend", args, [args.weather, args.cases],
                   ["trend.csv", "trend.json"])
    return 0


# --- parser -----------------------------------------------------------------

def add_common(parser, k_flag=True):
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the manifest")
    parser.add_argument("--out", required=True, help="output directory")
    if k_flag:
        parser.add_argument(
            "--k", choices=K_METHODS, default="const",
            help="carrying-capacity source: const (configured default), csv "
                 "(--k-file), or mean/plane (calibrated from --cases); "
                 "predict-* reject mean")
        parser.add_argument("--k-file", dest="k_file",
                            help="K CSV for --k csv: K > 0 on every "
                                 "simulated day")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spillcast",
        description="West Nile virus spillover onset-risk and severity "
                    "forecasting",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the compartmental model")
    add_common(p)
    p.add_argument("--weather", required=True)
    p.add_argument("--cases", help="needed for calibrated --k methods")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit-onset", help="fit the onset-risk density")
    add_common(p)
    p.add_argument("--weather", required=True)
    p.add_argument("--cases", required=True)
    p.set_defaults(func=cmd_fit_onset)

    p = sub.add_parser("predict-onset", help="forecast daily onset risk")
    add_common(p)
    p.add_argument("--weather", required=True)
    p.add_argument("--cases")
    p.add_argument("--model", required=True, help="fitted onset model dir")
    p.add_argument("--mode", choices=("long", "short"), default="long")
    p.add_argument("--lead", type=int, default=0,
                   help="days per short-term forecast window "
                        "(0 = config short_lead)")
    p.set_defaults(func=cmd_predict_onset)

    p = sub.add_parser("fit-severity", help="fit the Poisson rate surface")
    add_common(p)
    p.add_argument("--weather", required=True)
    p.add_argument("--cases", required=True)
    p.set_defaults(func=cmd_fit_severity)

    p = sub.add_parser("estimate-severity",
                       help="per-day MPP severity on historical weather")
    add_common(p)
    p.add_argument("--weather", required=True)
    p.add_argument("--cases")
    p.add_argument("--model", required=True, help="fitted severity model dir")
    p.add_argument("--prior", choices=PRIORS)
    p.add_argument("--onset-model", dest="onset_model",
                   help="gate Green days to zero with this onset model")
    p.set_defaults(func=cmd_estimate_severity)

    p = sub.add_parser("predict-severity",
                       help="forecast per-day severity for the target year")
    add_common(p)
    p.add_argument("--weather", required=True)
    p.add_argument("--cases", required=True)
    p.add_argument("--model", required=True, help="fitted severity model dir")
    p.add_argument("--mode", choices=("long", "short"), default="long")
    p.add_argument("--lead", type=int, default=0,
                   help="days per short-term forecast window "
                        "(0 = config short_lead)")
    p.add_argument("--prior", choices=PRIORS)
    p.add_argument("--onset-model", dest="onset_model",
                   help="gate Green days to zero with this onset model")
    p.set_defaults(func=cmd_predict_severity)

    p = sub.add_parser("evaluate", help="log-score weekly predictions")
    add_common(p, k_flag=False)
    p.add_argument("--cases", required=True)
    p.add_argument("--severity-csv", dest="severity_csv",
                   help="daily severity forecast to score as 'bayes'")
    p.add_argument("--model", choices=("bayes", "nb", "both"), default="both")
    p.add_argument("--target-year", dest="target_year", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("trend", help="multi-decade warming-trend analysis")
    add_common(p, k_flag=False)
    p.add_argument("--weather", required=True, help="multi-decade archive")
    p.add_argument("--cases", help="history for plane-based K (optional)")
    p.add_argument("--model", required=True, help="fitted onset model dir")
    p.add_argument("--years", help="range A..B to analyze")
    p.set_defaults(func=cmd_trend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
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

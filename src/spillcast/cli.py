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
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, artifacts
from .carrycap import (
    KSeries,
    calibrate_K,
    fit_plane,
    load_k,
    predict_K_plane,
    quantile_edges,
)
from .config import Config, load_config
from .epimodel import (
    ModelParams,
    Run,
    default_init_state,
    simulate,
    simulate_runs,
    save_trajectory,
)
from .errors import InputError, LengthMismatch, NumericalError
from .ingest import load_cases, load_weather
from .onset import collect_onset_samples, fit_onset_pdf, save_risk_series
from .pipeline import predict_onset_risk, weather_feature
from .severity import (
    build_posteriors,
    build_prior,
    collect_severity_samples,
    estimate_severity,
    fit_rate_surface,
    predict_severity,
    save_severity,
)

K_METHODS = ("const", "csv", "mean", "ar", "plane")
PRIOR_NAMES = ("uniform", "gaussian", "band")


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


def yearly_trajectories(cfg, params, weather, k_values):
    """Simulate each complete calendar year from the default initial
    state; returns {year: Trajectory}."""
    init = default_init_state(cfg)
    by_date = dict(zip(weather.dates, k_values))
    runs = {
        year: Run(wx, np.array([by_date[d] for d in wx.dates]), init)
        for year, wx in weather.year_slices().items()
        if wx.dates[0] == date(year, 1, 1) and wx.dates[-1] == date(year, 12, 31)
    }
    trajectories = simulate_runs(params, runs.values(),
                                 steps_per_day=cfg.steps_per_day)
    return dict(zip(runs, trajectories))


def resolve_k(args, cfg, params, weather, cases):
    """Per-day carrying capacity over the weather span for --k METHOD."""
    method = args.k
    n = len(weather)
    if method == "const":
        return np.full(n, cfg.k_default)
    if method == "csv":
        if not args.k_file:
            raise InputError("--k csv requires --k-file")
        series = load_k(args.k_file)
        lookup = dict(zip(series.dates, series.values))
        missing = [d for d in weather.dates if d not in lookup]
        if missing:
            raise LengthMismatch(
                f"K file does not cover {len(missing)} weather days "
                f"(first missing: {missing[0]})"
            )
        return np.array([lookup[d] for d in weather.dates])

    # calibrated methods need observed cases
    if cases is None:
        raise InputError(f"--k {method} requires --cases")
    if method == "plane":
        return plane_predictor(cfg, params, weather, cases)(weather).values
    calibrated = calibrate_history(cfg, params, weather, cases)
    if method == "mean":
        by_doy = {}
        for d, v in zip(calibrated.dates, calibrated.values):
            by_doy.setdefault((d.month, d.day), []).append(float(v))
        fallback = float(np.mean(calibrated.values))
        return np.array([
            float(np.mean(by_doy.get((d.month, d.day), [fallback])))
            for d in weather.dates
        ])
    if method == "ar":
        return calibrated.values
    raise InputError(f"unknown K method {method!r}")


def calibrate_history(cfg, params, weather, cases):
    """K calibrated per year on the grid 0.2..2.0 x the configured
    default."""
    grid = np.linspace(0.2, 2.0, 10) * cfg.k_default
    return calibrate_K(weather, cases, params, grid, default_init_state(cfg),
                       steps_per_day=cfg.steps_per_day)


def plane_predictor(cfg, params, weather, cases):
    """Fit the per-precipitation-bin planes on calibrated history and
    return a WeatherSeries -> KSeries callable (K floored at 1e-6)."""
    calibrated = calibrate_history(cfg, params, weather, cases)
    samples = np.column_stack([
        weather.temp_mean, weather.humidity, weather.precip,
        calibrated.values,
    ])
    model = fit_plane(samples, quantile_edges(weather.precip))

    def predict(wx):
        predicted = predict_K_plane(model, wx)
        return KSeries(predicted.dates, np.maximum(predicted.values, 1e-6))
    return predict


def forecast_k(args, cfg, params, weather, cases):
    """Carrying capacity for the predict commands: None for --k const, the
    K file for csv, or the fitted precipitation-bin planes for plane."""
    if args.k in ("mean", "ar"):
        raise InputError(f"--k {args.k} is not supported for prediction; "
                         "use const, csv or plane")
    if args.k == "plane":
        if cases is None:
            raise InputError("--k plane requires --cases")
        history_end = weather.dates.index(date(weather.dates[-1].year, 1, 1))
        history = weather.slice(0, history_end)
        return plane_predictor(cfg, params, history, cases)
    if args.k == "csv":
        if not args.k_file:
            raise InputError("--k csv requires --k-file")
        return load_k(args.k_file)
    return None


def onset_bandwidth(cfg):
    if cfg.onset_bandwidth_m > 0 and cfg.onset_bandwidth_r0 > 0:
        return (cfg.onset_bandwidth_m, cfg.onset_bandwidth_r0)
    return None


def severity_bandwidth(cfg):
    if cfg.severity_bandwidth_m > 0 and cfg.severity_bandwidth_w > 0:
        return (cfg.severity_bandwidth_m, cfg.severity_bandwidth_w)
    return None


# --- commands ---------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = load_cfg(args)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
    cases = load_cases(args.cases) if args.cases else None
    k_values = resolve_k(args, cfg, params, weather, cases)
    traj = simulate(params, weather, k_values, default_init_state(cfg),
                    steps_per_day=cfg.steps_per_day)
    out = out_dir(args)
    save_trajectory(traj, out / "trajectory.csv")
    write_manifest(out, "simulate", args,
                   [args.weather, args.cases, args.k_file],
                   ["trajectory.csv"])
    return 0


def cmd_fit_onset(args) -> int:
    cfg = load_cfg(args)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
    cases = load_cases(args.cases)
    k_values = resolve_k(args, cfg, params, weather, cases)
    trajectories = yearly_trajectories(cfg, params, weather, k_values)
    if not trajectories:
        raise InputError("no complete calendar year in the weather file")
    case_years = cases.year_slices()
    usable = {y: case_years[y] for y in trajectories if y in case_years}
    samples, skipped = collect_onset_samples(
        trajectories, usable, transform=cfg.feature_transform)
    for year in skipped:
        print(f"note: year {year} has no cases; skipped", file=sys.stderr)
    pdf = fit_onset_pdf(samples, bandwidth=onset_bandwidth(cfg),
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
    cfg = load_cfg(args)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
    pdf = artifacts.load_onset_model(args.model)
    cases = load_cases(args.cases) if args.cases else None
    k_series = forecast_k(args, cfg, params, weather, cases)
    mode = "long_term" if args.mode == "long" else "short_term"
    lead = args.lead if args.lead else (365 if mode == "long_term"
                                        else cfg.short_lead)
    risk = predict_onset_risk(weather, mode, lead, pdf, params, cfg,
                              k_series=k_series)
    out = out_dir(args)
    save_risk_series(risk, out / "risk.csv")
    write_manifest(out, "predict-onset", args,
                   [args.weather, args.cases, args.k_file], ["risk.csv"])
    return 0


def cmd_fit_severity(args) -> int:
    cfg = load_cfg(args)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
    cases = load_cases(args.cases)
    k_values = resolve_k(args, cfg, params, weather, cases)
    trajectories = yearly_trajectories(cfg, params, weather, k_values)
    if not trajectories:
        raise InputError("no complete calendar year in the weather file")
    case_years = cases.year_slices()
    usable = {y: case_years[y] for y in trajectories if y in case_years}
    samples = collect_severity_samples(
        trajectories, usable,
        w_weights=(cfg.w_temp, cfg.w_humidity, cfg.w_precip),
        transform=cfg.feature_transform)
    surface = fit_rate_surface(samples, bandwidths=severity_bandwidth(cfg),
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
    if prior_name not in PRIOR_NAMES:
        raise InputError(f"unknown prior {prior_name!r}")
    import dataclasses
    return dataclasses.replace(cfg, prior=prior_name)


def cmd_estimate_severity(args) -> int:
    cfg = _cfg_with_prior(load_cfg(args), args.prior)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
    surface = artifacts.load_severity_model(args.model)
    onset_pdf = (artifacts.load_onset_model(args.onset_model)
                 if args.onset_model else None)
    cases = load_cases(args.cases) if args.cases else None
    k_values = resolve_k(args, cfg, params, weather, cases)
    traj = simulate(params, weather, k_values, default_init_state(cfg),
                    steps_per_day=cfg.steps_per_day)
    w_weights = (cfg.w_temp, cfg.w_humidity, cfg.w_precip)
    prior_kind = {"uniform": "uniform_box", "gaussian": "gaussian_ridge",
                  "band": "uniform_band"}[cfg.prior]
    w_series = weather_feature(weather, w_weights)
    curve = list(zip(traj.m.tolist(), w_series.tolist()))
    prior = build_prior(prior_kind, curve, surface.grid,
                        sigma=cfg.prior_sigma, halfwidth=cfg.band_halfwidth)
    posteriors = build_posteriors(prior, surface, cfg.x_max)
    result = estimate_severity(traj, posteriors, w_weights=w_weights,
                               onset_pdf=onset_pdf)
    out = out_dir(args)
    save_severity(result, out / "severity.csv")
    write_manifest(out, "estimate-severity", args,
                   [args.weather, args.cases, args.k_file], ["severity.csv"])
    return 0


def cmd_predict_severity(args) -> int:
    cfg = _cfg_with_prior(load_cfg(args), args.prior)
    params = ModelParams.from_config(cfg)
    weather = load_weather(args.weather)
    cases = load_cases(args.cases)
    surface = artifacts.load_severity_model(args.model)
    k_series = forecast_k(args, cfg, params, weather, cases)
    onset_pdf = (artifacts.load_onset_model(args.onset_model)
                 if args.onset_model else None)
    mode = "long_term" if args.mode == "long" else "short_term"
    lead = args.lead if args.lead else (365 if mode == "long_term"
                                        else cfg.short_lead)
    result = predict_severity(weather, cases, mode, lead, surface, params,
                              cfg, k_series=k_series, onset_pdf=onset_pdf)
    out = out_dir(args)
    save_severity(result, out / "severity.csv")
    write_manifest(out, "predict-severity", args,
                   [args.weather, args.cases, args.k_file], ["severity.csv"])
    return 0


def _weekly_predictions(severity_csv, week_starts):
    """Sum daily predicted cases into the observed weekly grid."""
    import csv as csvmod
    daily = {}
    with open(severity_csv, newline="") as fh:
        reader = csvmod.reader(fh)
        header = next(reader)
        if header[:1] != ["date"] or "predicted_cases" not in header:
            raise InputError("not a severity forecast CSV")
        col = header.index("predicted_cases")
        for row in reader:
            daily[date.fromisoformat(row[0])] = int(row[col])
    from datetime import timedelta
    return [
        sum(daily.get(w + timedelta(days=i), 0) for i in range(7))
        for w in week_starts
    ]


def cmd_evaluate(args) -> int:
    # evaluate and trend load scipy; importing them here keeps it off the
    # start-up path of every other command
    from .evaluate import bayesian_predictive, log_score, nb_one_step
    cfg = load_cfg(args)
    cases = load_cases(args.cases)
    target_year = args.target_year or cases.week_starts[-1].year
    weeks = [i for i, w in enumerate(cases.week_starts)
             if w.year == target_year]
    if not weeks:
        raise InputError(f"no observed weeks in {target_year}")
    target_weeks = [cases.week_starts[i] for i in weeks]
    observed = [int(cases.counts[i]) for i in weeks]

    models = ("bayes", "nb") if args.model == "both" else (args.model,)
    rows = []
    summary = {}
    for model in models:
        if model == "bayes":
            if not args.severity_csv:
                raise InputError("--model bayes requires --severity-csv")
            weekly = _weekly_predictions(args.severity_csv, target_weeks)
            dists = [bayesian_predictive(v, sigma=cfg.sharpen_sigma,
                                         x_cap=cfg.x_cap, week=w)
                     for v, w in zip(weekly, target_weeks)]
        elif model == "nb":
            dists = []
            for i, week in zip(weeks, target_weeks):
                window = cases.counts[:i]
                dists.append(nb_one_step(window, x_cap=cfg.x_cap,
                                         min_obs=cfg.nb_min_obs, week=week))
        else:
            raise InputError(f"unknown model {model!r}")

        scores = []
        for dist, week, obs in zip(dists, target_weeks, observed):
            s = log_score(dist, obs, floor=cfg.score_floor)
            prob = float(dist.probs[obs]) if obs <= dist.x_cap else 0.0
            rows.append((week, obs, model, prob, s))
            scores.append((s, obs))
        summary[model] = {
            "TS": sum(s for s, _ in scores),
            "ZS": sum(s for s, o in scores if o == 0),
            "NZS": sum(s for s, o in scores if o > 0),
        }

    out = out_dir(args)
    import csv as csvmod
    with open(out / "scores.csv", "w", newline="") as fh:
        writer = csvmod.writer(fh)
        writer.writerow(["week", "observed", "model", "prob_observed", "score"])
        for week, obs, model, prob, s in rows:
            writer.writerow([week.isoformat(), obs, model, repr(prob), repr(s)])
    with open(out / "scores.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(out, "evaluate", args,
                   [args.cases, args.severity_csv],
                   ["scores.csv", "scores.json"])
    return 0


def cmd_trend(args) -> int:
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

    if args.cases:
        cases = load_cases(args.cases)
        k_predictor = plane_predictor(cfg, params, weather, cases)
    else:
        def k_predictor(wx):
            return KSeries(wx.dates, np.full(len(wx), cfg.k_default))

    report = trend_report(weather, pdf, params, k_predictor, cfg)
    out = out_dir(args)
    import csv as csvmod
    with open(out / "trend.csv", "w", newline="") as fh:
        writer = csvmod.writer(fh)
        writer.writerow(["year", "r_year", "r_relative"])
        for year, ry, rr in zip(report.years, report.r_year,
                                report.r_relative):
            writer.writerow([year, repr(float(ry)), repr(float(rr))])
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
        parser.add_argument("--k", choices=K_METHODS, default="const",
                            help="carrying-capacity source")
        parser.add_argument("--k-file", dest="k_file",
                            help="K CSV for --k csv")


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
                   help="days per forecast window (0 = config default)")
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
    p.add_argument("--prior", choices=PRIOR_NAMES)
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
    p.add_argument("--lead", type=int, default=0)
    p.add_argument("--prior", choices=PRIOR_NAMES)
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

"""spillcast benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a separate traced run.  Details (environment block, every pass,
failures, spans) go to ``.bench_out/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
IMPORT_PROBES = 3
TRACED_PASSES = 2
PROBE_TIMEOUT_S = 60.0
# the exact short-term work at the default size: 27 lead-14 windows re-simulated
# from January 1 (5279 days) plus 53 lead-7 windows (10011 days)
SHORT_TERM_SIM_DAYS = 5279 + 10011


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("default", "tiny"), default="default",
                   help="tiny: smoke-test inputs, no reference comparison")
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (set-up time probe)")
    p.add_argument("--write-reference", action="store_true",
                   help="store one pass's outputs as the default-seed reference")
    return p.parse_args(argv)


def load_program():
    """Import spillcast from this checkout's ``src`` and nowhere else."""
    if not (SRC / "spillcast" / "__init__.py").is_file():
        raise SystemExit(f"error: no spillcast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spillcast
    if Path(spillcast.__file__).resolve().parent != SRC / "spillcast":
        raise SystemExit(f"error: imported spillcast from {spillcast.__file__}")


def median(values):
    """Median, or 0.0 when an operation never completed."""
    return statistics.median(values) if values else 0.0


# --- passes -----------------------------------------------------------------

@dataclass
class Pass:
    seconds: float
    op_seconds: dict
    failures: dict                        # {operation: message}
    attempted: int


def run_pass(operations, pass_dir, reference=None, keep=False):
    """Run the operations in order, timing each; save and check their
    outputs outside the timed region.  The pass directory is removed
    unless something failed or ``keep`` is set."""
    from checks import compare, summarize_dir

    pass_dir.mkdir(parents=True)
    ctx = {"dir": pass_dir}
    op_seconds, failures = {}, {}
    for op in operations:
        start = time.perf_counter()
        try:
            result = op.run(ctx)
        except Exception:                 # the program failed: record it
            op_seconds[op.name] = time.perf_counter() - start
            failures[op.name] = traceback.format_exc(limit=3)
            continue
        op_seconds[op.name] = time.perf_counter() - start
        out = pass_dir / op.name
        try:
            if op.save is not None:
                out.mkdir()
                op.save(result, out)
            op.check(out)
        except Exception:
            failures[op.name] = traceback.format_exc(limit=3)
    if reference is not None:
        for name in compare(summarize_dir(pass_dir), reference):
            failures.setdefault(name.split("/")[0],
                                f"differs from the reference: {name}")
    if not failures and not keep:
        shutil.rmtree(pass_dir)
    return Pass(sum(op_seconds.values()), op_seconds, failures,
                len(operations))


def closed_loop(workload, seconds, workdir, reference):
    """Passes back to back until the next one would overrun ``seconds``
    (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(workload.operations(), workdir / f"pass-{len(passes)}",
                     reference)
        passes.append(p)
        if time.perf_counter() - start + p.seconds > seconds:
            return passes


# --- probes in fresh processes ------------------------------------------------

def _timed_child(argv, env=None):
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=ROOT, timeout=PROBE_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"error: probe {argv[1:]} failed:\n{done.stderr}")
    return elapsed, done.stdout


def setup_seconds(args):
    """Median wall time of fresh processes that start, import spillcast,
    generate the inputs and fit the models, then exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--size", args.size]
    return median([_timed_child(argv)[0] for _ in range(SETUP_PROBES)])


def cli_import_seconds(env):
    code = ("import time; t = time.perf_counter(); import spillcast.cli; "
            "print(time.perf_counter() - t)")
    return median([float(_timed_child([sys.executable, "-c", code], env)[1])
                   for _ in range(IMPORT_PROBES)])


# --- environment block --------------------------------------------------------

def environment(args):
    import numpy
    import scipy

    git = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
        text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    digest = hashlib.sha256()
    for path in sorted((SRC / "spillcast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git.stdout.strip() if git.returncode == 0 else None,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version",
                                           "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


# --- metrics ------------------------------------------------------------------

UNITS = {"days_per_s": "days/s", "peak_rss_mb": "MB",
         "epimodel.us_per_sim_day": "us",
         "epimodel.sim_days_per_output_day": "ratio"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


CLI_COMMANDS = ("simulate", "fit-onset", "fit-severity", "predict-onset-long",
                "predict-onset-short", "estimate-severity", "predict-severity",
                "evaluate")


def cli_metric(command):
    return f"cli.{command.replace('-', '_')}_s"


def layer_metrics(summary, output_days):
    """Per-layer metrics of one traced pass: ``(times, counts)``.  The
    counts are exact and must repeat from pass to pass."""
    from tracing import LAYERS

    total, own, longest = summary["total_s"], summary["self_s"], summary["max_s"]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    times = {
        "ingest.load_weather_s": t("ingest.load_weather"),
        "ingest.load_cases_s": t("ingest.load_cases"),
        "artifacts.load_s": t("artifacts.load_onset_model",
                              "artifacts.load_severity_model"),
        "artifacts.save_s": t("artifacts.save_onset_model",
                              "artifacts.save_severity_model"),
        "epimodel.simulate_s": t("epimodel.simulate"),
        "pipeline.forecast_points_self_s": own.get("pipeline.forecast_points", 0.0),
        "weathercast.fit_ar_s": t("weathercast.fit_ar"),
        "weathercast.fit_ar_max_s": longest.get("weathercast.fit_ar", 0.0),
        "weathercast.forecast_s": t("weathercast.forecast"),
        "carrycap.calibrate_K_s": t("carrycap.calibrate_K"),
        "carrycap.calibrate_K_self_s": own.get("carrycap.calibrate_K", 0.0),
        "carrycap.fit_plane_s": t("carrycap.fit_plane"),
        "carrycap.predict_K_plane_s": t("carrycap.predict_K_plane"),
        "onset.fit_onset_pdf_s": t("onset.fit_onset_pdf"),
        "onset.classify_s": t("onset.classify"),
        "severity.build_posteriors_s": t("severity.build_posteriors"),
        "severity.mpp_s": t("severity.mpp_predict"),
        "evaluate.nb_one_step_s": t("evaluate.nb_one_step"),
        "trend.trend_report_self_s": own.get("trend.trend_report", 0.0),
    }
    for layer in LAYERS:
        times[f"{layer}.self_s"] = summary["layer_self_s"][layer]
    counts = dict(summary["counters"])
    sim_days = counts["epimodel.sim_days"]
    times["epimodel.us_per_sim_day"] = (
        1e6 * times["epimodel.simulate_s"] / sim_days if sim_days else 0.0)
    counts["epimodel.sim_days_per_output_day"] = sim_days / output_days
    counts["workload.output_days"] = output_days
    counts["trace.spans"] = summary["spans"]
    return times, counts


def traced_loop(workload, seconds, workdir, reference):
    """The traced run: in-process passes in the repeating order untraced,
    traced, traced, until at least two traced passes are done and the next
    pass would overrun ``seconds``.  Returns the untraced passes, the
    traced passes and one trace summary and span list per traced pass."""
    from tracing import Tracer

    untraced, traced, summaries, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        pass_dir = workdir / f"pass-{len(untraced) + len(traced)}"
        if (len(untraced) + len(traced)) % 3:
            with Tracer() as tracer:
                p = run_pass(workload.operations(True), pass_dir, reference)
            traced.append(p)
            summaries.append(tracer.summary())
            spans.append(tracer.spans)
        else:
            p = run_pass(workload.operations(True), pass_dir, reference)
            untraced.append(p)
        if len(traced) >= TRACED_PASSES and \
                time.perf_counter() - start + p.seconds > seconds:
            return untraced, traced, summaries, spans


def per_layer(args, workload, workdir, reference, problems):
    """The separate traced run: per-layer metrics and the passes it ran."""
    passes = []
    cli = {cli_metric(n): 0.0 for n in (*CLI_COMMANDS, "import", "startup")}
    if workload.name == "cli-season":
        # fresh-process timings per command; the traced passes run the
        # same commands in-process through cli.main
        passes.append(run_pass(workload.operations(False),
                               workdir / "fresh", reference))
        for name in CLI_COMMANDS:
            cli[cli_metric(name)] = median(workload.command_s.get(name, []))
        cli["cli.import_s"] = cli_import_seconds(workload.env)
    # an untimed in-process pass first, so that first-call costs (lazy
    # imports, BLAS thread start-up) fall on neither side of the overhead
    passes.append(run_pass(workload.operations(True), workdir / "warm-up",
                           reference))

    untraced, traced, summaries, spans = traced_loop(
        workload, args.seconds, workdir, reference)
    passes += untraced + traced
    if workload.name == "cli-season":
        cli["cli.startup_s"] = (sum(cli[cli_metric(n)] for n in CLI_COMMANDS)
                                - median([p.seconds for p in untraced]))
    times, counts = zip(*(layer_metrics(s, workload.output_days)
                          for s in summaries))
    if any(c != counts[0] for c in counts):
        problems.append(f"work counters differ between traced passes: {counts}")
    if (workload.name == "short-term" and args.size == "default"
            and args.seed == DEFAULT_SEED
            and counts[0]["epimodel.sim_days"] != SHORT_TERM_SIM_DAYS):
        problems.append(f"short-term simulated {counts[0]['epimodel.sim_days']}"
                        f" days, expected {SHORT_TERM_SIM_DAYS}")

    metrics = {name: median([t[name] for t in times]) for name in times[0]}
    metrics.update(counts[0])
    metrics.update(cli)
    metrics["trace.overhead_frac"] = (
        median([p.seconds for p in traced])
        / median([p.seconds for p in untraced]) - 1.0)
    return metrics, passes, spans


def main(argv=None):
    args = parse_args(argv)
    load_program()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if args.setup_only:
        try:
            workload.setup(args.seed, args.size, _fresh_dir(workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    compileall.compile_dir(str(SRC / "spillcast"), quiet=1)
    ref_path = HERE / "reference" / f"{args.workload}.json"
    if args.write_reference:
        workload.setup(args.seed, args.size, _fresh_dir(workdir))
        return write_reference(args, workload, workdir, ref_path)
    reference = None
    if args.size == "default" and args.seed == DEFAULT_SEED:
        reference = json.loads(ref_path.read_text())["files"]

    # set-up time is an end-to-end metric; the traced run does not need it
    setup_s = None if args.trace else setup_seconds(args)
    workload.setup(args.seed, args.size, _fresh_dir(workdir))
    problems = []
    if args.trace:
        metrics, passes, spans = per_layer(args, workload, workdir, reference,
                                           problems)
    else:
        passes, spans = closed_loop(workload, args.seconds, workdir,
                                    reference), []
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    if not args.trace:
        run_s = median([p.seconds for p in passes])
        metrics = {
            "run_s": run_s,
            "days_per_s": workload.output_days / run_s,
            "setup_s": setup_s,
            "peak_rss_mb": workload.peak_rss_kb() / 1024.0,
            "ok_ops_frac": 1.0 - failed / attempted,
        }

    env = environment(args)
    record = {
        "environment": env,
        "failed_ops_frac": failed / attempted,
        "metrics": metrics,
        "passes": [{"seconds": p.seconds, "operations": p.op_seconds,
                    "failures": p.failures} for p in passes],
        "problems": problems,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))
    shutil.rmtree(workdir / "fixture", ignore_errors=True)
    if not any(workdir.glob("*/")):
        shutil.rmtree(workdir, ignore_errors=True)

    for p in passes:
        for name, message in p.failures.items():
            print(f"FAILED {name}: {message}", file=sys.stderr)
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit_of(name)}")
    print(f"{'failed_ops_frac':40s} {failed / attempted:>16.6g} frac")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def write_reference(args, workload, workdir, ref_path):
    from checks import summarize_dir

    if args.size != "default" or args.seed != DEFAULT_SEED:
        raise SystemExit("error: the reference is for the default size and seed")
    pass_dir = workdir / "reference"
    p = run_pass(workload.operations(False), pass_dir, keep=True)
    if p.failures:
        raise SystemExit(f"error: reference pass failed: {p.failures}")
    ref_path.parent.mkdir(exist_ok=True)
    ref_path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "files": summarize_dir(pass_dir)}, indent=1) + "\n")
    shutil.rmtree(workdir)
    print(f"wrote {ref_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

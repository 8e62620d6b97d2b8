"""Outside-in tracing of spillcast's public functions.

The program has no tracing of its own, so the benchmark wraps the public
functions of each layer while a traced operation runs.  Many modules bind
these functions with ``from .x import f``; a wrapper installed only on the
defining module would miss those calls, so every ``spillcast.*`` module
attribute that is the original function object is replaced, and all of
them are put back when the ``Tracer`` context exits.

Each call records a span (name, start, end, parent span) in memory.  Work
counters are derived from the arguments and results of the wrapped calls,
so they are exact and machine independent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "ingest", "artifacts", "pipeline", "epimodel",
          "weathercast", "carrycap", "onset", "severity", "evaluate", "trend")


def _simulate(tr, call, result):
    days = len(call["weather"])
    tr.count["epimodel.simulate_calls"] += 1
    tr.count["epimodel.sim_days"] += days
    # RK4: four right-hand-side evaluations per integration step
    tr.count["epimodel.rhs_evals"] += days * call["steps_per_day"] * 4
    if tr.parent_name() == "pipeline.forecast_points":
        tr.count["pipeline.windows"] += 1


def _seeded_year(tr, call, result):
    if tr.inside("carrycap.calibrate_K"):
        tr.count["carrycap.year_level_sims"] += 1


def _fit_ar(tr, call, result):
    tr.count["weathercast.fit_ar_calls"] += 1
    tr.count["weathercast.fit_ar_order_sum"] += call["order"]


def _forecast(tr, call, result):
    tr.count["weathercast.forecast_calls"] += 1
    tr.count["weathercast.rollout_madds"] += call["horizon"] * call["model"].order


def _posteriors(tr, call, result):
    tr.count["severity.posterior_grids"] += len(result)


def _trend(tr, call, result):
    tr.count["trend.years"] += len(result.years)


# (module, function, counter).  A string counter is incremented once per
# successful call; a function counter receives the bound arguments
# (defaults applied) and the result.
TRACED = (
    ("cli", "main", None),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_fit_onset", None),
    ("cli", "cmd_fit_severity", None),
    ("cli", "cmd_predict_onset", None),
    ("cli", "cmd_estimate_severity", None),
    ("cli", "cmd_predict_severity", None),
    ("cli", "cmd_evaluate", None),
    ("ingest", "load_weather", None),
    ("ingest", "load_cases", None),
    ("artifacts", "save_onset_model", None),
    ("artifacts", "load_onset_model", None),
    ("artifacts", "save_severity_model", None),
    ("artifacts", "load_severity_model", None),
    ("pipeline", "predict_onset_risk", None),
    ("pipeline", "forecast_points", "pipeline.forecast_points_calls"),
    ("epimodel", "simulate", _simulate),
    ("epimodel", "seeded_year_trajectory", _seeded_year),
    ("weathercast", "forecast_weather", None),
    ("weathercast", "fit_ar", _fit_ar),
    ("weathercast", "forecast", _forecast),
    ("carrycap", "calibrate_K", None),
    ("carrycap", "fit_plane", None),
    ("carrycap", "predict_K_plane", "carrycap.predict_K_plane_calls"),
    ("onset", "collect_onset_samples", None),
    ("onset", "fit_onset_pdf", None),
    ("onset", "classify", "onset.classify_calls"),
    ("onset", "forecast_onset", None),
    ("severity", "collect_severity_samples", None),
    ("severity", "fit_rate_surface", None),
    ("severity", "build_prior", None),
    ("severity", "build_posteriors", _posteriors),
    ("severity", "mpp_predict", "severity.mpp_calls"),
    ("severity", "estimate_severity", None),
    ("severity", "predict_severity", None),
    ("evaluate", "nb_one_step", "evaluate.nb_fits"),
    ("evaluate", "log_score", None),
    ("evaluate", "bayesian_predictive", None),
    ("trend", "trend_report", _trend),
    ("trend", "ols_trend", None),
)

COUNTERS = (
    "epimodel.simulate_calls", "epimodel.sim_days", "epimodel.rhs_evals",
    "pipeline.forecast_points_calls", "pipeline.windows",
    "weathercast.fit_ar_calls", "weathercast.fit_ar_order_sum",
    "weathercast.forecast_calls", "weathercast.rollout_madds",
    "carrycap.year_level_sims", "carrycap.predict_K_plane_calls",
    "onset.classify_calls", "severity.posterior_grids", "severity.mpp_calls",
    "evaluate.nb_fits", "trend.years",
)


class Tracer:
    """Context manager that installs the wrappers on entry and removes
    them on exit.  Spans are ``[name, start, end, parent]`` lists, with
    ``parent`` the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list = []
        self.count: Counter = Counter({name: 0 for name in COUNTERS})
        self._stack: list = []
        self._patched: list = []

    # --- span stack queries used by the counters -------------------------

    def parent_name(self):
        # the wrapper has already popped the current span
        return self.spans[self._stack[-1]][0] if self._stack else None

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # --- patching ---------------------------------------------------------

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if callable(counter) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if isinstance(counter, str):
                self.count[counter] += 1
            elif counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        wrapper.__traced__ = True
        return wrapper

    def __enter__(self):
        for layer in LAYERS:
            importlib.import_module(f"spillcast.{layer}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "spillcast" or key.startswith("spillcast.")]
        for layer, func, counter in TRACED:
            original = getattr(sys.modules[f"spillcast.{layer}"], func)
            wrapper = self._wrap(f"{layer}.{func}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        leftover = [f"{key}.{attr}" for key, mod in sys.modules.items()
                    if key.startswith("spillcast")
                    for attr, value in vars(mod).items()
                    if getattr(value, "__traced__", False)]
        if leftover:
            raise RuntimeError(f"trace wrappers left installed: {leftover}")
        return False

    # --- reduction --------------------------------------------------------

    def summary(self) -> dict:
        """Per-function inclusive and self time, per-layer self time, and
        the work counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        longest = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            longest[name] = max(longest[name], end - start)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in self_time.items():
            layer_self[name.split(".")[0]] += value
        return {
            "total_s": dict(total),
            "self_s": dict(self_time),
            "max_s": dict(longest),
            "layer_self_s": layer_self,
            "counters": dict(self.count),
            "spans": len(self.spans),
        }

"""spillcast: West Nile virus spillover onset-risk and severity forecasting.

A temperature-driven compartmental mosquito-bird-human model feeds a
closed-form reproduction number, a kernel-density onset-risk surface over
(M, R0), and Bayesian Poisson severity inference, with logarithmic-score
evaluation and multi-decade trend tooling on top.

Importing the package loads none of its modules: each public name and
each submodule is imported on first use (PEP 562), so a command pays only
for the modules it runs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("Config", "load_config", "parse_config"), "config"),
    **dict.fromkeys(("CompartmentState", "ModelParams", "Trajectory",
                     "default_init_state", "derivatives", "simulate"),
                    "epimodel"),
    **dict.fromkeys(("CaseSeries", "WeatherSeries", "load_cases",
                     "load_weather"), "ingest"),
    **dict.fromkeys(("OnsetPdf", "OnsetSample", "RiskLevel", "classify",
                     "fit_onset_pdf"), "onset"),
    **dict.fromkeys(("R0Inputs", "exposed_survival", "r0", "r0_bird",
                     "r0_mosquito"), "r0"),
    **dict.fromkeys(("ThermalCurve", "eval_thermal"), "thermal"),
}
_SUBMODULES = ("artifacts", "carrycap", "cli", "config", "epimodel", "errors",
               "evaluate", "ingest", "onset", "pipeline", "r0", "severity",
               "special", "synth", "thermal", "trend", "weathercast")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    setattr(sys.modules[__name__], name, value)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on the package under its own name.
        # ``r0`` names both a submodule and its function; the public name
        # stays the function.
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

"""Run configuration: thermal-response curves, fixed model rates, KDE and
forecast settings, scoring parameters.

Configuration files are INI-style with sections [thermal], [model], [kde],
[forecast] and [score]; ``#`` starts a comment.  Every key has a documented
default, so an empty file is a valid configuration.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import InvariantViolation, MissingFile, ParseError, UnknownKey
from .thermal import ThermalCurve

# Rates driven by temperature.  Development and bite-linked traits default
# to Briere shapes, transmission efficiencies to quadratic humps, and
# mortalities to constants (a quadratic mortality would vanish outside its
# thermal limits, which is the wrong direction for a death rate).
DEFAULT_THERMAL = {
    "egg_laying": "briere,4.0e-3,5.0,38.9",
    "aquatic_dev": "briere,3.8e-5,1.7,38.5",
    "aquatic_mort": "constant,0.02",
    "adult_mort": "constant,0.07",
    "pdr": "briere,7.0e-5,11.4,45.2",
    "beta_b_to_m": "quadratic,1.6e-3,10.0,40.0",
    "beta_m_to_b": "quadratic,1.2e-3,10.0,40.0",
    "beta_m_to_h": "quadratic,2.0e-6,10.0,40.0",
    "bird_egg_laying": "constant,0.001",
    "bird_maturation": "constant,0.05",
    "bird_mort": "constant,0.001",
    "bird_incubation": "constant,0.33",
    "bird_recovery": "constant,0.25",
    "bird_wnd_mort": "constant,0.15",
    "human_incubation": "constant,0.25",
    "human_recovery": "constant,0.143",
}

# the severity priors that [forecast] prior may name (severity.build_prior)
PRIORS = ("uniform", "gaussian", "band")

# RK4 steps per simulated day: every default of steps_per_day
STEPS_PER_DAY = 24

# the largest onset_grid and severity_grid: the onset grid holds n^2
# densities, 8 MB at this bound
MAX_GRID = 1024


@dataclass(frozen=True)
class Config:
    # [thermal] temperature-dependent rate curves, keyed as in DEFAULT_THERMAL
    rates: dict = field(default_factory=dict)

    # [model]
    rho: float = 1.0                      # reporting fraction, (0, 1]
    n_humans: float = 100_000.0
    n_birds: float = 2_000.0
    init_adult_mosquitoes: float = 1_000.0
    init_aquatic: float = 1_000.0
    init_infected_birds: float = 1.0
    k_default: float = 20_000.0
    steps_per_day: int = STEPS_PER_DAY

    # [kde]
    onset_bandwidth_m: float = 0.0        # 0 = weighted Silverman per axis
    onset_bandwidth_r0: float = 0.0
    severity_bandwidth_m: float = 0.0
    severity_bandwidth_w: float = 0.0
    onset_grid: int = 128
    severity_grid: int = 64
    contour_levels: tuple = (0.88, 0.90, 0.95)
    feature_transform: str = "identity"   # identity | log1p_m

    # [forecast]
    ar_order_long: int = 365
    short_lead: int = 14
    ar_ridge: float = 1e-8
    x_max: int = 30
    prior: str = "uniform"                # one of PRIORS
    prior_sigma: float = 0.0              # 0 = 5% of grid extent
    band_halfwidth: float = 0.0           # 0 = 5% of grid extent
    w_temp: float = 1.0                   # weights of the scalar W feature
    w_humidity: float = 0.0
    w_precip: float = 0.0

    # [score]
    score_floor: float = -10.0
    x_cap: int = 100
    sharpen_sigma: float = 1.5
    nb_min_obs: int = 8

    def __post_init__(self):
        merged = dict(DEFAULT_THERMAL)
        merged.update(self.rates)
        object.__setattr__(
            self,
            "rates",
            {
                k: v if isinstance(v, ThermalCurve) else ThermalCurve.parse(v)
                for k, v in merged.items()
            },
        )
        self.validate()

    def validate(self):
        for key, kind in _TYPES.items():
            value = getattr(self, key)
            if kind == "float" and not math.isfinite(value):
                raise InvariantViolation(key, f"{value} is not finite")
        for key in _SQUARED:
            value = getattr(self, key)
            if not math.isfinite(value * value):
                raise InvariantViolation(key, f"{value} has no finite square")
        if not 0.0 < self.rho <= 1.0:
            raise InvariantViolation("rho", f"{self.rho} not in (0, 1]")
        levels = self.contour_levels
        if any(not 0.0 < lv < 1.0 for lv in levels) or list(levels) != sorted(
            set(levels)
        ):
            raise InvariantViolation(
                "contour_levels", f"{levels} must be strictly increasing in (0, 1)"
            )
        if len(levels) != 3:
            raise InvariantViolation("contour_levels", "exactly 3 levels required")
        if self.x_max < 1:
            raise InvariantViolation("x_max", f"{self.x_max} < 1")
        for key in ("onset_grid", "severity_grid"):
            if not 16 <= getattr(self, key) <= MAX_GRID:
                raise InvariantViolation(
                    key, f"grid resolution outside [16, {MAX_GRID}]")
        for key in (
            "n_humans",
            "n_birds",
            "init_adult_mosquitoes",
            "init_aquatic",
            "init_infected_birds",
        ):
            if getattr(self, key) < 0:
                raise InvariantViolation(key, "negative population")
        if self.k_default <= 0:
            raise InvariantViolation("k_default", "carrying capacity must be > 0")
        if self.steps_per_day < 1:
            raise InvariantViolation("steps_per_day", "must be >= 1")
        if self.ar_order_long < 1:
            raise InvariantViolation("ar_order_long", "must be >= 1")
        if self.short_lead < 1:
            raise InvariantViolation("short_lead", "must be >= 1")
        # The ridge only conditions the normal equations of the AR fits.
        # Their intercept diagonal counts the fit's rows, at least p + 1,
        # so a ridge of at most 1 weighs no more than one observation; at
        # 1e308 every coefficient and the intercept came out 0.0.
        if not 0.0 <= self.ar_ridge <= 1.0:
            raise InvariantViolation("ar_ridge", f"{self.ar_ridge} not in [0, 1]")
        if self.score_floor >= 0:
            raise InvariantViolation("score_floor", "floor must be < 0")
        if self.x_cap < 1 or self.nb_min_obs < 2:
            raise InvariantViolation("score", "bad x_cap or nb_min_obs")
        if self.sharpen_sigma < 0:
            raise InvariantViolation("sharpen_sigma", "negative sigma")
        if self.feature_transform not in ("identity", "log1p_m"):
            raise InvariantViolation(
                "feature_transform", f"unknown transform {self.feature_transform!r}"
            )
        if self.prior not in PRIORS:
            raise InvariantViolation("prior", f"unknown prior {self.prior!r}")


# the bandwidths, prior widths and feature weights the fits square, in
# Python (where an overflow raises) or in numpy (where it warns)
_SQUARED = ("onset_bandwidth_m", "onset_bandwidth_r0", "severity_bandwidth_m",
            "severity_bandwidth_w", "prior_sigma", "band_halfwidth",
            "w_temp", "w_humidity", "w_precip")

# Every INI key is a Config field and its type is the field's annotation:
# "int", "float", "str" or "tuple".  Each section holds the fields from its
# first one, named here, up to the next section's first field.
_TYPES = {f.name: f.type for f in fields(Config) if f.name != "rates"}
_FIRST_FIELD = {"model": "rho", "kde": "onset_bandwidth_m",
                "forecast": "ar_order_long", "score": "score_floor"}
_KEYS = list(_TYPES)
_BOUNDS = [_KEYS.index(key) for key in _FIRST_FIELD.values()] + [len(_KEYS)]
_SECTIONS = {section: _KEYS[lo:hi] for section, lo, hi
             in zip(_FIRST_FIELD, _BOUNDS, _BOUNDS[1:])}
_PARSE = {"int": int, "float": float, "str": str.strip,
          "tuple": lambda raw: tuple(float(p) for p in raw.split(","))}
# INI spelling "floor" maps to the attribute score_floor
_ALIASES = {("score", "floor"): "score_floor"}


def _coerce(key, raw):
    try:
        return _PARSE[_TYPES[key]](raw)
    except ValueError:
        raise InvariantViolation(key, f"bad value {raw!r}") from None


def parse_config(text: str) -> Config:
    """Parse INI-format configuration text into a Config."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"bad config syntax: {exc}") from None

    kwargs = {}
    rates = {}
    for section in parser.sections():
        if section == "thermal":
            for key, raw in parser.items(section):
                if key not in DEFAULT_THERMAL:
                    raise UnknownKey(f"[thermal] {key}")
                rates[key] = ThermalCurve.parse(raw)
            continue
        if section not in _SECTIONS:
            raise UnknownKey(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            attr = _ALIASES.get((section, key), key)
            if attr not in _SECTIONS[section]:
                raise UnknownKey(f"[{section}] {key}")
            kwargs[attr] = _coerce(attr, raw)
    return Config(rates=rates, **kwargs)


def load_config(path) -> Config:
    """Load configuration from a file; missing keys take defaults."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    return parse_config(path.read_text())


def dump_config(cfg: Config) -> str:
    """Render a Config back to INI text (inverse of parse_config)."""
    out = io.StringIO()
    out.write("[thermal]\n")
    for key, curve in cfg.rates.items():
        out.write(f"{key} = {curve.spec()}\n")
    for section, keys in _SECTIONS.items():
        out.write(f"\n[{section}]\n")
        for attr in keys:
            name = "floor" if attr == "score_floor" else attr
            value = getattr(cfg, attr)      # a float formats as its repr
            if _TYPES[attr] == "tuple":
                value = ",".join(map(repr, value))
            out.write(f"{name} = {value}\n")
    return out.getvalue()

import configparser
from dataclasses import fields

import pytest

from spillcast import errors
from spillcast.config import (
    PRIORS,
    Config,
    dump_config,
    load_config,
    parse_config,
)
from spillcast.thermal import ThermalCurve


def test_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "empty.ini"
    p.write_text("")
    cfg = load_config(p)
    assert cfg == Config()
    assert cfg.contour_levels == (0.88, 0.90, 0.95)
    assert cfg.x_max == 30
    assert cfg.score_floor == -10.0


def test_defaults_satisfy_invariants():
    cfg = Config()
    cfg.validate()
    for key, curve in cfg.rates.items():
        assert isinstance(curve, ThermalCurve)
        for temp in (-10.0, 0.0, 15.0, 25.0, 45.0):
            assert curve(temp) >= 0.0


def test_contour_levels_parsed():
    cfg = parse_config("[kde]\ncontour_levels = 0.88,0.90,0.95\n")
    assert cfg.contour_levels == (0.88, 0.90, 0.95)


def test_x_max_parsed():
    cfg = parse_config("[forecast]\nx_max = 30\n")
    assert cfg.x_max == 30


def test_unknown_key_rejected():
    with pytest.raises(errors.UnknownKey):
        parse_config("[model]\nbogus = 1\n")
    with pytest.raises(errors.UnknownKey):
        parse_config("[nosuch]\nx = 1\n")
    with pytest.raises(errors.UnknownKey):
        parse_config("[thermal]\nnot_a_rate = constant,1\n")


@pytest.mark.parametrize("text", [
    "[model]\nrho = 0.0\n",
    "[model]\nrho = 1.5\n",
    "[kde]\ncontour_levels = 0.9,0.88,0.95\n",
    "[kde]\ncontour_levels = 0.88,0.9,1.5\n",
    "[forecast]\nx_max = 0\n",
    "[kde]\nonset_grid = 8\n",
    "[forecast]\nshort_lead = 0\n",
    "[forecast]\nshort_lead = -1\n",
    "[score]\nfloor = 1.0\n",
])
def test_invariant_violations(text):
    with pytest.raises(errors.InvariantViolation):
        parse_config(text)


def test_thermal_override():
    cfg = parse_config("[thermal]\nadult_mort = constant,0.10\n")
    assert cfg.rates["adult_mort"].c == 0.10
    # untouched rates keep their defaults
    assert cfg.rates["pdr"].kind == "briere"


def test_comments_ignored():
    cfg = parse_config("# top comment\n[model]\nrho = 0.5  # inline\n")
    assert cfg.rho == 0.5


def test_dump_round_trip():
    cfg = parse_config(
        "[model]\nrho = 0.7\nk_default = 4321\n"
        "[kde]\ncontour_levels = 0.5,0.6,0.7\n"
        "[thermal]\npdr = briere,1e-4,10.0,42.0\n"
    )
    again = parse_config(dump_config(cfg))
    assert again == cfg


FLOAT_KEYS = [f.name for f in fields(Config) if f.type == "float"]
INI_FIELDS = [f for f in fields(Config) if f.name != "rates"]


def _dumped_keys(cfg):
    """(section, attribute) of every key ``dump_config(cfg)`` writes
    outside [thermal], in the order written."""
    ini = configparser.ConfigParser()
    ini.read_string(dump_config(cfg))
    return [(s, "score_floor" if key == "floor" else key)
            for s in ini.sections() if s != "thermal" for key in ini[s]]


def _other_value(f):
    """A valid value for field ``f`` that differs from its default."""
    if f.type == "float":
        return f.default / 2 if f.default else 0.5
    if f.type == "int":
        return f.default * 2
    return {"contour_levels": (0.5, 0.6, 0.7), "feature_transform": "log1p_m",
            "prior": "gaussian"}[f.name]


def test_dump_writes_every_field_once_in_field_order():
    assert [key for _, key in _dumped_keys(Config())] == [
        f.name for f in INI_FIELDS]


@pytest.mark.parametrize("f", INI_FIELDS, ids=lambda f: f.name)
def test_every_field_round_trips(f):
    cfg = Config(**{f.name: _other_value(f)})
    assert cfg != Config()
    assert parse_config(dump_config(cfg)) == cfg


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected(key, value):
    with pytest.raises(errors.InvariantViolation) as exc:
        Config(**{key: float(value)})
    assert exc.value.key == key
    section = dict((k, s) for s, k in _dumped_keys(Config()))[key]
    name = "floor" if key == "score_floor" else key
    with pytest.raises(errors.InvariantViolation) as exc:
        parse_config(f"[{section}]\n{name} = {value}\n")
    assert exc.value.key == key


SQUARED_KEYS = ("onset_bandwidth_m", "onset_bandwidth_r0",
                "severity_bandwidth_m", "severity_bandwidth_w", "prior_sigma",
                "band_halfwidth", "w_temp", "w_humidity", "w_precip")


@pytest.mark.parametrize("value", [1e155, -1e155, 1e308])
@pytest.mark.parametrize("key", SQUARED_KEYS)
def test_float_without_finite_square_rejected(key, value):
    """The fits square these values; a square that overflows raised
    OverflowError (Python) or warned and gave NaN output (numpy)."""
    with pytest.raises(errors.InvariantViolation) as exc:
        Config(**{key: value})
    assert exc.value.key == key and "square" in str(exc.value)
    assert getattr(Config(**{key: 1e154}), key) == 1e154


@pytest.mark.parametrize("value", [1.0000000000000002, 1e6, 1e308])
def test_ar_ridge_above_one_rejected(value):
    """A ridge of 1e308 zeroed every AR coefficient and the intercept, so
    the long-term forecast was 0 degC and every day green."""
    with pytest.raises(errors.InvariantViolation) as exc:
        Config(ar_ridge=value)
    assert exc.value.key == "ar_ridge"
    assert Config(ar_ridge=1.0).ar_ridge == 1.0


@pytest.mark.parametrize("key", ["onset_grid", "severity_grid"])
@pytest.mark.parametrize("value", [1025, 100_000, 2 ** 62])
def test_grid_above_1024_rejected(key, value):
    """A grid of n cells per axis holds n^2 doubles: onset_grid = 100000
    would ask for 80 GB before anything failed.  The bound holds when the
    Config is built, so this test makes no grid at any value."""
    with pytest.raises(errors.InvariantViolation) as exc:
        Config(**{key: value})
    assert exc.value.key == key
    assert getattr(Config(**{key: 1024}), key) == 1024


def test_prior_names_are_one_tuple():
    """The configured priors, the CLI's --prior choices and the prior kinds
    that severity.build_prior builds are the same names, in one order."""
    import numpy as np

    from spillcast.cli import build_parser
    from spillcast.severity import Grid2D, build_prior

    assert PRIORS == ("uniform", "gaussian", "band")
    grid = Grid2D(np.arange(4.0) + 0.5, np.arange(4.0) + 0.5)
    for name in PRIORS:
        assert build_prior(name, [(1.5, 1.5)], grid).kind == name
    with pytest.raises(ValueError, match="unknown prior kind"):
        build_prior("uniform_box", [(1.5, 1.5)], grid)
    commands = build_parser()._subparsers._group_actions[0].choices
    for name in ("estimate-severity", "predict-severity"):
        prior = next(a for a in commands[name]._actions if a.dest == "prior")
        assert prior.choices == PRIORS
    for name in PRIORS:
        assert parse_config(f"[forecast]\nprior = {name}\n").prior == name
    with pytest.raises(errors.InvariantViolation, match="unknown prior"):
        parse_config("[forecast]\nprior = uniform_box\n")


def test_steps_per_day_has_one_default():
    """Every runner that takes steps_per_day defaults to Config's value."""
    import inspect

    from spillcast import carrycap, epimodel

    for fn in (epimodel.simulate, epimodel.simulate_runs,
               epimodel.seeded_year_trajectory, carrycap.calibrate_K):
        default = inspect.signature(fn).parameters["steps_per_day"].default
        assert default == Config().steps_per_day, fn.__name__

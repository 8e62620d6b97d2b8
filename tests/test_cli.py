import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spillcast

from spillcast.cli import main
from spillcast.synth import write_fixture


# predict-* reject --k mean themselves; "ar" is no K method at all, so
# argparse rejects it
REJECTION = {"mean": "not supported for prediction", "ar": "invalid choice"}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory, world):
    directory = tmp_path_factory.mktemp("fixture")
    paths = write_fixture(directory, world)
    return {k: str(v) for k, v in paths.items()}


@pytest.fixture(scope="module")
def onset_model(tmp_path_factory, fixture_dir):
    out = tmp_path_factory.mktemp("onset_model")
    code = main(["fit-onset", "--weather", fixture_dir["weather"],
                 "--cases", fixture_dir["cases"],
                 "--config", fixture_dir["config"], "--out", str(out)])
    assert code == 0
    return str(out)


@pytest.fixture(scope="module")
def severity_model(tmp_path_factory, fixture_dir):
    out = tmp_path_factory.mktemp("severity_model")
    code = main(["fit-severity", "--weather", fixture_dir["weather"],
                 "--cases", fixture_dir["cases"],
                 "--config", fixture_dir["config"], "--out", str(out)])
    assert code == 0
    return str(out)


class TestSimulate:
    def test_rows_match_weather_days(self, tmp_path, fixture_dir):
        out = tmp_path / "sim"
        code = main(["simulate", "--weather", fixture_dir["weather"],
                     "--config", fixture_dir["config"], "--out", str(out)])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        weather = Path(fixture_dir["weather"]).read_text()
        n_weather = len(weather.splitlines()) - 1
        assert len(lines) - 1 == n_weather
        assert (out / "manifest.json").exists()

    def test_missing_weather_exit_2(self, tmp_path):
        code = main(["simulate", "--weather", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_k_csv_misaligned_exit_2(self, tmp_path, fixture_dir, capsys):
        k_path = tmp_path / "k.csv"
        k_path.write_text("date,K\n1999-01-01,5000.0\n")
        code = main(["simulate", "--weather", fixture_dir["weather"],
                     "--k", "csv", "--k-file", str(k_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "K file" in capsys.readouterr().err

    def test_k_csv_aligned(self, tmp_path, fixture_dir):
        out = tmp_path / "sim"
        code = main(["simulate", "--weather", fixture_dir["weather"],
                     "--k", "csv", "--k-file", fixture_dir["k"],
                     "--config", fixture_dir["config"], "--out", str(out)])
        assert code == 0


class TestOnsetCommands:
    def test_model_files_written(self, onset_model):
        from pathlib import Path
        files = {p.name for p in Path(onset_model).iterdir()}
        assert {"onset_model.ini", "onset_samples.csv", "onset_grid.csv",
                "manifest.json"} <= files

    def test_predict_long_rows_and_footer(self, tmp_path, fixture_dir,
                                          onset_model):
        out = tmp_path / "po"
        code = main(["predict-onset", "--weather", fixture_dir["weather"],
                     "--model", onset_model, "--config", fixture_dir["config"],
                     "--mode", "long", "--out", str(out)])
        assert code == 0
        lines = (out / "risk.csv").read_text().splitlines()
        body = [ln for ln in lines[1:] if not ln.startswith("#")]
        footer = [ln for ln in lines if ln.startswith("#")]
        assert len(body) == 365
        counts = {ln.split(" = ")[0].removeprefix("# count_"):
                  int(ln.split(" = ")[1]) for ln in footer}
        assert sum(counts.values()) == len(body)

    def test_predict_short_lead_windows(self, tmp_path, fixture_dir,
                                        onset_model):
        out = tmp_path / "po"
        code = main(["predict-onset", "--weather", fixture_dir["weather"],
                     "--model", onset_model, "--config", fixture_dir["config"],
                     "--mode", "short", "--lead", "14", "--out", str(out)])
        assert code == 0
        lines = (out / "risk.csv").read_text().splitlines()
        body = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert len(body) == 365  # 26 windows of 14 + final window of 1

    def test_missing_model_exit_2(self, tmp_path, fixture_dir):
        code = main(["predict-onset", "--weather", fixture_dir["weather"],
                     "--model", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_predict_with_plane_k(self, tmp_path, fixture_dir, onset_model):
        out = tmp_path / "po"
        code = main(["predict-onset", "--weather", fixture_dir["weather"],
                     "--cases", fixture_dir["cases"],
                     "--model", onset_model, "--config", fixture_dir["config"],
                     "--mode", "long", "--k", "plane", "--out", str(out)])
        assert code == 0
        body = [ln for ln in (out / "risk.csv").read_text().splitlines()[1:]
                if not ln.startswith("#")]
        assert len(body) == 365


    @pytest.mark.parametrize("method", ["mean", "ar"])
    def test_predict_rejects_unsupported_k(self, tmp_path, fixture_dir,
                                           onset_model, capsys, method):
        out = tmp_path / "po"
        code = main(["predict-onset", "--weather", fixture_dir["weather"],
                     "--cases", fixture_dir["cases"],
                     "--model", onset_model, "--config", fixture_dir["config"],
                     "--k", method, "--out", str(out)])
        assert code == 2
        assert REJECTION[method] in capsys.readouterr().err
        assert not (out / "risk.csv").exists()


class TestSeverityCommands:
    def test_estimate(self, tmp_path, fixture_dir, severity_model):
        out = tmp_path / "est"
        code = main(["estimate-severity", "--weather", fixture_dir["weather"],
                     "--model", severity_model,
                     "--config", fixture_dir["config"],
                     "--prior", "uniform", "--out", str(out)])
        assert code == 0
        lines = (out / "severity.csv").read_text().splitlines()
        assert lines[0] == "date,M,W,predicted_cases"
        values = [int(ln.rsplit(",", 1)[1]) for ln in lines[1:]]
        assert all(0 <= v <= 30 for v in values)

    def test_unknown_prior_exit_2(self, tmp_path, fixture_dir,
                                  severity_model, capsys):
        code = main(["estimate-severity", "--weather", fixture_dir["weather"],
                     "--model", severity_model, "--prior", "fancy",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        capsys.readouterr()

    def test_predict_with_gate(self, tmp_path, fixture_dir, severity_model,
                               onset_model):
        out = tmp_path / "ps"
        code = main(["predict-severity", "--weather", fixture_dir["weather"],
                     "--cases", fixture_dir["cases"],
                     "--model", severity_model, "--onset-model", onset_model,
                     "--config", fixture_dir["config"],
                     "--mode", "short", "--out", str(out)])
        assert code == 0
        lines = (out / "severity.csv").read_text().splitlines()
        assert len(lines) - 1 == 365

    def test_gaussian_prior_runs(self, tmp_path, fixture_dir, severity_model):
        out = tmp_path / "ps"
        code = main(["predict-severity", "--weather", fixture_dir["weather"],
                     "--cases", fixture_dir["cases"],
                     "--model", severity_model,
                     "--config", fixture_dir["config"],
                     "--prior", "gaussian", "--mode", "long",
                     "--out", str(out)])
        assert code == 0


    @pytest.mark.parametrize("method", ["mean", "ar"])
    def test_predict_rejects_unsupported_k(self, tmp_path, fixture_dir,
                                           severity_model, capsys, method):
        out = tmp_path / "ps"
        code = main(["predict-severity", "--weather", fixture_dir["weather"],
                     "--cases", fixture_dir["cases"],
                     "--model", severity_model,
                     "--config", fixture_dir["config"],
                     "--k", method, "--out", str(out)])
        assert code == 2
        assert REJECTION[method] in capsys.readouterr().err
        assert not (out / "severity.csv").exists()


class TestEvaluate:
    def test_both_models_scored(self, tmp_path, fixture_dir, severity_model,
                                onset_model):
        ps = tmp_path / "ps"
        assert main(["predict-severity", "--weather", fixture_dir["weather"],
                     "--cases", fixture_dir["cases"],
                     "--model", severity_model, "--onset-model", onset_model,
                     "--config", fixture_dir["config"],
                     "--mode", "short", "--out", str(ps)]) == 0
        out = tmp_path / "eval"
        code = main(["evaluate", "--cases", fixture_dir["cases"],
                     "--severity-csv", str(ps / "severity.csv"),
                     "--config", fixture_dir["config"],
                     "--model", "both", "--out", str(out)])
        assert code == 0
        lines = (out / "scores.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        weeks = {r[0] for r in rows}
        assert len(rows) == 2 * len(weeks)  # two models per week
        summary = json.loads((out / "scores.json").read_text())
        for model in ("bayes", "nb"):
            ts = summary[model]["TS"]
            assert ts == pytest.approx(summary[model]["ZS"]
                                       + summary[model]["NZS"], abs=1e-9)

    def test_nb_only(self, tmp_path, fixture_dir):
        out = tmp_path / "eval"
        code = main(["evaluate", "--cases", fixture_dir["cases"],
                     "--model", "nb", "--out", str(out)])
        assert code == 0

    def test_bayes_needs_severity_header(self, tmp_path, fixture_dir, capsys):
        severity = tmp_path / "severity.csv"
        severity.write_text("date,predicted_cases\n2022-06-01,3\n")
        code = main(["evaluate", "--cases", fixture_dir["cases"],
                     "--severity-csv", str(severity), "--model", "bayes",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert ("line 1: expected header date,M,W,predicted_cases"
                in capsys.readouterr().err)

    def test_bayes_without_csv_exit_2(self, tmp_path, fixture_dir, capsys):
        code = main(["evaluate", "--cases", fixture_dir["cases"],
                     "--model", "bayes", "--out", str(tmp_path / "out")])
        assert code == 2
        capsys.readouterr()

    def test_predictions_beyond_x_cap_score_finite(
            self, tmp_path, fixture_dir, severity_model, onset_model):
        """Weekly predictions of 10-14 beyond x_cap = 8 with sigma 0.1
        underflow every Gaussian weight; evaluate used to exit 0 with 7
        nan rows in scores.csv and NaN, which is not JSON, in
        scores.json."""
        config = _config_with(tmp_path, fixture_dir,
                              {"x_cap": "8", "sharpen_sigma": "0.1"})
        ps = tmp_path / "ps"
        assert main(["predict-severity", "--weather", fixture_dir["weather"],
                     "--cases", fixture_dir["cases"],
                     "--model", severity_model, "--onset-model", onset_model,
                     "--config", config, "--mode", "short",
                     "--out", str(ps)]) == 0
        out = tmp_path / "eval"
        assert main(["evaluate", "--cases", fixture_dir["cases"],
                     "--severity-csv", str(ps / "severity.csv"),
                     "--config", config, "--model", "bayes",
                     "--out", str(out)]) == 0
        rows = (out / "scores.csv").read_text().splitlines()[1:]
        assert rows and "nan" not in "".join(rows).lower()

        def not_json(constant):
            raise ValueError(f"{constant} in scores.json")

        summary = json.loads((out / "scores.json").read_text(),
                             parse_constant=not_json)
        assert all(map(math.isfinite, summary["bayes"].values()))


class TestTrend:
    def test_too_few_years_exit_2(self, tmp_path, fixture_dir, onset_model,
                                  capsys):
        code = main(["trend", "--weather", fixture_dir["weather"],
                     "--model", onset_model, "--years", "2019..2020",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        capsys.readouterr()

    def test_trend_runs_on_archive(self, tmp_path, onset_model, world):
        from spillcast.ingest import save_weather
        from spillcast.synth import seasonal_weather
        archive = seasonal_weather(2000, 10, noise_sigma=0.2, seed=8)
        archive_path = tmp_path / "archive.csv"
        save_weather(archive, archive_path)
        out = tmp_path / "trend"
        code = main(["trend", "--weather", str(archive_path),
                     "--model", onset_model, "--out", str(out)])
        assert code == 0
        lines = (out / "trend.csv").read_text().splitlines()
        assert lines[0] == "year,r_year,r_relative"
        assert len(lines) - 1 == 10
        summary = json.loads((out / "trend.json").read_text())
        assert set(summary) == {"r_year", "r_relative"}
        for res in summary.values():
            assert 0.0 <= res["p_value"] <= 1.0


def _cpus():
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


@pytest.mark.skipif(len(_cpus()) < 2 or not hasattr(os, "sched_setaffinity"),
                    reason="needs sched_setaffinity and two usable CPUs")
def test_trend_outputs_do_not_depend_on_the_cpus(tmp_path):
    """``trend --cases`` calibrates K over a 12-year archive and simulates
    every year: in a process restricted to one CPU (one thread) and in one
    with every usable CPU (the lane chunks on several threads) its outputs
    are the same bytes."""
    from spillcast.synth import generate_world
    world = generate_world(n_years=12, warming_per_year=0.05)
    paths = {k: str(v) for k, v in write_fixture(tmp_path / "world",
                                                 world).items()}
    model = tmp_path / "model"
    assert main(["fit-onset", "--weather", paths["weather"],
                 "--cases", paths["cases"], "--config", paths["config"],
                 "--out", str(model)]) == 0
    src = str(Path(spillcast.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def one_cpu():
        os.sched_setaffinity(0, {_cpus()[0]})

    probe = subprocess.run(
        [sys.executable, "-c", "import os; print(len(os.sched_getaffinity(0)))"],
        preexec_fn=one_cpu, capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "1"
    outs = {}
    for name, preexec in (("one", one_cpu), ("all", None)):
        outs[name] = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "spillcast.cli", "trend",
             "--weather", paths["weather"], "--cases", paths["cases"],
             "--config", paths["config"], "--model", str(model),
             "--out", str(outs[name])],
            env=env, preexec_fn=preexec, capture_output=True, check=True)
    files = sorted(p.name for p in outs["one"].iterdir())
    assert files == sorted(p.name for p in outs["all"].iterdir())
    assert {"trend.csv", "trend.json", "manifest.json"} <= set(files)
    for name in files:
        one, every = ((outs[k] / name).read_bytes() for k in ("one", "all"))
        if name == "manifest.json":
            one, every = (json.loads(b) for b in (one, every))
            one.pop("created_at")
            every.pop("created_at")
        assert one == every, name


class TestDeterminism:
    def test_identical_rerun_byte_identical(self, tmp_path, fixture_dir):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["simulate", "--weather", fixture_dir["weather"],
                         "--config", fixture_dir["config"], "--seed", "7",
                         "--out", str(out)])
            assert code == 0
            outs.append(out)
        a, b = outs
        assert (a / "trajectory.csv").read_bytes() == \
               (b / "trajectory.csv").read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        ma.pop("created_at")
        mb.pop("created_at")
        assert ma == mb

    def test_fit_predict_round_trip_deterministic(self, tmp_path, fixture_dir,
                                                  onset_model):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["predict-onset", "--weather", fixture_dir["weather"],
                         "--model", onset_model,
                         "--config", fixture_dir["config"],
                         "--mode", "long", "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "risk.csv").read_bytes() == \
               (outs[1] / "risk.csv").read_bytes()

    def test_manifest_hashes_inputs(self, tmp_path, fixture_dir):
        import hashlib
        out = tmp_path / "sim"
        assert main(["simulate", "--weather", fixture_dir["weather"],
                     "--config", fixture_dir["config"],
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256(
            Path(fixture_dir["weather"]).read_bytes()).hexdigest()
        assert manifest["inputs"][fixture_dir["weather"]] == digest
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 0


def test_numerical_failure_exit_3(tmp_path, fixture_dir, capsys):
    # runaway growth rates blow the simulation up -> exit code 3
    cfg_path = tmp_path / "explosive.ini"
    cfg_path.write_text(
        "[thermal]\n"
        "egg_laying = constant,500.0\n"
        "aquatic_dev = constant,5.0\n"
        "aquatic_mort = constant,0.001\n"
        "adult_mort = constant,0.001\n"
        "[model]\n"
        "k_default = 1e9\n"
    )
    code = main(["simulate", "--weather", fixture_dir["weather"],
                 "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "failure" in capsys.readouterr().err


def test_non_finite_weather_exit_2(tmp_path, fixture_dir, capsys):
    # one nan temperature used to run to exit 0 with nan in every output
    lines = Path(fixture_dir["weather"]).read_text().splitlines()
    fields = lines[100].split(",")
    fields[1] = "nan"
    lines[100] = ",".join(fields)
    weather = tmp_path / "weather.csv"
    weather.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["simulate", "--weather", str(weather),
                 "--config", fixture_dir["config"], "--out", str(out)])
    assert code == 2
    assert "line 101" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def _corrupt_model(model_dir, tmp_path, samples, line, field=0,
                   value="nan"):
    """Copy a model artifact and set one field of ``line`` of its samples
    file to ``value``."""
    import shutil
    model = tmp_path / "model"
    shutil.copytree(model_dir, model)
    path = model / samples
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[field] = value
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return str(model)


def test_non_finite_onset_sample_exit_2(tmp_path, fixture_dir, onset_model,
                                        capsys):
    # a nan sample used to run to exit 0 and call every day green
    model = _corrupt_model(onset_model, tmp_path, "onset_samples.csv", 2)
    out = tmp_path / "out"
    code = main(["predict-onset", "--weather", fixture_dir["weather"],
                 "--model", model, "--config", fixture_dir["config"],
                 "--mode", "long", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err and "internal failure" not in err
    assert not (out / "risk.csv").exists()


def test_non_finite_severity_sample_exit_2(tmp_path, fixture_dir,
                                           severity_model, capsys):
    # a nan sample used to end in an internal failure (exit 3)
    model = _corrupt_model(severity_model, tmp_path, "severity_samples.csv", 3)
    out = tmp_path / "out"
    code = main(["estimate-severity", "--weather", fixture_dir["weather"],
                 "--model", model, "--config", fixture_dir["config"],
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3" in err and "internal failure" not in err
    assert not (out / "severity.csv").exists()


def test_zero_onset_weight_exit_2(tmp_path, fixture_dir, onset_model,
                                  capsys):
    # a 0.0 weight used to end in "internal failure: float division by
    # zero" (exit 3)
    model = _corrupt_model(onset_model, tmp_path, "onset_samples.csv", 2,
                           field=2, value="0.0")
    out = tmp_path / "out"
    code = main(["predict-onset", "--weather", fixture_dir["weather"],
                 "--model", model, "--config", fixture_dir["config"],
                 "--mode", "long", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err and "weight" in err
    assert not (out / "risk.csv").exists()


def _config_with(tmp_path, fixture_dir, values):
    """A copy of the fixture config with the keys of ``values`` reset."""
    lines = Path(fixture_dir["config"]).read_text().splitlines()
    for i, line in enumerate(lines):
        key = line.split(" = ")[0]
        if key in values:
            lines[i] = f"{key} = {values.pop(key)}"
    assert not values, f"keys not in the fixture config: {values}"
    path = tmp_path / "config.ini"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("command, key, value, output", [
    # each used to run without complaint: fit-severity to exit 0 with 4096
    # nan rows in rate_surface.csv, fit-onset to exit 0 with
    # thresholds = nan,nan,nan, simulate to exit 3
    ("fit-severity", "w_temp", "nan", "rate_surface.csv"),
    ("fit-onset", "onset_bandwidth_m", "inf", "onset_model.ini"),
    ("simulate", "k_default", "nan", "trajectory.csv"),
])
def test_non_finite_config_float_exit_2(tmp_path, fixture_dir, capsys,
                                        command, key, value, output):
    config = _config_with(tmp_path, fixture_dir, {key: value})
    out = tmp_path / "out"
    code = main([command, "--weather", fixture_dir["weather"],
                 "--cases", fixture_dir["cases"], "--config", config,
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {key}: " in err and "finite" in err
    assert not (out / output).exists()


@pytest.mark.parametrize("command, key, output", [
    # finite but huge: fit-onset used to exit 0 with thresholds = nan,nan,nan
    # (the density underflows to 0 everywhere), fit-severity with all 4096
    # rate_surface.csv rows nan (1e308 * feature overflows to inf); then
    # both exited 3 after numpy overflow warnings
    ("fit-onset", "onset_bandwidth_m", "onset_model.ini"),
    ("fit-severity", "w_temp", "rate_surface.csv"),
])
@pytest.mark.filterwarnings("error")
def test_huge_config_float_exit_2(tmp_path, fixture_dir, capsys, command,
                                  key, output):
    config = _config_with(tmp_path, fixture_dir, {key: "1e308"})
    out = tmp_path / "out"
    code = main([command, "--weather", fixture_dir["weather"],
                 "--cases", fixture_dir["cases"], "--config", config,
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {key}: ") and "square" in err
    assert not (out / output).exists()


def test_huge_band_halfwidth_exit_2(tmp_path, fixture_dir, severity_model,
                                    capsys):
    # used to print "internal failure: (34, 'Numerical result out of
    # range')" and exit 3: halfwidth**2 raised OverflowError
    config = _config_with(tmp_path, fixture_dir, {"prior": "band",
                                                  "band_halfwidth": "1e308"})
    out = tmp_path / "out"
    code = main(["estimate-severity", "--weather", fixture_dir["weather"],
                 "--model", severity_model, "--config", config,
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: band_halfwidth: ") and "square" in err
    assert not (out / "severity.csv").exists()


def test_underflowed_r0_denominator_exit_3(tmp_path, fixture_dir, capsys):
    # bird rates whose R0 denominator underflows to 0.0 used to print
    # "internal failure: float division by zero"
    rate = "constant,1e-170"
    config = _config_with(tmp_path, fixture_dir, {
        "bird_mort": rate, "bird_incubation": rate, "bird_recovery": rate,
        "bird_wnd_mort": rate})
    code = main(["simulate", "--weather", fixture_dir["weather"],
                 "--config", config, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "numerical failure: " in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    """Start-up stays scipy-free: only trend needs it, and it is imported
    by its own command."""
    src = str(Path(spillcast.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, spillcast.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_season_commands_load_no_scipy(tmp_path, fixture_dir, onset_model,
                                       severity_model):
    """estimate-severity, predict-severity and evaluate run without scipy:
    the Poisson pmf and the NB fit use the lgam port, and the NB profile
    search is a port of scipy's bounded Brent."""
    src = str(Path(spillcast.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    data = ["--weather", fixture_dir["weather"],
            "--config", fixture_dir["config"]]
    commands = {
        "estimate": ["estimate-severity", *data, "--model", severity_model],
        "predict": ["predict-severity", *data, "--cases", fixture_dir["cases"],
                    "--model", severity_model, "--mode", "short",
                    "--onset-model", onset_model],
        "evaluate": ["evaluate", "--cases", fixture_dir["cases"],
                     "--config", fixture_dir["config"], "--model", "both",
                     "--severity-csv", str(tmp_path / "predict" / "severity.csv")],
    }
    outputs = {"estimate": "severity.csv", "predict": "severity.csv",
               "evaluate": "scores.csv"}
    probe = ("import sys; from spillcast.cli import main; "
             "code = main(sys.argv[1:]); "
             "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))")
    for name, argv in commands.items():
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-c", probe, *argv, "--out", str(out)],
            env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "0 []", name
        assert (out / outputs[name]).exists()


class TestKFileRule:
    """One rule for a K file in every command: a simulated day the file
    does not cover, or a K <= 0, is an input error (exit 2)."""

    @staticmethod
    def write_k(path, source, keep=lambda d: True, value=None):
        lines = Path(source).read_text().splitlines()
        body = [ln for ln in lines[1:] if keep(ln.split(",")[0])]
        if value is not None:
            body = [ln.split(",")[0] + f",{value}" for ln in body]
        path.write_text("\n".join([lines[0], *body]) + "\n")
        return str(path)

    @pytest.mark.parametrize("command", ["predict-onset", "predict-severity"])
    def test_k_file_missing_target_days_exit_2(
            self, tmp_path, fixture_dir, onset_model, severity_model, capsys,
            command):
        # predict-* used to fall back to the configured constant and exit 0
        k_path = self.write_k(tmp_path / "k.csv", fixture_dir["k"],
                              keep=lambda d: d < "2022-06")
        model = onset_model if command == "predict-onset" else severity_model
        out = tmp_path / "out"
        code = main([command, "--weather", fixture_dir["weather"],
                     "--cases", fixture_dir["cases"], "--model", model,
                     "--config", fixture_dir["config"], "--mode", "short",
                     "--k", "csv", "--k-file", k_path, "--out", str(out)])
        assert code == 2
        assert "K file does not cover" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "predict-onset"])
    def test_all_zero_k_file_exit_2(self, tmp_path, fixture_dir, onset_model,
                                    capsys, command):
        # predict-onset used to floor K to 1e-6 and exit 0, simulate to
        # exit 3 inside the model
        k_path = self.write_k(tmp_path / "k.csv", fixture_dir["k"], value=0.0)
        model = ["--model", onset_model] if command == "predict-onset" else []
        code = main([command, "--weather", fixture_dir["weather"], *model,
                     "--config", fixture_dir["config"],
                     "--k", "csv", "--k-file", k_path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "K <= 0" in capsys.readouterr().err

    def test_simulate_k_ar_rejected(self, tmp_path, fixture_dir, capsys):
        # "ar" returned the calibrated series as-is and never ran an AR model
        out = tmp_path / "sim"
        code = main(["simulate", "--weather", fixture_dir["weather"],
                     "--cases", fixture_dir["cases"],
                     "--config", fixture_dir["config"],
                     "--k", "ar", "--out", str(out)])
        assert code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()

"""The compiled day loop: its build, its cache and its fallback."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spillcast import epimodel
from spillcast.config import Config

from tests.conftest import sinusoid_weather

SRC = Path(epimodel.__file__).resolve().parents[1]
ROOT = SRC.parent

# Simulates the fixture's first year at five K levels, three unseeded and
# two seeded (so the compiled loop runs them in lanes of three and two), in
# a process that caches the library in the directory given as argv[1] (""
# keeps the package's own) and, with argv[2] == "missing-cc", has no
# compiler; prints the day loop in use and the trajectories' bytes as hex.
PROBE = """
import sys
from pathlib import Path
import spillcast.epimodel as e
from spillcast import synth
if sys.argv[1]:
    e._KERNEL_DIR = Path(sys.argv[1])
if sys.argv[2] == "missing-cc":
    e._compilers = lambda: [[str(Path(sys.argv[1]) / "no-such-cc")]]
cfg = synth.default_config()
wx = synth.seasonal_weather(2019, 1, seed=3)
params = e.ModelParams.from_config(cfg)
init = e.default_init_state(cfg)
runs = [e.Run(wx, cfg.k_default, init), e.Run(wx, 900.0, init, seed_day=90),
        e.Run(wx, 2.0 * cfg.k_default, init), e.Run(wx, 1800.0, init, 90),
        e.Run(wx, 0.5 * cfg.k_default, init)]
out = []
for t in e.simulate_runs(params, runs, steps_per_day=cfg.steps_per_day):
    out += [t.states.tobytes(), t.m.tobytes(), t.r0.tobytes(),
            t.new_infections.tobytes(), repr(t.clamp_count).encode(),
            repr(t.end_state).encode()]
print(e.kernel(), b"|".join(out).hex())
"""


def probe(cache_dir="", compiler="default"):
    """Start the probe process (cwd: the source root, no stdin)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-c", PROBE, str(cache_dir), compiler], env=env,
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


def finish(proc):
    """The probe's (kernel, trajectory hex); its stderr must be empty."""
    stdout, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr
    assert stderr == ""
    kernel, data = stdout.split()
    return kernel, data


def have_compiler():
    """Whether any compiler the loader tries is on PATH."""
    return any(shutil.which(cmd[0]) for cmd in epimodel._compilers())


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
def test_kernel_compiled_when_cc_available():
    """Where any of the loader's compilers exists the simulations run the
    compiled loop: a silent fallback would pass every other test and lose
    the speed."""
    kernel, _ = finish(probe())
    assert kernel == "c"


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
def test_concurrent_builds_into_an_empty_directory(tmp_path):
    """Two processes that build into the same empty cache at once both
    load a whole library and agree bit for bit; no temporary file is
    left behind."""
    procs = [probe(tmp_path), probe(tmp_path)]
    results = [finish(p) for p in procs]
    assert results[0] == results[1]
    assert results[0][0] == "c"
    assert [p.name for p in tmp_path.iterdir()] == [
        epimodel._kernel_path().name]


def build(lib, *extra):
    """Compile the package's ``_rk4.c`` to ``lib`` as the loader does, with
    ``extra`` flags added."""
    compiler = next(cmd for cmd in epimodel._compilers()
                    if shutil.which(cmd[0]))
    subprocess.run([*compiler, *epimodel._KERNEL_FLAGS, *extra, "-o",
                    str(lib), str(epimodel._KERNEL_SOURCE)], check=True,
                   capture_output=True)


def lane_width(lib):
    """How many lanes the library advances a call of four runs in."""
    import ctypes
    width = ctypes.CDLL(str(lib)).spillcast_width
    width.restype, width.argtypes = ctypes.c_int, ()
    return width()


def cpu_has_avx2():
    try:
        return " avx2 " in Path("/proc/cpuinfo").read_text().replace("\n", " ")
    except OSError:
        return None


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
def test_build_without_avx2_lanes_gives_the_same_bytes(tmp_path):
    """The build without the 4-lane AVX2 body, which CPUs without AVX2 and
    other architectures run, advances lanes in pairs and gives the bytes
    of the build the loader makes here."""
    build(tmp_path / epimodel._kernel_path().name, epimodel._NO_AVX2)
    assert lane_width(tmp_path / epimodel._kernel_path().name) == 2
    pairs = finish(probe(tmp_path))
    assert pairs[0] == "c"
    assert finish(probe()) == pairs
    if cpu_has_avx2():
        assert lane_width(epimodel._kernel_path()) == 4


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
def test_build_retries_without_avx2_lanes(tmp_path, monkeypatch):
    """A compiler that rejects the AVX2 body still gives a compiled loop:
    the build is retried without it."""
    real = next(cmd for cmd in epimodel._compilers() if shutil.which(cmd[0]))
    fussy = tmp_path / "fussy-cc"
    fussy.write_text(
        "#!/bin/sh\n"
        f'case " $* " in *" {epimodel._NO_AVX2} "*) exec {real[0]} "$@";; esac\n'
        "exit 1\n")
    fussy.chmod(0o755)
    monkeypatch.setattr(epimodel, "_compilers", lambda: [[str(fussy)]])
    lib = tmp_path / "cache" / "lib.so"
    assert epimodel._build_kernel(lib)
    assert lane_width(lib) == 2


def test_failed_build_falls_back_silently(tmp_path):
    """With no compiler the Python loop runs, prints nothing and gives the
    compiled loop's bytes."""
    fallback = finish(probe(tmp_path, "missing-cc"))
    assert fallback[0] == "python"
    assert list(tmp_path.iterdir()) == []
    if have_compiler():
        assert finish(probe())[1] == fallback[1]


def test_cli_import_loads_no_build_machinery():
    """The loader imports what a build needs on first use, not at start-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    check = ("import sys, spillcast.cli; print(sorted(m for m in ("
             "'subprocess', 'sysconfig', 'numpy.ctypeslib') "
             "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc")
def test_build_falls_through_a_missing_cc_to_cc(tmp_path, monkeypatch):
    """sysconfig's CC may name a compiler that is not installed, as in
    some standalone Python builds; the build then uses ``cc``."""
    import sysconfig

    get = sysconfig.get_config_var
    missing = str(tmp_path / "no-such-cc")
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: missing if name == "CC" else get(name))
    assert epimodel._compilers() == [[missing], ["cc"]]
    lib = tmp_path / "cache" / "lib.so"
    assert epimodel._build_kernel(lib)
    assert [p.name for p in lib.parent.iterdir()] == ["lib.so"]


def test_library_path_is_git_ignored():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    path = epimodel._kernel_path()
    done = subprocess.run(["git", "-C", str(ROOT), "check-ignore", "-q",
                           str(path)], capture_output=True)
    assert done.returncode == 0, f"{path} is not ignored by git"


def test_compiled_loop_fills_only_its_span(default_params):
    """One lane over days [4, 9) writes rows 4..8 of the outputs and
    nothing else, and ends in the state and clamp count of ``_advance``."""
    if epimodel.kernel() != "c":
        pytest.skip("no compiled loop")
    wx = sinusoid_weather(12)
    k_arr = np.full(12, 5000.0)
    y = epimodel.default_init_state(Config()).as_list() + [0.0]
    got, want = ((np.full((12, 15), -1.0), np.full(12, -1.0),
                  np.full(12, -1.0), np.full(12, -1.0)) for _ in range(2))
    rates = epimodel._rate_rows(default_params, wx.temp_mean)
    state = np.array([y])
    status, _, clamps = epimodel._kernel_advance(
        epimodel._load_kernel(), default_params, 3, 5, rates, [4], k_arr,
        [4], got, state)
    end_py, clamps_py = epimodel._advance(default_params, wx, rates, k_arr, y,
                                          3, 4, 9, want)
    assert status == 0
    assert state[0].tolist() == end_py
    assert clamps.tolist() == [clamps_py]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)

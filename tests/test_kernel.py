"""The compiled day loop: its build, its cache and its fallback."""

import os
import re
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

# Simulates the fixture's first year at eleven K levels, nine unseeded and
# two seeded (so the compiled loop runs them in calls of eight lanes, one
# lane and two lanes), in a process that caches the library in the
# directory given as argv[1] ("" keeps the package's own) and, with
# argv[2] == "missing-cc", has no compiler; prints the day loop in use and
# the trajectories' bytes as hex.
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
runs = [e.Run(wx, scale * cfg.k_default, init)
        for scale in (1.0, 2.0, 0.5, 0.25, 0.75, 1.25, 1.5, 3.0, 4.0)]
runs[1:1] = [e.Run(wx, 900.0, init, seed_day=90)]
runs[3:3] = [e.Run(wx, 1800.0, init, 90)]
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


# the build without the 8-lane AVX-512 body
NO_AVX512 = "-DSPILLCAST_NO_AVX512"


def cpu_flags():
    """The CPU's feature flags from /proc/cpuinfo (empty where it lists
    none, as on other architectures), or None where it cannot be read."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    line = next((ln for ln in text.splitlines() if ln.startswith("flags")),
                "")
    return set(line.partition(":")[2].split())


def expected_width(flags, avx512=True):
    """The lanes a library built here should advance at once: 8 with
    AVX-512F (if built with that body), 4 with AVX2, else 2."""
    if "avx2" not in flags:
        return 2
    return 8 if avx512 and "avx512f" in flags else 4


def width_of_a_build_with_the_loaders_bytes(tmp_path, macro):
    """Build with ``macro`` into ``tmp_path``, check that the probe gives
    the bytes of the library the loader builds, and return the build's
    width."""
    build(tmp_path / epimodel._kernel_path().name, macro)
    narrow = finish(probe(tmp_path))
    assert narrow[0] == "c"
    assert finish(probe()) == narrow
    return lane_width(tmp_path / epimodel._kernel_path().name)


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
def test_build_without_avx2_lanes_gives_the_same_bytes(tmp_path):
    """The build without the 4- and 8-lane bodies, which CPUs without AVX2
    and other architectures run, advances lanes in pairs and gives the
    bytes of the build the loader makes here, which advances eight lanes
    on AVX-512 CPUs and four on AVX2 CPUs."""
    assert width_of_a_build_with_the_loaders_bytes(
        tmp_path, epimodel._NO_AVX2) == 2
    flags = cpu_flags()
    if flags and "avx2" in flags:
        assert lane_width(epimodel._kernel_path()) == expected_width(flags)


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
def test_build_without_avx512_lanes_gives_the_same_bytes(tmp_path):
    """The build without the 8-lane body advances four lanes at once on
    AVX2 CPUs (pairs without AVX2) and gives the loader's bytes."""
    width = width_of_a_build_with_the_loaders_bytes(tmp_path, NO_AVX512)
    flags = cpu_flags()
    if flags is not None:
        assert width == expected_width(flags, avx512=False)


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
def test_width_follows_the_cpu_flags():
    """The library the loader builds advances 8 lanes where /proc/cpuinfo
    lists avx512f, 4 where it lists avx2, else 2: a dispatch that falls
    back to a narrower body would pass every byte test and lose the
    speed."""
    flags = cpu_flags()
    if flags is None:
        pytest.skip("no /proc/cpuinfo")
    assert epimodel.kernel() == "c"
    assert lane_width(epimodel._kernel_path()) == expected_width(flags)


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


def test_build_flags_keep_python_rounding_and_match_the_docs():
    """No flag lets the compiler contract or reorder float operations or
    target the build machine, and the build line in the header of
    ``_rk4.c`` and the flag sentence of README name exactly these flags."""
    flags = list(epimodel._KERNEL_FLAGS)
    assert "-ffp-contract=off" in flags
    assert not {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                "-march=native"} & set(flags)
    header = epimodel._KERNEL_SOURCE.read_text().split("*/", 1)[0]
    line = re.search(r"\bcc (.*?) -o _rk4\.so _rk4\.c",
                     header.replace("\\\n *", " "))
    assert line and line.group(1).split() == flags
    readme = (ROOT / "README.md").read_text()
    sentence = re.search(r"compiles it once with\s+`([^`]*)`", readme)
    assert sentence and sentence.group(1).split() == flags


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
    status, _, clamps, _ = epimodel._kernel_advance(
        epimodel._load_kernel(), default_params, 3, 5, rates, [4], k_arr,
        [4], got, state)
    end_py, clamps_py = epimodel._advance(default_params, wx, rates, k_arr, y,
                                          3, 4, 9, want)
    assert status == 0
    assert state[0].tolist() == end_py
    assert clamps.tolist() == [clamps_py]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
def test_build_deletes_stale_libraries(tmp_path):
    """A build leaves only the current key's library in the cache: the
    library of an old key goes, and a build's temporary file stays, since
    it may belong to a build still running."""
    (tmp_path / "_rk4-0123456789abcdef.so").write_bytes(b"stale")
    (tmp_path / "_rk4-0123456789abcdef-x1.tmp").write_bytes(b"")
    path = tmp_path / epimodel._kernel_path().name
    assert epimodel._build_kernel(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [path.name, "_rk4-0123456789abcdef-x1.tmp"])


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
@pytest.mark.parametrize("extra", [(), (epimodel._NO_AVX2,)])
def test_kernel_source_compiles_without_warnings(tmp_path, extra):
    """``_rk4.c`` builds with the loader's flags and ``-Wall -Wextra
    -Werror``, with and without the AVX2 and AVX-512 bodies."""
    build(tmp_path / "lib.so", "-Wall", "-Wextra", "-Werror", *extra)

"""run_pipeline's emitted windows split over threads: the gate, and the
same output, errors and numpy error state as one part on the caller."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import lowlight_rppg
from lowlight_rppg import PipelineConfig, SynthConfig, generate, reconstruct, run_pipeline
from lowlight_rppg.errors import NoComponents
from lowlight_rppg.reconstruct import helper_count

CORES = 8


@pytest.mark.parametrize("environ, blas, helpers", [
    ({}, "scipy-openblas", 0),
    ({"OPENBLAS_NUM_THREADS": "1"}, "scipy-openblas", CORES - 1),
    ({"OMP_NUM_THREADS": "1"}, "openblas64", CORES - 1),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, "openblas", CORES - 1),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, "scipy-openblas", 0),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, "scipy-openblas", CORES - 1),
    ({"OPENBLAS_NUM_THREADS": " 1 "}, "scipy-openblas", CORES - 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, "mkl-sdl", 0),
    ({"OPENBLAS_NUM_THREADS": "1"}, "accelerate", 0),
    ({"OPENBLAS_NUM_THREADS": "1"}, "", 0),
], ids=["nothing-set", "openblas-1", "omp-1-only", "goto-before-omp",
        "openblas-2-before-omp-1", "empty-is-unset", "padded-1", "mkl", "accelerate",
        "unknown-blas"])
def test_helper_count(environ, blas, helpers):
    assert helper_count(environ, blas, CORES) == helpers


def test_one_core_has_no_helper():
    assert helper_count({"OPENBLAS_NUM_THREADS": "1"}, "scipy-openblas", 1) == 0


def _trace(fs, duration_s, hr_bpm=84.0, seed=13):
    return generate(SynthConfig(hr_bpm=hr_bpm, fs=fs, duration_s=duration_s,
                                drift_amp=2.0, noise_rms=(0.8,) * 3, seed=seed))


def _emitted(pulse):
    return sum(r.emitted for r in pulse.window_flags)


@pytest.mark.parametrize("fs, duration_s, emitted", [
    (30.0, 60.0, 11),
    (60.0, 120.0, 23),
    (30.0, 10.0, 1),
    (30.0, 40.0, 7),
    (30.0, 360.0, 71),  # two blocks: 64 windows and 7
], ids=["60s-30hz", "120s-60hz", "one-window", "odd-count", "two-blocks"])
@pytest.mark.parametrize("helpers", [1, 2])
def test_threaded_output_is_byte_identical(monkeypatch, fs, duration_s, emitted, helpers):
    trace = _trace(fs, duration_s)
    monkeypatch.setattr(reconstruct, "_HELPERS", 0)
    inline = run_pipeline(trace)
    assert _emitted(inline) == emitted
    monkeypatch.setattr(reconstruct, "_HELPERS", helpers)
    threaded = run_pipeline(trace)
    assert threaded.samples.tobytes() == inline.samples.tobytes()
    assert threaded.window_flags == inline.window_flags


def test_more_parts_than_cores_with_frequent_switches(monkeypatch):
    # six threads writing the flags of neighbouring windows, switching
    # every 10 us: a lost or misplaced write would change the records
    trace = _trace(30.0, 360.0)
    monkeypatch.setattr(reconstruct, "_HELPERS", 0)
    inline = run_pipeline(trace)
    monkeypatch.setattr(reconstruct, "_HELPERS", 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = run_pipeline(trace)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.samples.tobytes() == inline.samples.tobytes()
    assert threaded.window_flags == inline.window_flags


@pytest.fixture
def threads_started(monkeypatch):
    """Force one helper; every thread started off the main thread fails."""
    monkeypatch.setattr(reconstruct, "_HELPERS", 1)
    started = []
    real = threading.Thread

    def guarded(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            started.append(threading.current_thread().name)
            raise AssertionError("thread started off the main thread")
        return real(*args, **kwargs)
    monkeypatch.setattr(threading, "Thread", guarded)
    return started


def test_sweep_workers_start_no_thread(threads_started):
    from lowlight_rppg.sweep import sweep_report
    config = SynthConfig(hr_bpm=84.0, duration_s=20.0, noise_rms=(0.5,) * 3, seed=4)
    rows = sweep_report(config, (1.0, 0.25), PipelineConfig(), jobs=2)
    assert len(rows) == 4 and threads_started == []


def test_non_main_thread_starts_no_thread(threads_started):
    trace = _trace(30.0, 60.0)
    out = []
    worker = threading.Thread(target=lambda: out.append(run_pipeline(trace)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(out) == 1 and threads_started == []


def test_main_thread_starts_helpers(monkeypatch):
    monkeypatch.setattr(reconstruct, "_HELPERS", 1)
    names = []
    real = reconstruct.decompose_rows

    def decompose_rows(*args):
        names.append(threading.current_thread().name)
        return real(*args)
    monkeypatch.setattr(reconstruct, "decompose_rows", decompose_rows)
    run_pipeline(_trace(30.0, 60.0))
    # the caller's part and the helper's, in either order
    assert len(set(names)) == 2 and threading.main_thread().name in names


def _hr_step_trace():
    """60 s at 30 Hz: 60 bpm, then 120 bpm from 30 s, so the emitted
    windows of the second part track about 2 Hz."""
    first = generate(SynthConfig(hr_bpm=60.0, duration_s=30.0, noise_rms=(0.2,) * 3))
    second = generate(SynthConfig(hr_bpm=120.0, duration_s=30.0, noise_rms=(0.2,) * 3))
    return lowlight_rppg.RawTrace(samples=np.vstack([first.samples, second.samples]),
                                  fs=30.0)


@pytest.mark.parametrize("rule", ["fast-windows", "every-call"])
def test_errors_cross_the_thread_boundary(monkeypatch, rule):
    # select_rows fails on windows tracking more than 1.5 Hz, which only
    # the helper's part holds; or on every call, naming the first window,
    # which the caller's part holds
    real = reconstruct.select_rows
    failed_on_main = []

    def select_rows(comps, sv, fs, f_r, sigma_fr, band):
        if rule == "every-call":
            message = f"first window tracks {f_r[0]:.4f} Hz"
        elif np.max(f_r) > 1.5:
            message = "no components near a fast reference"
        else:
            return real(comps, sv, fs, f_r, sigma_fr, band)
        failed_on_main.append(threading.current_thread() is threading.main_thread())
        raise NoComponents(message)
    monkeypatch.setattr(reconstruct, "select_rows", select_rows)
    trace = _hr_step_trace()
    errors = []
    for helpers in (0, 1):
        monkeypatch.setattr(reconstruct, "_HELPERS", helpers)
        with pytest.raises(NoComponents) as exc:
            run_pipeline(trace)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    # inline: one call on the caller; threaded: the helper's part fails
    # too, and in "every-call" the caller's part as well
    assert sorted(failed_on_main) == ([False, True] if rule == "fast-windows"
                                      else [False, True, True])


def test_helpers_see_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(reconstruct, "_HELPERS", 1)
    seen = []
    real = reconstruct.fuse_rows

    def fuse_rows(*args):
        seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
        return real(*args)
    monkeypatch.setattr(reconstruct, "fuse_rows", fuse_rows)
    with np.errstate(divide="raise", over="warn", under="ignore", invalid="print"):
        caller = np.geterr()
        run_pipeline(_trace(30.0, 60.0))
    assert sorted(main for main, _ in seen) == [False, True]
    assert all(state == caller for _, state in seen)
    assert caller != np.geterr()


def test_extract_files_match_with_blas_pinned_or_not(tmp_path):
    # the threaded path runs only where BLAS runs one thread per call; its
    # files are those of the default setting, and it loads no thread pool
    trace = tmp_path / "trace.csv"
    lowlight_rppg.save_trace_csv(_trace(30.0, 60.0), trace)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lowlight_rppg.__file__)))
    code = f"""
import sys, threading
sys.path.insert(0, {src!r})
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self), start(self))[1]
from lowlight_rppg import cli, reconstruct
code = cli.main(["extract", {str(trace)!r}, sys.argv[1]])
print(code, reconstruct._HELPERS, len(started), "concurrent.futures" in sys.modules)
"""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    files = {}
    for name, extra in (("unset", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name / "pulse.csv"
        out.parent.mkdir()
        result = subprocess.run([sys.executable, "-c", code, str(out)], env={**env, **extra},
                                capture_output=True, text=True, check=True).stdout.split()
        code_, helpers, started, pool_loaded = result
        assert (code_, pool_loaded) == ("0", "False")
        if name == "unset":
            assert (helpers, started) == ("0", "0")
        else:
            assert int(started) == min(int(helpers), 11 - 1)
        files[name] = {f.name: f.read_bytes() for f in out.parent.iterdir()}
    assert sorted(files["unset"]) == ["pulse.csv", "pulse.hr.json", "pulse.windows.json"]
    assert files["unset"] == files["pinned"]

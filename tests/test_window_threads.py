"""run_pipeline's emitted windows split over threads: the gate, and the
same output, errors and numpy error state as one part on the caller."""

import ctypes
import importlib.util
import os
import subprocess
import sys
import threading
import types
import warnings

import numpy as np
import pytest

import lowlight_rppg
from lowlight_rppg import PipelineConfig, SynthConfig, generate, reconstruct, run_pipeline
from lowlight_rppg.errors import DecompositionFailure, NoComponents, NonFiniteInput

CORES = reconstruct._CORES
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lowlight_rppg.__file__)))
# this environment without the variables OpenBLAS reads its thread count from
CLEAN_ENV = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
needs_openblas = pytest.mark.skipif(reconstruct._blas_threads is None,
                                    reason="numpy's BLAS exports no OpenBLAS getter")


def _force_parts(monkeypatch, parts):
    """Make run_pipeline on the main thread use ``parts`` parts."""
    monkeypatch.setattr(reconstruct, "_CORES", parts)
    monkeypatch.setattr(reconstruct, "_blas_threads", lambda: 1)


def _spy(monkeypatch, name, before):
    """Run ``before`` with the arguments of every ``reconstruct.<name>``
    call, which it may fail by raising, before the call."""
    real = getattr(reconstruct, name)

    def spy(*args):
        before(*args)
        return real(*args)
    monkeypatch.setattr(reconstruct, name, spy)


def _on_main():
    return threading.current_thread() is threading.main_thread()


@pytest.fixture
def parts_used(monkeypatch):
    """The part count of each block of emitted windows the test's
    run_pipeline splits."""
    used = []
    real = reconstruct._run_parts

    def run_parts(func, start, stop, parts):
        used.append(parts)
        return real(func, start, stop, parts)
    monkeypatch.setattr(reconstruct, "_run_parts", run_parts)
    return used


def _in_new_process(environ, before_import=""):
    """OpenBLAS's thread count (None without a getter) and the part counts
    of one run_pipeline call (one block of 3 emitted windows) in a new
    Python started with ``environ`` and no other OpenBLAS variable, which
    runs ``before_import`` before it imports lowlight_rppg."""
    code = f"""
import sys
sys.path.insert(0, {SRC!r})
{before_import}
from lowlight_rppg import SynthConfig, generate, reconstruct, run_pipeline
used = []
real = reconstruct._run_parts
reconstruct._run_parts = lambda func, a, b, parts: (used.append(parts),
                                                    real(func, a, b, parts))[1]
run_pipeline(generate(SynthConfig(duration_s=20.0)))
print(reconstruct._blas_threads and reconstruct._blas_threads(), *used)
"""
    out = subprocess.run([sys.executable, "-c", code], env={**CLEAN_ENV, **environ},
                         capture_output=True, text=True, check=True).stdout
    threads, *parts = out.split()
    return (None if threads == "None" else int(threads)), [int(p) for p in parts]


@pytest.mark.parametrize("environ, lib, helpers", [
    ({}, None, 0),
    ({"OPENBLAS_NUM_THREADS": "1"}, None, CORES - 1),
    ({"OMP_NUM_THREADS": "1"}, None, CORES - 1),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, None, CORES - 1),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, None, 0),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, None, CORES - 1),
    ({"OPENBLAS_NUM_THREADS": " 1 "}, None, CORES - 1),
    ({}, ("MKL_Get_Max_Threads",), 0),
    ({}, ("BLASGetThreading",), 0),
    ({}, (), 0),
], ids=["nothing-set", "openblas-1", "omp-1-only", "goto-before-omp",
        "openblas-2-before-omp-1", "empty-is-unset", "padded-1", "mkl", "accelerate",
        "unknown-blas"])
def test_helper_count(monkeypatch, parts_used, environ, lib, helpers):
    # threads besides the caller: with numpy's OpenBLAS in a process
    # started with ``environ`` (OpenBLAS reads the first of its variables
    # that is set), or none with a BLAS that exports only the getters
    # named in ``lib``
    if lib is None:
        if reconstruct._blas_threads is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS getter")
        assert _in_new_process(environ)[1] == [helpers + 1]
    else:
        fake = types.SimpleNamespace(**{name: lambda: 1 for name in lib})
        monkeypatch.setattr(reconstruct, "_blas_threads", reconstruct._openblas_threads(fake))
        assert reconstruct._blas_threads is None
        run_pipeline(_trace(30.0, 60.0))
        assert parts_used == [helpers + 1]


def test_one_core_has_no_helper(monkeypatch, parts_used):
    _force_parts(monkeypatch, 1)
    run_pipeline(_trace(30.0, 60.0))
    assert parts_used == [1]


@needs_openblas
def test_variable_set_after_numpy_loads_starts_no_helper():
    # OpenBLAS read its variables when numpy loaded it, so it keeps its
    # default threads (one per core) and the windows run on the caller
    before = "import os, numpy\nos.environ['OPENBLAS_NUM_THREADS'] = '1'"
    assert _in_new_process({}, before)[1] == [1]


@needs_openblas
def test_threads_set_at_run_time_gate_the_next_call(parts_used):
    getter = reconstruct._blas_threads
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    setter = getattr(lib, getter.__name__.replace("_get_", "_set_"))
    setter.argtypes, setter.restype = [ctypes.c_int], None
    trace = _trace(30.0, 20.0)
    threads = getter()
    try:
        for n in (1, 2):
            setter(n)
            assert getter() == n
            run_pipeline(trace)
    finally:
        setter(threads)
    assert parts_used == [CORES, 1]


def test_getter_found_where_numpy_names_openblas():
    # guards the threaded path of a run with OPENBLAS_NUM_THREADS=1
    # exported against a getter that is no longer found
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy that only prints its build config
        pytest.skip("numpy does not name its BLAS")
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas}")
    assert _in_new_process({"OPENBLAS_NUM_THREADS": "1"}) == (1, [CORES])


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
    _force_parts(monkeypatch, 1)
    inline = run_pipeline(trace)
    assert _emitted(inline) == emitted
    _force_parts(monkeypatch, 1 + helpers)
    threaded = run_pipeline(trace)
    assert threaded.samples.tobytes() == inline.samples.tobytes()
    assert threaded.window_flags == inline.window_flags


def test_more_parts_than_cores_with_frequent_switches(monkeypatch):
    # six threads writing the flags of neighbouring windows, switching
    # every 10 us: a lost or misplaced write would change the records
    trace = _trace(30.0, 360.0)
    _force_parts(monkeypatch, 1)
    inline = run_pipeline(trace)
    _force_parts(monkeypatch, 6)
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
    """Force one helper, and list for every thread started whether the main
    thread started it; every thread started off the main thread fails."""
    _force_parts(monkeypatch, 2)
    started = []
    real = threading.Thread

    def guarded(*args, **kwargs):
        started.append(_on_main())
        if not started[-1]:
            raise AssertionError("thread started off the main thread")
        return real(*args, **kwargs)
    monkeypatch.setattr(threading, "Thread", guarded)
    return started


def test_sweep_workers_start_no_thread(threads_started):
    from lowlight_rppg.sweep import sweep_report
    config = SynthConfig(hr_bpm=84.0, duration_s=20.0, noise_rms=(0.5,) * 3, seed=4)
    rows = sweep_report(config, (1.0, 0.25), PipelineConfig(), jobs=2)
    assert len(rows) == 4 and all(threads_started)  # the pool's workers alone


def test_non_main_thread_starts_no_thread(threads_started):
    trace = _trace(30.0, 60.0)
    out = []
    worker = threading.Thread(target=lambda: out.append(run_pipeline(trace)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(out) == 1 and threads_started == [True]  # the worker


def test_main_thread_starts_helpers(monkeypatch):
    _force_parts(monkeypatch, 2)
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
    # candidate_frequencies fails on windows whose strongest component is
    # above 1.5 Hz, which only the helper's part holds; or on every call,
    # naming the first window's, which the caller's part holds
    real = reconstruct.candidate_frequencies
    failed_on_main = []

    def candidate_frequencies(comps, sv, fs):
        freqs = real(comps, sv, fs)
        if rule == "every-call":
            message = f"first window's strongest component is at {freqs[0, 0]:.4f} Hz"
        elif np.max(freqs[:, 0]) > 1.5:
            message = "a window's strongest component is fast"
        else:
            return freqs
        failed_on_main.append(threading.current_thread() is threading.main_thread())
        raise NoComponents(message)
    monkeypatch.setattr(reconstruct, "candidate_frequencies", candidate_frequencies)
    trace = _hr_step_trace()
    errors = []
    for parts in (1, 2):
        _force_parts(monkeypatch, parts)
        with pytest.raises(NoComponents) as exc:
            run_pipeline(trace)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    # inline: one call on the caller; threaded: the helper's part fails
    # too, and in "every-call" the caller's part as well
    assert sorted(failed_on_main) == ([False, True] if rule == "fast-windows"
                                      else [False, True, True])


def test_helpers_see_the_callers_errstate(monkeypatch):
    _force_parts(monkeypatch, 2)
    seen = []
    _spy(monkeypatch, "decompose_rows", lambda *args: seen.append((_on_main(), np.geterr())))
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
    code = f"""
import sys, threading
sys.path.insert(0, {SRC!r})
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self), start(self))[1]
from lowlight_rppg import cli, reconstruct
code = cli.main(["extract", {str(trace)!r}, sys.argv[1]])
print(code, reconstruct._blas_threads is not None, len(started),
      "concurrent.futures" in sys.modules)
"""
    files = {}
    for name, extra in (("unset", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name / "pulse.csv"
        out.parent.mkdir()
        result = subprocess.run([sys.executable, "-c", code, str(out)], env={**CLEAN_ENV, **extra},
                                capture_output=True, text=True, check=True).stdout.split()
        code_, found, started, pool_loaded = result
        assert (code_, pool_loaded) == ("0", "False")
        if name == "unset":
            assert started == "0"
        else:
            assert int(started) == (min(CORES, 11) - 1 if found == "True" else 0)
        files[name] = {f.name: f.read_bytes() for f in out.parent.iterdir()}
    assert sorted(files["unset"]) == ["pulse.csv", "pulse.hr.json", "pulse.windows.json"]
    assert files["unset"] == files["pinned"]


def _pool_entry_0_60hz():
    """Pool entry 0 of the benchmark's cli-extract-60hz: 120 s at 60 Hz."""
    path = os.path.join(os.path.dirname(SRC), "benchmarks", "workloads.py")
    spec = importlib.util.spec_from_file_location("window_threads_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.CliExtract60Hz()
    samples = workloads.synth_samples(workload.specs[0], workload.fs, workload.duration_s)
    return lowlight_rppg.RawTrace(samples=samples, fs=workload.fs)


@pytest.mark.parametrize("make_trace, blocks", [
    (lambda: _trace(30.0, 140.0), 3),  # 131 windows: 64, 64 and 3
    (_pool_entry_0_60hz, 2),           # 111 windows: 64 and 47
], ids=["140s-30hz", "pool-0-120s-60hz"])
def test_first_pass_blocks_are_byte_identical(monkeypatch, threads_started, make_trace, blocks):
    # the caller filters every block at any part count, so the threads
    # started are the one emitted block's helpers alone
    trace = make_trace()
    outputs, on_main = [], []
    for name in ("detrend", "bandpass"):
        _spy(monkeypatch, name, lambda *args: on_main.append(_on_main()))
    for parts in (1, 2, 3):
        _force_parts(monkeypatch, parts)
        on_main.clear()
        threads_started.clear()
        outputs.append(run_pipeline(trace))
        assert on_main == [True] * 2 * blocks
        assert threads_started == [True] * (parts - 1)
    for pulse in outputs[1:]:
        assert pulse.samples.tobytes() == outputs[0].samples.tobytes()
        assert pulse.window_flags == outputs[0].window_flags


@pytest.mark.parametrize("parts", [1, 2])
def test_first_pass_warning_reaches_the_caller(monkeypatch, parts):
    # at 30 Hz a 0.3 Hz band edge settles in 161 samples, more than a
    # third of a 300-sample window: bandpass warns on every block
    _force_parts(monkeypatch, parts)
    trace, config = _trace(30.0, 100.0), PipelineConfig(band=(0.3, 4.0))
    with pytest.warns(RuntimeWarning, match="settling length"):
        warned = run_pipeline(trace, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="settling length"):
            run_pipeline(trace, config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run_pipeline(trace, config).samples.tobytes() == warned.samples.tobytes()


@pytest.mark.parametrize("parts", [1, 2])
def test_first_pass_error_of_block_2_reaches_the_caller(monkeypatch, parts):
    # 100 s at 30 Hz: 91 windows in blocks of 64 and 27; a NaN in block 2's
    # filtered rows, written on the caller, fails its reference search
    _force_parts(monkeypatch, parts)
    real = reconstruct.bandpass
    failed_on_main = []

    def bandpass(rows, *args):
        out = real(rows, *args)
        if len(rows) < reconstruct._BLOCK_ROWS:
            failed_on_main.append(_on_main())
            out[-1, 0] = np.nan
        return out
    monkeypatch.setattr(reconstruct, "bandpass", bandpass)
    with pytest.raises(NonFiniteInput):
        run_pipeline(_trace(30.0, 100.0))
    assert failed_on_main == [True]


def test_helper_decomposes_during_the_callers_search(monkeypatch):
    # 60 s at 30 Hz is one block, searched by the caller's part while the
    # helper starts its part's SVDs: the search holds until they start
    _force_parts(monkeypatch, 2)
    helper_decomposing, overlapped = threading.Event(), []
    _spy(monkeypatch, "decompose_rows",
         lambda *args: _on_main() or helper_decomposing.set())
    _spy(monkeypatch, "dominant_frequencies",
         lambda *args: overlapped.append(_on_main() and helper_decomposing.wait(timeout=30)))
    run_pipeline(_trace(30.0, 60.0))
    assert overlapped == [True]


def test_helper_scores_candidates_during_the_callers_search(monkeypatch):
    # the search of the caller's part holds until the helper has found
    # its part's candidate frequencies, which need no reference HR
    _force_parts(monkeypatch, 2)
    helper_scored, overlapped = threading.Event(), []
    _spy(monkeypatch, "candidate_frequencies",
         lambda *args: _on_main() or helper_scored.set())
    _spy(monkeypatch, "dominant_frequencies",
         lambda *args: overlapped.append(_on_main() and helper_scored.wait(timeout=30)))
    run_pipeline(_trace(30.0, 60.0))
    assert overlapped == [True]


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_selection_waits_for_every_search(monkeypatch, parts):
    # 140 s at 30 Hz: blocks of 64, 64 and 3 windows and one emitted block;
    # the one select_rows call of the block runs on the caller after every
    # search
    _force_parts(monkeypatch, parts)
    searched, seen_by_selection = [], []
    _spy(monkeypatch, "dominant_frequencies", lambda rows, *args: searched.append(len(rows)))
    _spy(monkeypatch, "select_rows",
         lambda *args: seen_by_selection.append((_on_main(), sorted(searched))))
    run_pipeline(_trace(30.0, 140.0))
    assert seen_by_selection == [(True, [3, 64, 64])]


@pytest.mark.parametrize("make_trace, searched", [
    (lambda: _trace(30.0, 60.0), [51]),
    (_pool_entry_0_60hz, [64, 47]),
    (lambda: _trace(30.0, 140.0), [64, 64, 3]),
], ids=["60s-30hz", "pool-0-120s-60hz", "140s-30hz"])
@pytest.mark.parametrize("parts", [1, 2, 3])
def test_every_search_runs_on_the_caller(monkeypatch, parts, make_trace, searched):
    # the caller searches every filtered block, in block order; helpers
    # only decompose and score their own windows
    _force_parts(monkeypatch, parts)
    calls = []
    _spy(monkeypatch, "dominant_frequencies",
         lambda rows, *args: calls.append((_on_main(), len(rows))))
    run_pipeline(make_trace())
    assert calls == [(True, n) for n in searched]


@pytest.mark.parametrize("other", ["select_rows", "decompose_rows"])
@pytest.mark.parametrize("parts", [1, 2, 3])
def test_failed_search_outranks_the_other_parts_errors(monkeypatch, parts, other):
    # 100 s at 30 Hz: blocks of 64 and 27 windows and 19 emitted windows;
    # 140 s: blocks of 64, 64 and 3 and 27 emitted windows.  Every search
    # from block 2 on fails (on the caller at any part count), and so does
    # every selection, or every part's SVDs: the caller gets the error of
    # block 2's search, as on one part, where the search comes first
    _force_parts(monkeypatch, parts)
    searched, failed_on_main = [], []

    def block_2(rows, *args):
        searched.append(rows)
        if len(searched) >= 2:
            failed_on_main.append(_on_main())
            raise NonFiniteInput(f"block {len(searched)} holds a NaN")

    def fail(*args):
        raise (NoComponents if other == "select_rows" else DecompositionFailure)(other)
    _spy(monkeypatch, "dominant_frequencies", block_2)
    _spy(monkeypatch, other, fail)
    before = set(threading.enumerate())
    for duration_s in (100.0, 140.0):
        searched.clear()
        failed_on_main.clear()
        with pytest.raises(NonFiniteInput, match="^block 2 holds a NaN$"):
            run_pipeline(_trace(30.0, duration_s))
        assert failed_on_main == [True]
        assert set(threading.enumerate()) == before


def test_thread_that_fails_to_start_leaves_no_part_waiting(monkeypatch):
    # the second helper of the emitted block does not start: the error
    # reaches the caller only once the first helper has ended
    _force_parts(monkeypatch, 3)
    real = threading.Thread.start
    starts = []

    def start(self):
        starts.append(self)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        real(self)
    before = set(threading.enumerate())
    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        run_pipeline(_trace(30.0, 60.0))
    assert set(threading.enumerate()) == before
    assert len(starts) == 2 and not starts[0].is_alive()
